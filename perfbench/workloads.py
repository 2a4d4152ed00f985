"""Workloads of the CLI benchmark: their inputs, their CLI calls and the
checks on each call's output.

Every sample is drawn once from BASE_SEED; the run seed only permutes its
observations before they are written to a data file.  The statistic and
the p-value are invariant under permutation, so the references stored in
references.json (computed once by make_references.py) hold for every run
seed, while the bytes the CLI reads differ from seed to seed.

Two scales exist.  "full" is the benchmark itself; "small" runs the same
calls on smaller samples and a reduced spectrum protocol, for the
benchmark's own tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_SEED = 20210623
REFERENCES = Path(__file__).resolve().parent / "references.json"

# name -> draw(rng, n); the index in this table is part of each sample's seed
SAMPLES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    # heavily tied: Student-t(3) rounded to one decimal
    "t3-tied": lambda rng, n: np.round(rng.standard_t(3, n), 1),
    "normal-b": lambda rng, n: rng.standard_normal(n),
    "t5": lambda rng, n: rng.standard_t(5, n),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
}
NON_NORMAL = ("t3-tied", "t5", "exponential", "uniform")

# `stat` against the exact O(n^2) reference: |T - T_ref| <= STAT_RTOL * n.
# T is the difference of three terms of size up to n, so the tolerance is
# relative to n, not to T (at beta = 0.25 on normal data T ~ 1e-3 at
# n = 2e4).  It admits a different summation order and a pair sum
# certified to 1e-12 relative.
STAT_RTOL = 1e-10
# Alternatives must be rejected at this level.
PVALUE_ALPHA = 0.01
# Normal samples: |p - p_ref| <= PVALUE_ATOL + PVALUE_SIGMAS * sqrt(p_ref (1 - p_ref) / M),
# the Monte-Carlo error of both estimates plus room for a change of spectrum
# method at beta <= 2, where the top five eigenvalues carry most of the trace.
PVALUE_ATOL = 0.02
PVALUE_SIGMAS = 5.0

# Published tables, copied from the paper (acceptance criteria 1 and 2).
PAPER_BETAS = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 5.0, 10.0)
PAPER_EIGENVALUES = {
    0.25: (0.00040, 0.00003, 0.00000, 0.00000, 0.00000),
    0.5: (0.01065, 0.00304, 0.00021, 0.00004, 0.00000),
    0.75: (0.03829, 0.01735, 0.00220, 0.00076, 0.00011),
    1.0: (0.07507, 0.04454, 0.00846, 0.00417, 0.00098),
    2.0: (0.15207, 0.12921, 0.04894, 0.03966, 0.01692),
    3.0: (0.16149, 0.14577, 0.07676, 0.06642, 0.03755),
    5.0: (0.13552, 0.12606, 0.08703, 0.07997, 0.05678),
    10.0: (0.08791, 0.08178, 0.06879, 0.06459, 0.05518),
}
PAPER_FAMILIES = ("lehmann", "lp1", "lp2", "contam:1:1", "contam:0.5:1", "contam:0:0.5")
PAPER_EFFICIENCIES = {
    "lehmann": (0.996, 0.895, 0.854, 0.743, 0.514, 0.406, 0.328, 0.267),
    "lp1": (0.947, 0.944, 0.998, 0.937, 0.745, 0.612, 0.507, 0.417),
    "lp2": (0.824, 0.872, 0.986, 0.981, 0.881, 0.754, 0.641, 0.533),
    "contam:1:1": (0.760, 0.649, 0.592, 0.499, 0.328, 0.255, 0.205, 0.166),
    "contam:0.5:1": (0.945, 0.824, 0.766, 0.654, 0.438, 0.343, 0.276, 0.224),
    "contam:0:0.5": (0.084, 0.267, 0.474, 0.587, 0.675, 0.606, 0.526, 0.442),
}
# Criterion 1: |estimate - paper| <= max(EIG_ATOL, EIG_RTOL * paper) per entry.
EIG_ATOL = 0.005
EIG_RTOL = 0.10
# Criterion 2, stage B: |efficiency - paper| <= EFF_ATOL + 3 sqrt(2) se_rel |paper|,
# with se_rel the relative standard error of the protocol's lambda1 per beta
# (stored in references.json), and 0 < efficiency <= 1.05 (1 + 3 se_rel).
EFF_ATOL = 0.03


STAT_BETAS = (0.25, 1.0, 10.0)
PVALUE_N = 1000
PVALUE_BETAS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Scale:
    stat_n: int
    # extra flags of pvalue, table1 and table2; none means the CLI defaults,
    # which are the paper's reference protocol
    pvalue_flags: tuple[str, ...]
    table1_flags: tuple[str, ...]
    table2_flags: tuple[str, ...]


SCALES = {
    "full": Scale(20_000, (), (), ()),
    "small": Scale(
        2000,
        ("--n-points", "200", "--runs", "2", "--mc-samples", "20000"),
        ("--n-points", "200", "--runs", "2"),
        ("--n-points", "200", "--runs", "2", "--alt", "lp2", "--beta", "0.5,1"),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI call.  `name` is unique in its workload and names the
    call's output file; `sample` and `beta` are set for data commands."""

    name: str
    command: str
    flags: tuple[str, ...]
    sample: str | None = None
    beta: float | None = None

    def argv(self, data_dir: Path, out_dir: Path) -> list[str]:
        head = [self.command]
        if self.sample is not None:
            head += [str(data_dir / f"{self.sample}.txt"), "--beta", repr(self.beta)]
        return head + list(self.flags) + ["--format", "json", "--out", str(out_dir / f"{self.name}.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    sample_n: int
    samples: tuple[str, ...]
    ops: tuple[Op, ...]


def _data_ops(command, samples, betas, flags=()):
    return tuple(
        Op(f"{command}-{s}-beta{b:g}", command, tuple(flags), s, b) for b in betas for s in samples
    )


def workload(name: str, scale: str = "full") -> Workload:
    sc = SCALES[scale]
    if name == "stat-large":
        samples = ("normal", "t3-tied")
        return Workload(name, sc.stat_n, samples, _data_ops("stat", samples, STAT_BETAS))
    if name == "pvalue-batch":
        samples = ("normal", "normal-b", "t5", "exponential", "uniform")
        return Workload(name, PVALUE_N, samples, _data_ops("pvalue", samples, PVALUE_BETAS, sc.pvalue_flags))
    if name == "paper-tables":
        ops = (Op("table1", "table1", sc.table1_flags), Op("table2", "table2", sc.table2_flags))
        return Workload(name, 0, (), ops)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("stat-large", "pvalue-batch", "paper-tables")


def base_sample(name: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([BASE_SEED, n, list(SAMPLES).index(name)])
    return SAMPLES[name](rng, n)


def write_inputs(wl: Workload, seed: int | None, data_dir: Path) -> None:
    """Write each sample of the workload, permuted by `seed` (unless None),
    one value per line."""
    for i, name in enumerate(wl.samples):
        values = base_sample(name, wl.sample_n)
        if seed is not None:
            values = values[np.random.default_rng([seed, i]).permutation(values.size)]
        text = "\n".join(repr(v) for v in values.tolist()) + "\n"
        (data_dir / f"{name}.txt").write_text(text, encoding="utf-8")


def reference_key(scale: str, op: Op) -> str:
    return f"{scale}/{op.name}"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check(op: Op, text: str, refs: dict, scale: str) -> str | None:
    """Return why the output of `op` is wrong, or None when it passes."""
    try:
        out = json.loads(text)
        if op.command == "stat":
            return _check_stat(op, out, refs[reference_key(scale, op)], SCALES[scale].stat_n)
        if op.command == "pvalue":
            return _check_pvalue(op, out, refs.get(reference_key(scale, op)), PVALUE_N)
        if op.command == "table1":
            return _check_table1(out, op.flags == ())
        if op.command == "table2":
            return _check_table2(out, refs["lambda1_se_rel"] if op.flags == () else None)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"no check for command {op.command!r}")


def _check_stat(op, out, ref, n):
    if out["n"] != n or out["beta"] != op.beta:
        return f"n/beta echoed as {out['n']}/{out['beta']}"
    value = float(out["statistic"])
    if not abs(value - ref) <= STAT_RTOL * n:
        return f"statistic {value!r} vs reference {ref!r} (tolerance {STAT_RTOL * n:.3g})"
    return None


def _check_pvalue(op, out, ref, n):
    if out["n"] != n or out["beta"] != op.beta:
        return f"n/beta echoed as {out['n']}/{out['beta']}"
    p = float(out["p_value"])
    if not 0.0 <= p <= 1.0:
        return f"p-value {p!r} outside [0, 1]"
    if op.sample in NON_NORMAL:
        return None if p < PVALUE_ALPHA else f"p-value {p!r} not below {PVALUE_ALPHA}"
    tol = PVALUE_ATOL + PVALUE_SIGMAS * math.sqrt(ref * (1.0 - ref) / int(out["mc_samples"]))
    if not abs(p - ref) <= tol:
        return f"p-value {p!r} vs reference {ref!r} (tolerance {tol:.4f})"
    return None


def _check_table1(out, reference_protocol):
    eig = np.array(out["eigenvalues"], dtype=np.float64)
    betas = tuple(out["betas"])
    if betas != PAPER_BETAS or eig.shape != (len(PAPER_BETAS), 5):
        return f"table shape {eig.shape} for betas {betas}"
    if not (np.all(np.isfinite(eig)) and np.all(eig >= 0.0) and np.all(np.diff(eig, axis=1) <= 0.0)):
        return "eigenvalues not finite, nonnegative and descending"
    if reference_protocol:
        ref = np.array([PAPER_EIGENVALUES[b] for b in PAPER_BETAS])
        bad = np.abs(eig - ref) > np.maximum(EIG_ATOL, EIG_RTOL * ref)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            return f"eigenvalue {j + 1} at beta={PAPER_BETAS[i]}: {eig[i, j]:.5f} vs paper {ref[i, j]:.5f}"
    return None


def _check_table2(out, se_rel):
    eff = np.array(out["efficiency"], dtype=np.float64)
    families, betas = tuple(out["families"]), tuple(out["betas"])
    if eff.shape != (len(families), len(betas)) or eff.size == 0:
        return f"table shape {eff.shape} for {len(families)} families and {len(betas)} betas"
    if not (np.all(np.isfinite(eff)) and np.all(eff > 0.0)):
        return "efficiencies not finite and positive"
    if se_rel is None:
        return None
    if families != PAPER_FAMILIES or betas != PAPER_BETAS:
        return f"table covers {families} x {betas}"
    for name, row in zip(families, eff):
        for b, value, cell in zip(betas, row, PAPER_EFFICIENCIES[name]):
            se = se_rel[repr(b)]
            if not value <= 1.05 * (1.0 + 3.0 * se):
                return f"{name} beta={b}: efficiency {value:.4f} above the LRT bound"
            bound = EFF_ATOL + 3.0 * math.sqrt(2.0) * se * abs(cell)
            if not abs(value - cell) <= bound:
                return f"{name} beta={b}: {value:.4f} vs paper {cell:.3f} (bound {bound:.4f})"
    return None
