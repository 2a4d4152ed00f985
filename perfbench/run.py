#!/usr/bin/env python3
"""End-to-end benchmark of the eppspulley CLI.

    python3 perfbench/run.py --workload stat-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from src/.
Workloads (defined in workloads.py; why each was chosen is in
BENCHMARK.json):

  stat-large    `stat` on n = 20000, normal and heavily tied t(3), beta 0.25/1/10
  pvalue-batch  `pvalue` on five samples of n = 1000 at beta 0.5/1/2
  paper-tables  `table1` then `table2` at the paper's reference protocol

A pass runs the workload's CLI calls through `eppspulley.cli.main`, in
order, in one fresh interpreter (child.py): one sequential client, no
warm-up.  Passes repeat while another one is expected to fit in
--seconds; at least one always runs.  Every output is checked; a nonzero
exit code or a failed check counts as a failed call.  The BLAS thread
count of every child is pinned to BLAS_THREADS.

With --trace 0 the run reports, with units:
  setup_s      median wall time of `import eppspulley.cli` over the set-up
               children and the pass children
  wall_s       median over passes of the summed wall time of the CLI calls
  peak_rss_mb  median over passes of the pass child's ru_maxrss
and the error rate (failed / attempted CLI calls).  With --trace 1 the
run makes one untraced pass and one traced pass (tracing.py), reports
the per-layer metrics of the traced one plus trace.overhead_s (traced
minus untraced wall_s), and counts a traced output that differs from
the untraced one by a single byte as a failure.

Every run first starts one child whose import is not timed: it compiles
the package into its bytecode cache (src/eppspulley/__pycache__), so
every timed import reads that cache, as an installed CLI does, whatever
state the checkout was left in.

Each workload's report ends with one JSON line with the keys correct,
attempted, failed and metrics; for a single workload it is the last line
of standard output.  A fuller record (environment, per-call times,
failures, spans) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W
from tracing import unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"
# a run must end within 180 s; children get what is left of this
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (at most nproc): on a small shared machine a second
# thread makes the eigensolver's time depend on what else runs there.
BLAS_THREADS = 1
# children that only time the import, besides the pass children (untraced runs)
SETUP_CHILDREN = 4


class BenchError(Exception):
    """The benchmark itself could not complete a run."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                   help="'all' runs every workload in turn, each reported as by itself")
    p.add_argument("--seed", type=int, required=True, help="permutes the observations of every sample")
    p.add_argument("--seconds", type=float, required=True, help="time budget for passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the benchmark's own tests
    p.add_argument("--scale", choices=tuple(W.SCALES), default="full")
    p.add_argument("--corrupt", metavar="OP", help="overwrite the output of call OP before it is checked")
    return p.parse_args(argv)


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env.pop("EP_SEED", None)  # the CLI's default seed is part of the protocol
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up child writes the cache
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    return env


def run_child(work: Path, spec: dict, env: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on `spec`; return its result and its wall time."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=work)
    result_path = Path(spec_path).with_suffix(".result.json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({**spec, "result": str(result_path)}, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec_path], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within {timeout:.0f} s") from None
    elapsed = time.monotonic() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8")), elapsed


def check_pass(wl, res, out_dir, refs, scale, corrupt) -> dict[str, str]:
    """Failure reason per failed call of one pass."""
    failures = {}
    for op, rec in zip(wl.ops, res["ops"]):
        path = out_dir / f"{op.name}.json"
        if op.name == corrupt and path.exists():
            path.write_text("corrupted\n", encoding="utf-8")
        if rec["exit"] != 0:
            failures[op.name] = f"exit code {rec['exit']}"
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            failures[op.name] = f"no output: {exc}"
            continue
        reason = W.check(op, text, refs, scale)
        if reason is not None:
            failures[op.name] = reason
    return failures


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl = W.workload(workload, args.scale)
    refs = W.load_references()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(BLAS_THREADS)
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        data_dir = tmp / "data"
        data_dir.mkdir()
        W.write_inputs(wl, args.seed, data_dir)
        out_root = tmp / "out"

        run_child(tmp, {"ops": [], "trace": False}, env, deadline)  # fills the bytecode cache
        setup = [run_child(tmp, {"ops": [], "trace": False}, env, deadline)[0]["setup_s"]
                 for _ in range(0 if args.trace else SETUP_CHILDREN)]

        def run_pass(traced: bool) -> float:
            out_dir = out_root / f"pass{len(passes)}"
            out_dir.mkdir(parents=True, exist_ok=True)
            argvs = [op.argv(data_dir, out_dir) for op in wl.ops]
            res, elapsed = run_child(tmp, {"ops": argvs, "trace": traced}, env, deadline)
            setup.append(res["setup_s"])
            res["failures"] = check_pass(wl, res, out_dir, refs, args.scale, args.corrupt)
            res["wall_s"] = sum(rec["wall_s"] for rec in res["ops"])
            passes.append(res)
            return elapsed

        passes: list[dict] = []
        if args.trace:
            run_pass(False)
            run_pass(True)
            for op in wl.ops:
                name = f"{op.name}.json"
                if not _same_bytes(out_root / "pass0" / name, out_root / "pass1" / name):
                    passes[1]["failures"].setdefault(op.name, "traced output differs from untraced output")
        else:
            start = time.monotonic()
            last = run_pass(False)
            while time.monotonic() - start + last <= args.seconds:
                last = run_pass(False)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        metrics = {name: (value, unit(name)) for name, value in passes[1]["metrics"].items()}
        metrics["trace.overhead_s"] = (passes[1]["wall_s"] - passes[0]["wall_s"], "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    env_record = {**passes[0]["env"], "nproc": nproc, "commit": commit()}
    return {
        "workload": wl.name, "scale": args.scale, "seed": args.seed, "trace": args.trace,
        "env": env_record, "setup_samples": setup, "passes": passes,
        "missing_hooks": passes[-1].get("missing_hooks", []),
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def report(r: dict) -> None:
    print(f"{r['workload']}: seed {r['seed']}, {r['scale']} scale, {len(r['passes'])} pass(es), "
          f"trace {'on' if r['trace'] else 'off'}")
    for name, (value, unit) in r["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    rate = r["failed"] / r["attempted"]
    print(f"  {'error_rate':44s} {rate:14.6g} ({r['failed']} of {r['attempted']} CLI calls failed)")
    for i, p in enumerate(r["passes"]):
        for op, reason in p["failures"].items():
            print(f"  FAILED pass {i} {op}: {reason}")
    if r["missing_hooks"]:
        print(f"  missing hooks (their metrics are not reported): {', '.join(r['missing_hooks'])}")
    print("  env " + " ".join(f"{k}={v}" for k, v in r["env"].items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eppspulley" / "cli.py").is_file():
        print(f"error: no eppspulley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in W.WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            record = run(args, workload)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        RESULTS.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
        report(record)
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
