"""Command line interface.

Subcommands:

  stat    statistic for a data file
  eigen   spectrum estimates for a list of betas
  table1  eigen with the reference protocol and beta grid
  slope   slope report for one alternative and one beta
  table2  efficiency grid over the six alternatives and the beta grid
  pvalue  statistic plus Monte-Carlo p-value from the truncated limit law

Data files hold one observation per line; blank lines and lines starting
with '#' are skipped, and a single non-numeric first line is treated as
a header.  Exit codes: 0 success, 2 input or usage error, 3 degenerate
data, 4 numerical failure.  The environment variable EP_SEED overrides
the default seed (42); an explicit --seed wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .alternatives import TABLE_FAMILIES, family_from_name
from .bahadur import efficiency_table, slope_report
from .quadrature import QuadratureConfig, QuadratureError
from .spectral import null_pvalue, nystrom_spectrum
from .statistic import DegenerateSampleError, Sample, TuningParam, epps_pulley_statistic

DEFAULT_BETAS = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 5.0, 10.0)


class InputFileError(Exception):
    """Unreadable or malformed data file, or unwritable output path."""


def _default_seed() -> int:
    raw = os.environ.get("EP_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise InputFileError(f"EP_SEED must be an integer, got {raw!r}") from None


def read_sample_file(path: str) -> list[float]:
    """Parse one float per line, naming the offending line on failure.

    The kept lines are parsed in one numpy call, which accepts exactly
    the strings float() accepts; a line that fails it, or a non-finite
    value, sends the file through the per-line loop that names the line.
    Lines are split on "\\n" alone (str.splitlines would also split on
    \\x0b, \\x0c and \\u2028 and shift the line numbers)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    kept = [text for text in map(str.strip, lines) if text and not text.startswith("#")]
    if kept:
        try:
            float(kept[0])
        except ValueError:
            del kept[0]  # header line
    try:
        values = np.array(kept, dtype=np.float64)
        if np.all(np.isfinite(values)):
            return values.tolist()
    except ValueError:
        pass
    return _read_lines(path, lines)


def _read_lines(path: str, lines: list[str]) -> list[float]:
    """The per-line parse of read_sample_file, which names the bad line."""
    values: list[float] = []
    seen_data = False
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            if not seen_data and not values:
                seen_data = True  # header line
                continue
            raise InputFileError(f"{path}: line {lineno}: not a number: {text!r}") from None
        if not np.isfinite(value):
            raise InputFileError(f"{path}: line {lineno}: non-finite value: {text!r}")
        seen_data = True
        values.append(value)
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _beta_list(text: str) -> tuple[float, ...]:
    try:
        betas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad beta list: {text!r}") from None
    if not betas or any(b <= 0.0 for b in betas):
        raise argparse.ArgumentTypeError(f"beta list must hold positive reals: {text!r}")
    return betas


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFileError(f"cannot write {out}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_row(cells) -> str:
    return ",".join(str(c) for c in cells) + "\n"


def _quadrature_config(args) -> QuadratureConfig:
    return QuadratureConfig(
        truncation_radius=args.radius,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        max_subdivisions=args.max_subdivisions,
    )


def cmd_stat(args) -> int:
    sample = Sample(read_sample_file(args.input))
    value = epps_pulley_statistic(sample, TuningParam(args.beta))
    report = {"n": sample.n, "beta": args.beta, "statistic": value}
    if args.format == "json":
        _emit(_json_text(report), args.out)
    else:
        _emit(_csv_row(report.keys()) + _csv_row(report.values()), args.out)
    return 0


def _spectrum_table(args, betas) -> int:
    spectra = [nystrom_spectrum(TuningParam(b), args.n_points, args.runs, args.seed, args.top_m)
               for b in betas]
    if args.format == "json":
        report = {
            "betas": list(betas),
            "n_points": args.n_points,
            "runs": args.runs,
            "seed": args.seed,
            "top_m": args.top_m,
            "eigenvalues": [list(map(float, sp.eigenvalues)) for sp in spectra],
            "trace_estimates": [sp.trace_estimate for sp in spectra],
        }
        _emit(_json_text(report), args.out)
    else:
        lines = [_csv_row(["rank", *betas])]
        for rank in range(args.top_m):
            lines.append(_csv_row([rank + 1, *(float(sp.eigenvalues[rank]) for sp in spectra)]))
        _emit("".join(lines), args.out)
    return 0


def cmd_eigen(args) -> int:
    return _spectrum_table(args, args.beta)


def cmd_table1(args) -> int:
    return _spectrum_table(args, DEFAULT_BETAS)


def cmd_slope(args) -> int:
    family = family_from_name(args.alt)
    report = slope_report(
        family,
        TuningParam(args.beta),
        n_points=args.n_points,
        runs=args.runs,
        seed=args.seed,
        cfg=_quadrature_config(args),
    )
    payload = {
        "family": report.family,
        "beta": report.beta,
        "delta_beta": report.delta_beta,
        "lambda1": report.lambda1,
        "local_index": report.local_index,
        "lrt_index": report.lrt_index,
        "efficiency": report.efficiency,
        "n_points": report.n_points,
        "runs": report.runs,
        "seed": report.seed,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_row(payload.keys()) + _csv_row(payload.values()), args.out)
    return 0


def cmd_table2(args) -> int:
    families = [args.alt] if args.alt else list(TABLE_FAMILIES)
    betas = args.beta if args.beta else DEFAULT_BETAS
    for name in families:
        family_from_name(name)  # validate before the long run
    table = efficiency_table(
        families,
        betas,
        n_points=args.n_points,
        runs=args.runs,
        seed=args.seed,
        cfg=_quadrature_config(args),
    )
    if args.format == "json":
        report = {
            "families": list(table.families),
            "betas": list(table.betas),
            "efficiency": [list(map(float, row)) for row in table.efficiencies],
            "n_points": table.n_points,
            "runs": table.runs,
            "seed": table.seed,
        }
        _emit(_json_text(report), args.out)
    else:
        lines = [_csv_row(["alternative", *table.betas])]
        for name, row in zip(table.families, table.efficiencies):
            lines.append(_csv_row([name, *map(float, row)]))
        _emit("".join(lines), args.out)
    return 0


def cmd_pvalue(args) -> int:
    sample = Sample(read_sample_file(args.input))
    tp = TuningParam(args.beta)
    statistic = epps_pulley_statistic(sample, tp)
    spectrum = nystrom_spectrum(tp, args.n_points, args.runs, args.seed, args.top_m)
    pvalue = null_pvalue(statistic, spectrum, mc_samples=args.mc_samples, seed=args.seed)
    report = {
        "n": sample.n,
        "beta": args.beta,
        "statistic": statistic,
        "p_value": pvalue,
        "mc_samples": args.mc_samples,
        "top_m": args.top_m,
        "n_points": args.n_points,
        "runs": args.runs,
        "seed": args.seed,
    }
    if args.format == "json":
        _emit(_json_text(report), args.out)
    else:
        _emit(_csv_row(report.keys()) + _csv_row(report.values()), args.out)
    return 0


def _add_common(parser, seed) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--seed", type=int, default=seed)


def _add_protocol(parser) -> None:
    parser.add_argument("--n-points", type=_positive_int, default=1000,
                        help="sample nodes per spectrum run (min 100)")
    parser.add_argument("--runs", type=_positive_int, default=10)


def _add_quadrature(parser) -> None:
    parser.add_argument("--radius", type=_positive_float, default=12.0,
                        help="truncation radius in Gaussian standard units")
    parser.add_argument("--abs-tol", type=_positive_float, default=1e-10)
    parser.add_argument("--rel-tol", type=_positive_float, default=1e-10)
    parser.add_argument("--max-subdivisions", type=_positive_int, default=2000,
                        help="most panels per axis the quadrature may refine to")


def build_parser(seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eppspulley", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stat", help="statistic for a data file")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_common(p, seed)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("eigen", help="spectrum estimates for a list of betas")
    p.add_argument("--beta", type=_beta_list, default=DEFAULT_BETAS,
                   help="comma separated list of positive betas")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p, seed)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("table1", help="eigen at the reference protocol and beta grid")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p, seed)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("slope", help="slope report for one alternative")
    p.add_argument("--alt", required=True,
                   help="lehmann, lp1, lp2 or contam:MU:SIGMA2")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_protocol(p)
    _add_quadrature(p)
    _add_common(p, seed)
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("table2", help="efficiency grid for the six alternatives")
    p.add_argument("--alt", default=None, help="restrict to one alternative")
    p.add_argument("--beta", type=_beta_list, default=None,
                   help="comma separated list of positive betas")
    _add_protocol(p)
    _add_quadrature(p)
    _add_common(p, seed)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("pvalue", help="statistic and Monte-Carlo p-value")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--mc-samples", type=_positive_int, default=100_000)
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p, seed)
    p.set_defaults(func=cmd_pvalue)

    return parser


def main(argv=None) -> int:
    try:
        seed = _default_seed()
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(seed)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
