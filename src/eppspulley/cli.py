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
a header.  The sampling commands (eigen, table1, slope, table2, pvalue)
take --seed (default 42), and their output is byte-reproducible for fixed
flags and seed.  Exit codes: 0 success, 2 input or usage error, 3
degenerate data, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .alternatives import TABLE_FAMILIES, family_from_name  # noqa: F401 (perfbench hooks it)
from .bahadur import efficiency_table
from .quadrature import QuadratureConfig
from .spectral import null_pvalue, nystrom_spectrum
from .statistic import DegenerateSampleError, Sample, TuningParam, epps_pulley_statistic

DEFAULT_BETAS = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 5.0, 10.0)


class InputFileError(ValueError):
    """Unreadable or malformed data file, or unwritable output path."""


# exit code of each failure; the first matching class wins, and
# DegenerateSampleError is a ValueError
EXIT_CODES = {DegenerateSampleError: 3, ValueError: 2, ArithmeticError: 4, RuntimeError: 4}


def read_sample_file(path: str) -> np.ndarray:
    """Parse one float per line into a float64 array, naming the
    offending line on failure.

    The kept lines are parsed in one numpy call, which accepts exactly
    the strings float() accepts; only when it fails, or a value is not
    finite, are the lines walked again to name the first bad one.
    Lines are split on "\\n" alone (str.splitlines would also split on
    \\x0b, \\x0c and \\u2028 and shift the line numbers).  A leading UTF-8
    byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    kept = [text for text in map(str.strip, lines) if text and not text.startswith("#")]
    header = 0
    if kept:
        try:
            float(kept[0])
        except ValueError:
            del kept[0]
            header = 1
    try:
        values = np.array(kept, dtype=np.float64)
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    # walk the kept lines again, past the header, to name the first bad one
    numbered = enumerate(map(str.strip, lines), start=1)
    data = ((lineno, text) for lineno, text in numbered if text and not text.startswith("#"))
    for lineno, text in itertools.islice(data, header, None):
        try:
            value = float(text)
        except ValueError:
            raise InputFileError(f"{path}: line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise InputFileError(f"{path}: line {lineno}: non-finite value: {text!r}")
    raise AssertionError("numpy rejected a file that float() accepts")


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


def _emit(record: dict, rows: list | None, args) -> None:
    """Write a report: the record as JSON, or as CSV the rows, which
    default to a header row of the record's keys and one row of its
    values."""
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    else:
        if rows is None:
            rows = [record.keys(), record.values()]
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFileError(f"cannot write {args.out}: {exc}") from exc


def cmd_stat(args):
    sample = Sample(read_sample_file(args.input))
    value = epps_pulley_statistic(sample, TuningParam(args.beta))
    return {"n": sample.n, "beta": args.beta, "statistic": value}, None


def cmd_eigen(args):
    spectra = [nystrom_spectrum(TuningParam(b), args.n_points, args.runs, args.seed, args.top_m)
               for b in args.beta]
    record = {
        "betas": list(args.beta),
        "n_points": args.n_points,
        "runs": args.runs,
        "seed": args.seed,
        "top_m": args.top_m,
        "eigenvalues": [list(map(float, sp.eigenvalues)) for sp in spectra],
        "trace_estimates": [sp.trace_estimate for sp in spectra],
    }
    ranks = enumerate(zip(*record["eigenvalues"]), start=1)
    return record, [["rank", *record["betas"]], *([rank, *row] for rank, row in ranks)]


def _efficiencies(args, families, betas):
    """efficiency_table at the protocol and quadrature flags in args."""
    cfg = QuadratureConfig(truncation_radius=args.radius, abs_tol=args.abs_tol,
                           rel_tol=args.rel_tol, max_subdivisions=args.max_subdivisions)
    return efficiency_table(families, betas, n_points=args.n_points, runs=args.runs,
                            seed=args.seed, cfg=cfg)


def cmd_slope(args):
    table = _efficiencies(args, [args.alt], [args.beta])
    record = {
        "family": table.families[0],
        "beta": table.betas[0],
        "delta_beta": float(table.delta_beta[0, 0]),
        "lambda1": float(table.lambda1[0]),
        "local_index": float(table.local_index[0, 0]),
        "lrt_index": float(table.lrt_index[0]),
        "efficiency": float(table.efficiencies[0, 0]),
        "n_points": table.n_points,
        "runs": table.runs,
        "seed": table.seed,
    }
    return record, None


def cmd_table2(args):
    families = [args.alt] if args.alt else list(TABLE_FAMILIES)
    table = _efficiencies(args, families, args.beta or DEFAULT_BETAS)
    record = {
        "families": list(table.families),
        "betas": list(table.betas),
        "efficiency": [list(map(float, row)) for row in table.efficiencies],
        "n_points": table.n_points,
        "runs": table.runs,
        "seed": table.seed,
    }
    cells = zip(record["families"], record["efficiency"])
    return record, [["alternative", *record["betas"]], *([name, *row] for name, row in cells)]


def cmd_pvalue(args):
    record, _ = cmd_stat(args)
    spectrum = nystrom_spectrum(TuningParam(args.beta), args.n_points, args.runs, args.seed,
                                args.top_m)
    pvalue = null_pvalue(record["statistic"], spectrum, mc_samples=args.mc_samples,
                         seed=args.seed)
    record.update(p_value=pvalue, mc_samples=args.mc_samples, top_m=args.top_m,
                  n_points=args.n_points, runs=args.runs, seed=args.seed)
    return record, None


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_protocol(parser) -> None:
    parser.add_argument("--n-points", type=_positive_int, default=1000,
                        help="sample nodes per spectrum run (min 100)")
    parser.add_argument("--runs", type=_positive_int, default=10)
    parser.add_argument("--seed", type=int, default=42)


def _add_quadrature(parser) -> None:
    defaults = QuadratureConfig()
    parser.add_argument("--radius", type=_positive_float, default=defaults.truncation_radius,
                        help="truncation radius in Gaussian standard units")
    parser.add_argument("--abs-tol", type=_positive_float, default=defaults.abs_tol)
    parser.add_argument("--rel-tol", type=_positive_float, default=defaults.rel_tol)
    parser.add_argument("--max-subdivisions", type=_positive_int,
                        default=defaults.max_subdivisions,
                        help="most panels per axis the quadrature may refine to")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eppspulley", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stat", help="statistic for a data file")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("eigen", help="spectrum estimates for a list of betas")
    p.add_argument("--beta", type=_beta_list, default=DEFAULT_BETAS,
                   help="comma separated list of positive betas")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("table1", help="eigen at the reference protocol and beta grid")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eigen, beta=DEFAULT_BETAS)

    p = sub.add_parser("slope", help="slope report for one alternative")
    p.add_argument("--alt", required=True,
                   help="lehmann, lp1, lp2 or contam:MU:SIGMA2")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_protocol(p)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("table2", help="efficiency grid for the six alternatives")
    p.add_argument("--alt", default=None, help="restrict to one alternative")
    p.add_argument("--beta", type=_beta_list, default=None,
                   help="comma separated list of positive betas")
    _add_protocol(p)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("pvalue", help="statistic and Monte-Carlo p-value")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--mc-samples", type=_positive_int, default=100_000)
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_pvalue)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record, rows = args.func(args)
        _emit(record, rows, args)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
