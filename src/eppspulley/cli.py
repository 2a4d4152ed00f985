"""Command line interface.

Subcommands:

  stat    statistic for a data file
  eigen   the operator's top eigenvalues for a list of betas
  table1  eigen at the paper's beta grid
  slope   slope report for one alternative and one beta
  table2  efficiency grid over the six alternatives and the beta grid
  pvalue  statistic plus Monte-Carlo p-value from the truncated limit law
          of the operator's top eigenvalues

Data files hold one observation per line; blank lines and lines starting
with '#' are skipped, and a single non-numeric first line is treated as
a header.  A data file is read in fixed blocks of characters, each
completed to the end of its last line, so reading it takes memory for
one block plus twice the values, whatever its size, and its errors are
reported in file order, block by block.  Every command computes the
operator's spectrum in closed form and samples none of it; pvalue takes
--seed (default 42) and --mc-samples for its Monte-Carlo draws, and its
output is byte-reproducible for fixed flags and seed.  The spectral
sampling protocol's flags are still accepted, hidden from --help, and
ignored with one line on stderr: --n-points and --runs by pvalue, and
--n-points, --runs and --seed by eigen, table1, slope and table2.  No
output depends on the BLAS thread count.  Exit codes: 0 success, 2
input or usage error, 3 degenerate data, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .alternatives import TABLE_FAMILIES
from .bahadur import efficiency_table
from .quadrature import QuadratureConfig
from .spectral import null_pvalue, operator_spectrum
from .statistic import DegenerateSampleError, Sample, TuningParam, epps_pulley_statistic

DEFAULT_BETAS = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 5.0, 10.0)


class InputFileError(ValueError):
    """Unreadable or malformed data file, or unwritable output path."""


# exit code of each failure; the first matching class wins, and
# DegenerateSampleError is a ValueError
EXIT_CODES = {DegenerateSampleError: 3, ValueError: 2, ArithmeticError: 4, RuntimeError: 4}


# characters read from a data file per block
_READ_BLOCK = 1 << 16


def _block_values(lines, hashed, offset, header_open, path):
    """The values of a block of lines, and whether a header may still
    follow.  `offset` is the number of lines before the block;
    `header_open` is true while no kept line has been seen.

    Unless a line is empty or `hashed` says a "#" may occur, the lines
    are parsed in one numpy call, which accepts exactly the strings
    float() accepts: a block it takes holds no blank line, comment or
    header.  Otherwise, or when it fails, the kept lines are stripped
    into one list, a non-numeric first kept line of the file is dropped
    as a header, and the rest are parsed in one numpy call; on failure
    the block is walked again to name the first bad line."""
    if all(lines) and not hashed:
        try:
            values = np.array(lines, dtype=np.float64)
            if np.all(np.isfinite(values)):
                return values, False
        except ValueError:
            pass
    kept = [text for text in map(str.strip, lines) if text and not text.startswith("#")]
    header = 0
    if header_open and kept:
        header_open = False
        try:
            float(kept[0])
        except ValueError:
            del kept[0]
            header = 1
    try:
        values = np.array(kept, dtype=np.float64)
        if np.all(np.isfinite(values)):
            return values, header_open
    except ValueError:
        pass
    # walk the kept lines again, past the header, to name the first bad one
    numbered = enumerate(map(str.strip, lines), start=offset + 1)
    data = ((lineno, text) for lineno, text in numbered if text and not text.startswith("#"))
    for lineno, text in itertools.islice(data, header, None):
        try:
            value = float(text)
        except ValueError:
            raise InputFileError(f"{path}: line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise InputFileError(f"{path}: line {lineno}: non-finite value: {text!r}")
    raise AssertionError("numpy rejected a block that float() accepts")


def read_sample_file(path: str) -> np.ndarray:
    """Parse one float per line into a float64 array, naming the
    offending line on failure.

    The file is read in blocks of _READ_BLOCK characters, each completed
    to the end of its last line, and the lines of a block are parsed
    together (_block_values), so working memory is one block plus twice
    the result, whatever the file's size.
    Errors come in the order of the blocks: a bad line is reported before
    an undecodable byte in a later block.  Lines are split on "\\n" alone
    (str.splitlines would also split on \\x0b, \\x0c and \\u2028 and shift
    the line numbers).  A leading UTF-8 byte-order mark is dropped."""
    parts = [np.empty(0)]  # so that an empty file concatenates
    lineno = 0  # lines before the current block
    header_open = True
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            while text := fh.read(_READ_BLOCK):
                text += fh.readline()
                lines = text.removesuffix("\n").split("\n")
                values, header_open = _block_values(lines, "#" in text, lineno, header_open, path)
                parts.append(values)
                lineno += len(lines)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    return np.concatenate(parts)


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
    spectra = [operator_spectrum(TuningParam(b), args.top_m) for b in args.beta]
    record = {
        "betas": list(args.beta),
        "top_m": args.top_m,
        "eigenvalues": [list(map(float, sp.eigenvalues)) for sp in spectra],
        "spectrum_method": [sp.method for sp in spectra],
        "basis_size": [sp.basis_size for sp in spectra],
        "spectrum_bound": [sp.bound for sp in spectra],
        "trace": [sp.trace for sp in spectra],
    }
    ranks = enumerate(zip(*record["eigenvalues"]), start=1)
    return record, [["rank", *record["betas"]], *([rank, *row] for rank, row in ranks)]


def _efficiencies(args, families, betas):
    """efficiency_table at the quadrature flags in args, and its
    spectrum fields for the record: per beta, the route, basis size and
    bound of lambda1."""
    cfg = QuadratureConfig(truncation_radius=args.radius, tol=args.tol,
                           max_subdivisions=args.max_subdivisions)
    table = efficiency_table(families, betas, cfg=cfg)
    methods, sizes, bounds = zip(*table.truncations)
    return table, {"spectrum_method": list(methods), "basis_size": list(sizes),
                   "spectrum_bound": list(bounds)}


def cmd_slope(args):
    table, spectrum = _efficiencies(args, [args.alt], [args.beta])
    record = {
        "family": table.families[0],
        "beta": table.betas[0],
        "delta_beta": float(table.delta_beta[0, 0]),
        "lambda1": float(table.lambda1[0]),
        "local_index": float(table.local_index[0, 0]),
        "lrt_index": float(table.lrt_index[0]),
        "efficiency": float(table.efficiencies[0, 0]),
        **{key: values[0] for key, values in spectrum.items()},
    }
    return record, None


def cmd_table2(args):
    families = [args.alt] if args.alt else list(TABLE_FAMILIES)
    table, spectrum = _efficiencies(args, families, args.beta or DEFAULT_BETAS)
    record = {
        "families": list(table.families),
        "betas": list(table.betas),
        "efficiency": [list(map(float, row)) for row in table.efficiencies],
        **spectrum,
    }
    cells = zip(record["families"], record["efficiency"])
    return record, [["alternative", *record["betas"]], *([name, *row] for name, row in cells)]


def cmd_pvalue(args):
    record, _ = cmd_stat(args)
    spectrum = operator_spectrum(TuningParam(args.beta), args.top_m)
    pvalue = null_pvalue(record["statistic"], spectrum, mc_samples=args.mc_samples,
                         seed=args.seed)
    record.update(p_value=pvalue, mc_samples=args.mc_samples, top_m=args.top_m,
                  seed=args.seed, spectrum_method=spectrum.method,
                  basis_size=spectrum.basis_size, spectrum_bound=spectrum.bound)
    return record, None


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


class _Ignored(argparse.Action):
    """Accept a flag of the sampling protocol, whatever its value, and
    record its name in args.ignored."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.ignored = (*namespace.ignored, option_string)


def _add_ignored_protocol(parser, flags=("--n-points", "--runs", "--seed")) -> None:
    """The flags of the spectral sampling protocol, hidden from --help,
    for commands that no longer sample the spectrum; main names the
    given ones on stderr."""
    for flag in flags:
        parser.add_argument(flag, action=_Ignored, dest="ignored", default=(),
                            help=argparse.SUPPRESS)


def _add_quadrature(parser) -> None:
    defaults = QuadratureConfig()
    parser.add_argument("--radius", type=_positive_float, default=defaults.truncation_radius,
                        help="truncation radius in Gaussian standard units")
    parser.add_argument("--tol", type=_positive_float, default=defaults.tol,
                        help="quadrature tolerance, relative where |value| > 1")
    parser.add_argument("--max-subdivisions", type=_positive_int,
                        default=defaults.max_subdivisions,
                        help="most panels per axis the quadrature may refine to")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(prog="eppspulley", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stat", help="statistic for a data file")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("eigen", help="the operator's top eigenvalues for a list of betas")
    p.add_argument("--beta", type=_beta_list, default=DEFAULT_BETAS,
                   help="comma separated list of positive betas")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_ignored_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("table1", help="eigen at the paper's beta grid")
    p.add_argument("--top-m", type=_positive_int, default=5)
    _add_ignored_protocol(p)
    _add_common(p)
    p.set_defaults(func=cmd_eigen, beta=DEFAULT_BETAS)

    p = sub.add_parser("slope", help="slope report for one alternative")
    p.add_argument("--alt", required=True,
                   help="lehmann, lp1, lp2 or contam:MU:SIGMA2")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    _add_ignored_protocol(p)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("table2", help="efficiency grid for the six alternatives")
    p.add_argument("--alt", default=None, help="restrict to one alternative")
    p.add_argument("--beta", type=_beta_list, default=None,
                   help="comma separated list of positive betas")
    _add_ignored_protocol(p)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("pvalue", help="statistic and Monte-Carlo p-value")
    p.add_argument("input")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--mc-samples", type=_positive_int, default=100_000)
    p.add_argument("--top-m", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=42)
    _add_ignored_protocol(p, ("--n-points", "--runs"))
    _add_common(p)
    p.set_defaults(func=cmd_pvalue)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "ignored", ()):
        flags = ", ".join(dict.fromkeys(args.ignored))
        print(f"warning: {args.subcommand} ignores {flags}: it computes the operator's "
              "spectrum in closed form and does not sample it", file=sys.stderr)
    try:
        record, rows = args.func(args)
        _emit(record, rows, args)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
