"""CLI behavior: parsing, exit codes, output formats, reproducibility;
the streaming data-file reader against the whole-file reader it
replaced."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import eppspulley
from eppspulley import cli, spectral
from eppspulley.cli import main, read_sample_file
from eppspulley.spectral import null_pvalue, nystrom_spectrum, operator_spectrum, operator_trace
from eppspulley.statistic import Sample, TuningParam, epps_pulley_statistic, scaled_residuals


@pytest.fixture()
def datafile(tmp_path):
    def write(content, name="data.txt"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli_stdout(*argv, **environ):
    """Standard output of the CLI run in a new interpreter, with the
    given environment variables set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eppspulley.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **environ)
    return subprocess.run([sys.executable, "-m", "eppspulley.cli", *argv], env=env,
                          capture_output=True, timeout=60, check=True).stdout


def _whole_file_reader(path: str) -> np.ndarray:
    """The slow oracle of read_sample_file: the whole file is read and
    split, the kept lines are stripped into one list, a non-numeric first
    kept line is dropped as a header, and the rest are parsed in one
    numpy call; on failure the lines are walked again to name the first
    bad one.  An undecodable byte anywhere wins over a bad line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.InputFileError(f"cannot read {path}: {exc}") from exc
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
    numbered = enumerate(map(str.strip, lines), start=1)
    data = ((lineno, text) for lineno, text in numbered if text and not text.startswith("#"))
    for lineno, text in itertools.islice(data, header, None):
        try:
            value = float(text)
        except ValueError:
            raise cli.InputFileError(f"{path}: line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise cli.InputFileError(f"{path}: line {lineno}: non-finite value: {text!r}")
    raise AssertionError("numpy rejected a file that float() accepts")


# line tokens of the randomized files: numbers float() takes in unusual
# spellings, lines the reader skips, and lines that are a header or an error
_ODD_NUMBERS = ("1_0", "\u0661\u0662", "\x0c2\x0b", "+7")
_SKIPPED = ("", "   ", "# c", " #x", " ")
_BAD = ("value", "abc", "1 2", "0x10", "1d3", "nan", "infinity", "1e400")


def _random_data_file(rng) -> bytes:
    """A short data file of random tokens, with \\n, \\r\\n or \\r line
    endings, with or without a byte-order mark and a final newline."""
    bad_rate = (0.0, 0.02, 0.1)[rng.integers(3)]
    tokens = ["value"] if rng.random() < 0.3 else []
    for _ in range(rng.integers(0, 40)):
        u = rng.random()
        if u < bad_rate:
            tokens.append(_BAD[rng.integers(len(_BAD))])
        elif u < bad_rate + 0.15:
            tokens.append(_SKIPPED[rng.integers(len(_SKIPPED))])
        elif u < bad_rate + 0.25:
            tokens.append(_ODD_NUMBERS[rng.integers(len(_ODD_NUMBERS))])
        else:
            tokens.append(repr(float(rng.standard_normal())))
    newline = ("\n", "\r\n", "\r")[rng.integers(3)]
    text = newline.join(tokens) + (newline if rng.random() < 0.5 else "")
    bom = "\ufeff" if rng.random() < 0.3 else ""
    return (bom + text).encode("utf-8")


def _outcome(reader, path):
    """The values a reader returns, or the type and message it raises."""
    try:
        values = reader(path)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)
    assert values.dtype == np.float64
    return values.tolist()


class TestReadSampleFile:
    def test_plain_values(self, datafile):
        values = read_sample_file(datafile("1.5\n-2\n3e-1\n"))
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64
        assert values.tolist() == [1.5, -2.0, 0.3]

    def test_comments_and_blanks_skipped(self, datafile):
        path = datafile("# a comment\n\n1\n\n# another\n2\n")
        assert read_sample_file(path).tolist() == [1.0, 2.0]

    def test_header_autodetected(self, datafile):
        assert read_sample_file(datafile("value\n1\n2\n")).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("text, expected", [
        ("\ufeff1.5\n2.5\n-0.5\n4\n", [1.5, 2.5, -0.5, 4.0]),
        ("\ufeffvalue\n1\n2\n", [1.0, 2.0]),
    ], ids=["numeric_first_line", "header"])
    def test_byte_order_mark_dropped(self, datafile, text, expected):
        assert read_sample_file(datafile(text)).tolist() == expected

    def test_bad_line_names_line_number(self, datafile):
        from eppspulley.cli import InputFileError

        path = datafile("1\n2\n\nabc\n4\n")
        with pytest.raises(InputFileError, match="line 4"):
            read_sample_file(path)

    def test_nonfinite_rejected(self, datafile):
        from eppspulley.cli import InputFileError

        with pytest.raises(InputFileError, match="line 2"):
            read_sample_file(datafile("1\nnan\n3\n"))

    def test_accepts_what_float_accepts(self, datafile):
        path = datafile("value\n1_0\n \u0661\u0662 \n# c\n\n3e-1\n")
        assert read_sample_file(path).tolist() == [10.0, 12.0, 0.3]

    @pytest.mark.parametrize("text, line", [
        ("1\n0x10\n", "line 2: not a number"),
        ("1\n2\n1d3\n", "line 3: not a number"),
        ("1\ninfinity\n", "line 2: non-finite"),
        ("1\n1e400\n", "line 2: non-finite"),
        # \x0b, \x0c and \u2028 do not end a line (str.splitlines would
        # split there and shift the line number)
        ("1\n\x0c2\x0b\n\u2028\nabc\n", "line 4: not a number"),
        # a header before the bad line
        ("value\n# c\n\n1\nabc\n", "line 5: not a number"),
        ("x\n1\nnan\n", "line 3: non-finite"),
    ])
    def test_rejected_line_named(self, datafile, text, line):
        from eppspulley.cli import InputFileError

        with pytest.raises(InputFileError, match=line):
            read_sample_file(datafile(text))

    def test_long_file_round_trips(self, datafile):
        values = np.random.default_rng(5).standard_normal(20_000).tolist()
        path = datafile("x\n" + "\n".join(map(repr, values)) + "\n")
        assert read_sample_file(path).tolist() == values

    def test_non_utf8_names_path(self, tmp_path, capsys):
        from eppspulley.cli import InputFileError

        path = tmp_path / "latin1.txt"
        path.write_bytes("1\n2\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(InputFileError, match="latin1.txt"):
            read_sample_file(str(path))
        code, _, err = run_cli(capsys, "stat", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("block", [None, 1, 5, 13])
    def test_matches_whole_file_reader(self, tmp_path, monkeypatch, block):
        # blocks of 1, 5 and 13 characters end inside lines, inside the
        # byte-order mark and between \r and \n
        if block is not None:
            monkeypatch.setattr(cli, "_READ_BLOCK", block)
        rng = np.random.default_rng(2022)
        path = tmp_path / "data.txt"
        for _ in range(400):
            path.write_bytes(_random_data_file(rng))
            assert _outcome(read_sample_file, str(path)) == _outcome(_whole_file_reader, str(path))

    @pytest.fixture()
    def numpy_parses(self, monkeypatch):
        """The number of lines in each numpy parse the reader makes."""
        parses = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, lines, *args, **kwargs):
                parses.append(len(lines))
                return np.array(lines, *args, **kwargs)

        monkeypatch.setattr(cli, "np", CountingNumpy())
        return parses

    @pytest.mark.parametrize("text, values, parsed", [
        ("1\n2\n\n3\n# c\n4\n", [1.0, 2.0, 3.0, 4.0], [4]),
        ("1\n2\n3\n", [1.0, 2.0, 3.0], [3]),
    ])
    def test_each_block_is_parsed_once(self, datafile, numpy_parses, text, values, parsed):
        # a block with a blank or "#" line goes straight to the filtered parse
        assert read_sample_file(datafile(text)).tolist() == values
        assert numpy_parses == parsed

    def test_each_small_block_is_parsed_once(self, datafile, numpy_parses, monkeypatch):
        # blocks of 3 characters completed to their line ends: "1\n# c\n",
        # "2\n3\n" and "4\n"
        monkeypatch.setattr(cli, "_READ_BLOCK", 3)
        assert read_sample_file(datafile("1\n# c\n2\n3\n4\n")).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert numpy_parses == [1, 2, 1]

    def test_working_memory_is_bounded(self, datafile):
        n = 200_000
        values = np.random.default_rng(6).standard_normal(n).tolist()
        path = datafile("\n".join(map(repr, values)) + "\n")
        tracemalloc.start()
        try:
            result = read_sample_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.tolist() == values
        # the blocks' arrays and their concatenation, plus one block
        assert peak <= 2 * 8 * n + 2 * 2**20

    def test_undecodable_byte_past_first_block(self, tmp_path, capsys, monkeypatch):
        # the text layer decodes 8 KiB at a time, so the byte lies past the
        # bytes the first blocks decode
        monkeypatch.setattr(cli, "_READ_BLOCK", 16)
        path = tmp_path / "late.txt"
        path.write_bytes(b"1\n2\n" * 5000 + "# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(cli.InputFileError, match="late.txt"):
            read_sample_file(str(path))
        code, _, err = run_cli(capsys, "stat", str(path))
        assert code == 2
        assert str(path) in err

    def test_bad_line_before_undecodable_byte_is_named(self, tmp_path, monkeypatch):
        # the whole-file reader reported the undecodable byte instead; the
        # byte lies past the first 8 KiB, which the text layer decodes at once
        monkeypatch.setattr(cli, "_READ_BLOCK", 16)
        path = tmp_path / "both.txt"
        path.write_bytes(b"1\nabc\n" + b"2\n" * 5000 + "# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(cli.InputFileError, match="line 2: not a number: 'abc'"):
            read_sample_file(str(path))
        with pytest.raises(cli.InputFileError, match="cannot read"):
            _whole_file_reader(str(path))

    def test_line_longer_than_a_block_is_joined_once(self, datafile, monkeypatch):
        # 62500 pieces of 16 characters; joining the carry at every piece
        # would copy about 3e10 characters
        monkeypatch.setattr(cli, "_READ_BLOCK", 16)
        path = datafile("9" * 1_000_000 + "\n")
        start = time.perf_counter()
        with pytest.raises(cli.InputFileError, match="line 1: non-finite value"):
            read_sample_file(path)
        assert time.perf_counter() - start < 1.0


class TestStatCommand:
    def test_matches_library(self, capsys, datafile):
        path = datafile("-1\n0\n1\n")
        code, out, _ = run_cli(capsys, "stat", path, "--beta", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,beta,statistic"
        n, beta, stat = row.split(",")
        expected = epps_pulley_statistic(Sample([-1.0, 0.0, 1.0]), TuningParam(1.0))
        assert (int(n), float(beta)) == (3, 1.0)
        assert float(stat) == expected

    def test_json_round_trip(self, capsys, datafile):
        path = datafile("0.3\n1.2\n-0.5\n2.2\n")
        code, out, _ = run_cli(capsys, "stat", path, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        expected = epps_pulley_statistic(Sample([0.3, 1.2, -0.5, 2.2]), TuningParam(1.0))
        assert report == {"n": 4, "beta": 1.0, "statistic": expected}

    def test_single_value_is_degenerate(self, capsys, datafile):
        code, _, err = run_cli(capsys, "stat", datafile("7\n"))
        assert code == 3
        assert "degenerate" in err

    @pytest.mark.parametrize("text", ["", "\n", "# c\n\n"], ids=["empty", "newline", "comment"])
    def test_no_values_is_degenerate(self, capsys, datafile, text):
        code, _, err = run_cli(capsys, "stat", datafile(text))
        assert code == 3
        assert "degenerate sample" in err

    def test_constant_sample_is_degenerate(self, capsys, datafile):
        # the mean of three 0.1s rounds away from 0.1
        for text in ("5\n5\n5\n", "0.1\n0.1\n0.1\n"):
            code, _, _ = run_cli(capsys, "stat", datafile(text))
            assert code == 3

    @pytest.mark.parametrize("text, unit", [
        ("1.7e308\n1.7e308\n-1.7e308\n", [1.0, 1.0, -1.0]),
        ("1e200\n-1e200\n0\n", [1.0, -1.0, 0.0]),
        ("1e-200\n-1e-200\n0\n", [1.0, -1.0, 0.0]),
    ], ids=["mean_overflows", "variance_overflows", "variance_underflows"])
    def test_extreme_magnitudes_match_unit_scale(self, capsys, datafile, text, unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "stat", datafile(text), "--format", "json")
        assert code == 0
        expected = epps_pulley_statistic(Sample(unit), TuningParam(1.0))
        assert abs(json.loads(out)["statistic"] - expected) <= 1e-14 * len(unit)

    def test_parse_failure_reports_line(self, capsys, datafile):
        code, _, err = run_cli(capsys, "stat", datafile("1\n2\n3\nabc\n"))
        assert code == 2
        assert "line 4" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stat", "/no/such/file.txt")
        assert code == 2

    def test_nonpositive_beta_is_usage_error(self, capsys, datafile):
        with pytest.raises(SystemExit) as excinfo:
            main(["stat", datafile("1\n2\n4\n"), "--beta", "0"])
        assert excinfo.value.code == 2
        assert "--beta" in capsys.readouterr().err

    def test_beta_beyond_the_box_grid_is_named(self, capsys, datafile):
        values = np.random.default_rng(7).standard_normal(200)
        path = datafile("\n".join(map(repr, values.tolist())) + "\n")
        y = scaled_residuals(Sample(values))
        largest = math.sqrt(2.0) * eppspulley.backend.MAX_SPREAD / (y.max() - y.min())
        assert 1e12 < largest < 1e15
        assert run_cli(capsys, "stat", path, "--beta", "1e12")[0] == 0
        for command in ("stat", "pvalue"):
            code, out, err = run_cli(capsys, command, path, "--beta", "1e15")
            assert (code, out) == (2, "")
            assert "beta=1e+15" in err
            assert f"{largest:.4g}" in err

    def test_negative_statistic_is_numerical_failure(self, capsys, datafile, monkeypatch):
        monkeypatch.setattr(eppspulley.backend, "pairwise_gauss_sum", lambda y, gamma: 0.0)
        code, out, err = run_cli(capsys, "stat", datafile("1\n2\n4\n"))
        assert (code, out) == (4, "")
        assert "statistic evaluated to" in err


class TestEigenCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--beta", "0.5,1", "--top-m", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,0.5,1.0"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > float(lines[2].split(",")[1])  # descending ranks

    def test_byte_reproducible(self):
        # the sampled protocol, which eigen ran until it printed the
        # operator's spectrum
        args = (TuningParam(1.0), 150, 1, 9)
        out1 = nystrom_spectrum(*args).eigenvalues.tobytes()
        out2 = nystrom_spectrum(*args).eigenvalues.tobytes()
        assert out1 == out2

    def test_table1_is_eigen_at_default_betas(self, capsys):
        _, table1, _ = run_cli(capsys, "table1")
        _, eigen, _ = run_cli(capsys, "eigen")
        assert table1 == eigen
        assert table1.startswith("rank,0.25,0.5,0.75,1.0,2.0,3.0,5.0,10.0\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--beta", "1,2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["betas"] == [1.0, 2.0]
        assert len(report["eigenvalues"][0]) == 5
        assert sorted(report) == ["basis_size", "betas", "eigenvalues", "spectrum_bound",
                                  "spectrum_method", "top_m", "trace"]
        assert report["spectrum_method"] == ["gram", "mehler"]
        assert report["basis_size"] == [120, 75]
        assert all(0.0 < bound < 1e-15 for bound in report["spectrum_bound"])
        assert report["trace"] == [operator_trace(TuningParam(b)) for b in (1.0, 2.0)]
        assert json.loads(json.dumps(report)) == report

    def test_top_m_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eigen", "--top-m", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        # an absurd rank count is an input error, not an allocation
        code, out, err = run_cli(capsys, "eigen", "--top-m", str(10**12))
        assert (code, out) == (2, "")
        assert err == f"error: top_m must be between 1 and 131072, got {10**12}\n"

    def test_bad_beta_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eigen", "--beta", "1,-2"])
        assert excinfo.value.code == 2

    def test_unparsable_beta_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eigen", "--beta", "1,x"])
        assert excinfo.value.code == 2


class TestTable2Command:
    def test_single_cell_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "table2", "--alt", "lp2", "--beta", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["basis_size", "betas", "efficiency", "families",
                                  "spectrum_bound", "spectrum_method"]
        assert report["families"] == ["lp2"]
        assert report["betas"] == [1.0]
        assert (report["spectrum_method"], report["basis_size"]) == (["gram"], [120])
        assert 0.0 < report["efficiency"][0][0] <= 1.05

    def test_degenerate_contamination_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table2", "--alt", "contam:0:1", "--beta", "1")
        assert code == 2
        assert "degenerate" in err

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table2", "--alt", "contam:1:1", "--beta", "0.5,1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alternative,0.5,1.0"
        assert lines[1].startswith("contam:1:1,")

    def test_single_cell_reference_value(self, capsys):
        # default protocol at the default seed; deterministic, so the
        # 0.743 +- 0.03 reference comparison is stable
        code, out, _ = run_cli(
            capsys, "table2", "--alt", "lehmann", "--beta", "1", "--format", "json",
        )
        assert code == 0
        eff = json.loads(out)["efficiency"][0][0]
        assert abs(eff - 0.743) <= 0.03

    def test_repeated_calls_match_a_fresh_process(self, capsys):
        # lp2 at beta 3 and 10 shares its t-nodes and doubles its x-panels,
        # so a transform memo that outlived a call would show here
        argv = ["table2", "--alt", "lp2", "--beta", "0.5,3,10", "--format", "json"]
        outputs = [run_cli(capsys, *argv)[1] for _ in range(2)]
        fresh = fresh_cli_stdout(*argv)
        assert [out.encode() for out in outputs] == [fresh, fresh]


class TestPvalueCommand:
    def test_report_fields_and_range(self, capsys, datafile):
        rng = np.random.default_rng(0)
        path = datafile("\n".join(str(v) for v in rng.standard_normal(100)) + "\n")
        code, out, _ = run_cli(
            capsys, "pvalue", path, "--mc-samples", "5000", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["n"] == 100
        assert report["mc_samples"] == 5000
        assert sorted(report) == ["basis_size", "beta", "mc_samples", "n", "p_value", "seed",
                                  "spectrum_bound", "spectrum_method", "statistic", "top_m"]
        assert (report["spectrum_method"], report["basis_size"]) == ("gram", 120)
        assert 0.0 < report["spectrum_bound"] < 1e-15

    def test_p_value_is_the_law_of_the_operator_spectrum(self, capsys, datafile):
        # the top 5 exact eigenvalues plus the trace deficit as a shift
        rng = np.random.default_rng(1)
        path = datafile("\n".join(str(v) for v in rng.standard_normal(60)) + "\n")
        code, out, _ = run_cli(capsys, "pvalue", path, "--beta", "2", "--mc-samples", "3000",
                               "--seed", "5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        tp = TuningParam(2.0)
        expected = null_pvalue(report["statistic"], operator_spectrum(tp), 3000, seed=5)
        assert report["p_value"] == expected
        assert report["spectrum_method"] == "mehler"

    def test_mc_samples_zero_is_usage_error(self, capsys, datafile):
        path = datafile("1\n2\n3\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["pvalue", path, "--mc-samples", "0"])
        assert excinfo.value.code == 2

    def test_reproducible(self, capsys, datafile):
        rng = np.random.default_rng(3)
        path = datafile("\n".join(str(v) for v in rng.standard_normal(50)) + "\n")
        args = ("pvalue", path, "--beta", "3", "--mc-samples", "4000")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_batch_matches_a_fresh_process(self, capsys, datafile):
        # the second sample reads the spectrum and the draws the first one
        # left in the memos
        rng = np.random.default_rng(4)
        paths = [datafile("\n".join(map(str, rng.standard_normal(80))) + "\n", f"s{i}.txt")
                 for i in range(2)]
        flags = ["--beta", "2", "--mc-samples", "3000", "--format", "json"]
        outputs = [run_cli(capsys, "pvalue", path, *flags)[1] for path in paths]
        assert outputs[1].encode() == fresh_cli_stdout("pvalue", paths[1], *flags)


def test_parser_is_built_once_and_keeps_no_state(capsys, datafile):
    assert cli.build_parser() is cli.build_parser()
    path = datafile("1\n2\n4\n")
    beta = [json.loads(run_cli(capsys, "stat", path, *flags, "--format", "json")[1])["beta"]
            for flags in (["--beta", "2"], [])]
    assert beta == [2.0, 1.0]


def test_numerical_failure_exit_code(capsys):
    # a one-panel subdivision budget cannot meet the default tolerances
    code = main(["slope", "--alt", "lehmann", "--beta", "1", "--max-subdivisions", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "convergence" in err
    # the first integral of the LRT index is the one that fails
    assert err.startswith("error: Fisher information of lehmann: ")


def _failing_eigensolver(monkeypatch):
    """Patch np.linalg.eigvalsh to raise LinAlgError; returns the list
    of the shapes it was called with."""
    calls = []

    def fail(matrix):
        calls.append(np.shape(matrix))
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    return calls


def test_eigensolver_failure_exit_code(monkeypatch):
    # the sampled protocol's failure is a RuntimeError, the CLI's exit
    # code 4; no command samples the spectrum any more
    calls = _failing_eigensolver(monkeypatch)
    with pytest.raises(RuntimeError) as excinfo:
        nystrom_spectrum(TuningParam(1.0), 150, 1)
    assert calls
    assert "eigensolver failed in run 0" in str(excinfo.value)


@pytest.mark.parametrize("beta", ["0.5"])
def test_exact_eigensolver_failure_exit_code(capsys, datafile, monkeypatch, beta):
    # a LinAlgError is a ValueError, which would read as a usage error;
    # the failure is not cached, so the second command solves again.
    # Only the Gram route (beta <= 1) calls an eigensolver
    calls = _failing_eigensolver(monkeypatch)
    for argv in (["pvalue", datafile("1\n2\n4\n"), "--beta", beta], ["eigen", "--beta", beta]):
        before = len(calls)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"error: eigensolver failed at beta={beta}: did not converge\n"
        assert len(calls) > before


@pytest.mark.parametrize("beta", ["1e100", "1e160", "1e300"])
def test_eigen_at_huge_beta(beta):
    # the sampled protocol, which eigen ran until it printed the
    # operator's spectrum: the nodes lie far apart, so the sampled matrix
    # tends to I/N; beyond beta of about 1e154 the squares of the nodes
    # overflow to inf, which only ever multiplies a damping factor that is
    # 0, and is not reported
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sp = nystrom_spectrum(TuningParam(float(beta)), 100, 1, top_m=5)
    assert sp.trace_estimate == pytest.approx(1.0, rel=1e-14)
    assert list(sp.eigenvalues) == pytest.approx([0.01] * 5, rel=1e-14)


def test_eigen_with_overflowing_nodes_is_numerical_failure():
    # the sampled protocol, which eigen ran until it printed the
    # operator's spectrum; an ArithmeticError is the CLI's exit code 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ArithmeticError, match="beta=1e\\+308"):
            nystrom_spectrum(TuningParam(1e308), 100, 1)


def test_eigen_at_vanishing_beta_prints_zeros(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "eigen", "--beta", "1e-200", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["eigenvalues"] == [[0.0] * 5] and report["trace"] == [0.0]


def test_eigen_beyond_the_basis_cap_is_numerical_failure(capsys):
    code, out, err = run_cli(capsys, "eigen", "--beta", "1e300")
    assert (code, out) == (4, "")
    assert err == ("error: the Mehler basis at beta=1e+300 needs M = 3.684e+301 functions, "
                   "beyond the cap of 131072\n")


class TestSeedIsAnArgument:
    # pvalue is the one command that samples
    PVALUE = ("--beta", "1", "--mc-samples", "2000")

    def test_environment_is_ignored(self, capsys, datafile, monkeypatch):
        argv = ("pvalue", datafile("1\n2\n4\n"), *self.PVALUE)
        monkeypatch.delenv("EP_SEED", raising=False)
        _, out_unset, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("EP_SEED", "123")
        _, out_set, _ = run_cli(capsys, *argv)
        assert out_set == out_unset

    def test_malformed_environment_is_ignored(self, capsys, datafile, monkeypatch):
        monkeypatch.setenv("EP_SEED", "not-an-int")
        code, _, err = run_cli(capsys, "pvalue", datafile("1\n2\n4\n"), *self.PVALUE)
        assert (code, err) == (0, "")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize("command, seed", [("pvalue", "-1"), ("pvalue", "-5")])
    def test_negative_seed_is_named(self, capsys, datafile, command, seed):
        argv = [command, datafile("1\n2\n4\n"), "--seed", seed]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"seed must be a non-negative integer, got {seed}" in err

    def test_stat_takes_no_seed(self, capsys, datafile):
        with pytest.raises(SystemExit) as excinfo:
            main(["stat", datafile("1\n2\n3\n"), "--seed", "1"])
        assert excinfo.value.code == 2


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys, datafile):
        path = datafile("1\n2\n3\n4\n")
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "stat", path, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,beta,statistic")

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, datafile):
        path = datafile("1\n2\n3\n4\n")
        target = tmp_path / "missing-dir" / "report.csv"
        code, out, err = run_cli(capsys, "stat", path, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")


def test_slope_json_round_trip(capsys):
    argv = ["slope", "--alt", "lehmann", "--beta", "0.5"]
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "lehmann"
    assert report["efficiency"] == pytest.approx(
        report["local_index"] / report["lrt_index"], rel=1e-12
    )
    assert math.isfinite(report["delta_beta"])
    assert json.loads(json.dumps(report)) == report
    code = main(argv + ["--format", "csv"])
    header, row = capsys.readouterr().out.splitlines()
    assert code == 0
    assert header == ("family,beta,delta_beta,lambda1,local_index,lrt_index,efficiency,"
                      "spectrum_method,basis_size,spectrum_bound")
    assert row.split(",") == [str(report[key]) for key in header.split(",")]
    # slope is the 1 x 1 case of table2: the same cell, to the last bit
    code = main(["table2", "--alt", "lehmann", "--beta", "0.5", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["efficiency"] == [[report["efficiency"]]]


def test_slope_lrt_index_closed_form(capsys):
    # contamination N(2, 1): Fisher information e^4 - 1, minus mu1^2 = 4
    # and sigma1^2 / 2 = 8
    code = main(["slope", "--alt", "contam:2:1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["lrt_index"] == pytest.approx(math.exp(4.0) - 13.0, abs=1e-12)


def test_slope_infinite_fisher_information_exit_code(capsys):
    # contamination variance 3: the score's square grows without bound
    code = main(["slope", "--alt", "contam:0:3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "[-12, 12]" in captured.err


def test_slope_large_beta_needs_a_larger_panel_budget(capsys):
    # beta times the panel half-width 12 / P is at most 3, so beta = 1000
    # needs P = 4000, beyond the default budget of 2000
    argv = ["slope", "--alt", "lehmann", "--beta", "1000", "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert "beta=1000 needs 4000 panels" in err
    code, out, _ = run_cli(capsys, *argv, "--max-subdivisions", "4000")
    assert code == 0
    # the frequency-domain integral of |H(t)|^2 phi_beta(t), which the
    # default budget resolved
    assert json.loads(out)["delta_beta"] == pytest.approx(1.6342993987686285e-06, rel=1e-11)


def test_panel_budget_is_checked_before_any_spectrum(capsys, monkeypatch):
    # beta = 1000 would build a Mehler basis of about 37000 functions
    # before the panel error
    def fail(tp):
        raise AssertionError(f"lambda1 solved at beta={tp.beta:g}")

    monkeypatch.setattr(eppspulley.bahadur, "lambda1", fail)
    for argv in (["slope", "--alt", "lehmann", "--beta", "1000"],
                 ["table2", "--alt", "lp2", "--beta", "1,1000"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: local index of ") and "beta=1000 needs 4000 panels" in err
    assert spectral._solved.cache_info().currsize == 0


def test_slope_at_beta_300_fits_the_default_panel_budget(capsys):
    # beta = 300 needs P = 1200 panels on [-12, 12], within the default 2000
    code, out, err = run_cli(capsys, "slope", "--alt", "lehmann", "--beta", "300",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["delta_beta"] > 0.0


@pytest.mark.parametrize("name", ["contam:40:1", "contam:-30:2"])
def test_slope_alternative_beyond_radius_exit_code(capsys, name):
    # the bump lies outside [-12, 12], where d1 is just -phi
    code = main(["slope", "--alt", name])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "[-12, 12]" in captured.err


@pytest.mark.parametrize("argv, name", [
    (["table2", "--alt", "contam:1e300:1", "--beta", "1"], "contam:1e+300:1"),
    (["slope", "--alt", "contam:1e200:1e-300", "--beta", "1"], "contam:1e+200:1e-300"),
], ids=["huge_mean", "tiny_variance"])
def test_extreme_contamination_reports_one_line(capsys, argv, name):
    # (x - mu) / sigma and its square overflow only where the bump's
    # density is 0, so the d1 mass check is all that reaches stderr
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (f"error: d1 of {name} integrates to -1 on [-12, 12], not 0: "
                   "the alternative reaches beyond the truncation radius\n")


@pytest.mark.parametrize("argv, factor", [
    (["slope", "--alt", "contam:1e-300:1"], "LRT index of contam:1e-300:1"),
    (["table2", "--alt", "lehmann", "--beta", "1e-200"], "lambda1 at beta=1e-200"),
], ids=["lrt_index", "lambda1"])
def test_zero_efficiency_denominator_exit_code(capsys, argv, factor):
    # a factor that underflows to 0 is named instead of printing nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert factor in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["--alt", "lehmann", "--radius", "inf"],
    ["--alt", "lehmann", "--tol", "inf"],
    ["--alt", "contam:nan:1"],
    ["--alt", "contam:1:inf"],
    ["--alt", "lehmann", "--radius", "1e300"],
    ["--alt", "lp1", "--radius", "1e300"],
], ids=["radius", "tol", "mu", "sigma2", "radius_squared_lehmann", "radius_squared_lp1"])
def test_slope_nonfinite_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "slope", *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_slope_small_beta_asymptote(capsys):
    # delta_beta -> 15 beta^6 kappa3'^2 / 36 as beta -> 0, with
    # kappa3' = integral of (x^3 - 3x) d1 (about 1.67117e-20 here)
    from eppspulley.alternatives import lehmann
    from eppspulley.quadrature import QuadratureConfig, integrate_1d

    beta = 1e-3
    d1 = lehmann().d1
    tight = QuadratureConfig(tol=1e-12)
    kappa3 = integrate_1d(lambda x: (x**3 - 3.0 * x) * d1(x), tight).value
    code = main(["slope", "--alt", "lehmann", "--beta", str(beta), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    limit = 15.0 * beta**6 * kappa3**2 / 36.0
    assert json.loads(out)["delta_beta"] == pytest.approx(limit, rel=1e-5, abs=0.0)


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package, including the slope
    # machinery that evaluates Phi for the Lehmann and Ley-Paindaveine
    # families, must import and run without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(eppspulley.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "\n".join([
        "import contextlib, io, sys",
        "from eppspulley.cli import main",
        "print('scipy' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(['slope', '--alt', 'lehmann', '--beta', '1']),",
        "             main(['table2', '--alt', 'lp1', '--beta', '1'])]",
        "print(codes, 'scipy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split("\n") == ["False", "[0, 0] False", ""]


class TestIgnoredProtocolFlags:
    """No command samples the spectrum, but eigen, table1, slope and
    table2 still accept --n-points, --runs and --seed, and pvalue
    --n-points and --runs, hidden from --help and ignored."""

    COMMANDS = [["eigen", "--beta", "0.5,2"], ["table1"], ["slope", "--alt", "lp1", "--beta", "2"],
                ["table2", "--alt", "lp2", "--beta", "0.5,2"]]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_stdout_is_unchanged_and_stderr_names_the_flags(self, capsys, argv):
        code, plain, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, *argv, "--runs", "0", "--seed", "-3", "--runs", "2",
                                 "--format", "json")
        assert (code, out) == (0, plain)
        assert err == (f"warning: {argv[0]} ignores --runs, --seed: it computes the operator's "
                       "spectrum in closed form and does not sample it\n")
        assert not {"n_points", "runs", "seed"} & set(json.loads(out))

    def test_pvalue_ignores_the_node_and_run_counts(self, capsys, datafile):
        path = datafile("1\n2\n4\n7\n")
        argv = ("pvalue", path, "--mc-samples", "2000", "--format", "json")
        code, plain, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, *argv, "--runs", "0", "--n-points", "5", "--runs", "2")
        assert (code, out) == (0, plain)
        assert err == ("warning: pvalue ignores --runs, --n-points: it computes the operator's "
                       "spectrum in closed form and does not sample it\n")
        assert not {"n_points", "runs"} & set(json.loads(out))
        # --seed still seeds the Monte-Carlo draws
        code, out, err = run_cli(capsys, *argv, "--seed", "7")
        assert (code, err) == (0, "")
        report = json.loads(out)
        spectrum = operator_spectrum(TuningParam(1.0))
        assert report["seed"] == 7
        assert report["p_value"] == null_pvalue(report["statistic"], spectrum, 2000, seed=7)
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", ["eigen", "table1", "slope", "table2"])
    def test_hidden_from_help(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--n-points" not in text and "--runs" not in text and "--seed" not in text

    def test_pvalue_help_hides_the_node_and_run_counts(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pvalue", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--n-points" not in text and "--runs" not in text and "--seed" in text


@pytest.mark.parametrize("alt, efficiency", [("lehmann", "0.97676"), ("lp1", "0.88282")])
def test_slope_efficiency_at_small_beta(capsys, alt, efficiency):
    # the beta -> 0 limit kappa3'^2 / (6 lrt); the sampled lambda1 printed
    # 1.0939 and 0.98869
    code, out, _ = run_cli(capsys, "slope", "--alt", alt, "--beta", "0.001", "--format", "json")
    assert code == 0
    assert f"{json.loads(out)['efficiency']:.5f}" == efficiency


@pytest.mark.parametrize("argv", [["table1"], ["table2", "--alt", "lp2"],
                                  ["slope", "--alt", "lehmann", "--beta", "10"],
                                  ["pvalue", None, "--beta", "10", "--format", "json"]],
                         ids=lambda argv: argv[0])
def test_stdout_does_not_depend_on_the_blas_thread_count(argv, datafile):
    # the sampled beta = 10 spectrum that pvalue ran differed in its last
    # bit under one and two threads; None stands for a data file
    values = np.random.default_rng(11).standard_normal(300)
    path = datafile("\n".join(map(repr, values.tolist())) + "\n")
    argv = [path if arg is None else arg for arg in argv]
    one, two = (fresh_cli_stdout(*argv, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2))
    assert one == two
