"""CLI behavior: parsing, exit codes, output formats, reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import eppspulley
from eppspulley.cli import main, read_sample_file
from eppspulley.statistic import Sample, TuningParam, epps_pulley_statistic


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

    def test_constant_sample_is_degenerate(self, capsys, datafile):
        code, _, _ = run_cli(capsys, "stat", datafile("5\n5\n5\n"))
        assert code == 3

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

    def test_negative_statistic_is_numerical_failure(self, capsys, datafile, monkeypatch):
        monkeypatch.setattr(eppspulley.backend, "pairwise_gauss_sum", lambda y, gamma: 0.0)
        code, out, err = run_cli(capsys, "stat", datafile("1\n2\n4\n"))
        assert (code, out) == (4, "")
        assert "statistic evaluated to" in err


class TestEigenCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--beta", "0.5,1", "--n-points", "200", "--runs", "2",
            "--top-m", "3", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,0.5,1.0"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > float(lines[2].split(",")[1])  # descending ranks

    def test_byte_reproducible(self, capsys):
        args = ("eigen", "--beta", "1", "--n-points", "150", "--runs", "1", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_table1_is_eigen_at_default_betas(self, capsys):
        protocol = ("--n-points", "200", "--runs", "2")
        _, table1, _ = run_cli(capsys, "table1", *protocol)
        _, eigen, _ = run_cli(capsys, "eigen", *protocol)
        assert table1 == eigen
        assert table1.startswith("rank,0.25,0.5,0.75,1.0,2.0,3.0,5.0,10.0\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--beta", "1", "--n-points", "150", "--runs", "2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["betas"] == [1.0]
        assert len(report["eigenvalues"][0]) == 5
        assert json.loads(json.dumps(report)) == report

    def test_top_m_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eigen", "--top-m", "0"])
        assert excinfo.value.code == 2

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
            capsys, "table2", "--alt", "lp2", "--beta", "1", "--n-points", "300",
            "--runs", "3", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["families"] == ["lp2"]
        assert report["betas"] == [1.0]
        assert 0.0 < report["efficiency"][0][0] <= 1.05

    def test_degenerate_contamination_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table2", "--alt", "contam:0:1", "--beta", "1")
        assert code == 2
        assert "degenerate" in err

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table2", "--alt", "contam:1:1", "--beta", "0.5,1",
            "--n-points", "200", "--runs", "2",
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


class TestPvalueCommand:
    def test_report_fields_and_range(self, capsys, datafile):
        rng = np.random.default_rng(0)
        path = datafile("\n".join(str(v) for v in rng.standard_normal(100)) + "\n")
        code, out, _ = run_cli(
            capsys, "pvalue", path, "--n-points", "200", "--runs", "2",
            "--mc-samples", "5000", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["n"] == 100
        assert report["mc_samples"] == 5000

    def test_mc_samples_zero_is_usage_error(self, capsys, datafile):
        path = datafile("1\n2\n3\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["pvalue", path, "--mc-samples", "0"])
        assert excinfo.value.code == 2

    def test_reproducible(self, capsys, datafile):
        rng = np.random.default_rng(3)
        path = datafile("\n".join(str(v) for v in rng.standard_normal(50)) + "\n")
        args = ("pvalue", path, "--n-points", "150", "--runs", "2", "--mc-samples", "4000")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_numerical_failure_exit_code(capsys):
    # a one-panel subdivision budget cannot meet the default tolerances
    code = main(["slope", "--alt", "lehmann", "--beta", "1", "--max-subdivisions", "1",
                 "--n-points", "150", "--runs", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "convergence" in err
    # the first integral of the LRT index is the one that fails
    assert err.startswith("error: Fisher information of lehmann: ")


def test_eigensolver_failure_exit_code(capsys, monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = run_cli(capsys, "eigen", "--beta", "1", "--n-points", "150", "--runs", "1")
    assert code == 4
    assert out == ""
    assert "eigensolver failed in run 0" in err


class TestSeedIsAnArgument:
    EIGEN = ("eigen", "--beta", "1", "--n-points", "150", "--runs", "1")

    def test_environment_is_ignored(self, capsys, monkeypatch):
        monkeypatch.delenv("EP_SEED", raising=False)
        _, out_unset, _ = run_cli(capsys, *self.EIGEN)
        monkeypatch.setenv("EP_SEED", "123")
        _, out_set, _ = run_cli(capsys, *self.EIGEN)
        assert out_set == out_unset

    def test_malformed_environment_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("EP_SEED", "not-an-int")
        code, _, err = run_cli(capsys, *self.EIGEN)
        assert (code, err) == (0, "")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize("command, seed", [("eigen", "-1"), ("pvalue", "-5")])
    def test_negative_seed_is_named(self, capsys, datafile, command, seed):
        argv = [command, "--seed", seed, "--n-points", "150", "--runs", "1"]
        if command == "pvalue":
            argv.insert(1, datafile("1\n2\n4\n"))
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
    argv = ["slope", "--alt", "lehmann", "--beta", "0.5", "--n-points", "200", "--runs", "2"]
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
                      "n_points,runs,seed")
    assert row.split(",") == [str(report[key]) for key in header.split(",")]
    # slope is the 1 x 1 case of table2: the same cell, to the last bit
    code = main(["table2", "--alt", "lehmann", "--beta", "0.5", "--n-points", "200",
                 "--runs", "2", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["efficiency"] == [[report["efficiency"]]]


def test_slope_lrt_index_closed_form(capsys):
    # contamination N(2, 1): Fisher information e^4 - 1, minus mu1^2 = 4
    # and sigma1^2 / 2 = 8
    code = main(["slope", "--alt", "contam:2:1", "--n-points", "150", "--runs", "1",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["lrt_index"] == pytest.approx(math.exp(4.0) - 13.0, abs=1e-12)


def test_slope_infinite_fisher_information_exit_code(capsys):
    # contamination variance 3: the score's square grows without bound
    code = main(["slope", "--alt", "contam:0:3", "--n-points", "150", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "[-12, 12]" in captured.err


@pytest.mark.parametrize("name", ["contam:40:1", "contam:-30:2"])
def test_slope_alternative_beyond_radius_exit_code(capsys, name):
    # the bump lies outside [-12, 12], where d1 is just -phi
    code = main(["slope", "--alt", name, "--n-points", "150", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "[-12, 12]" in captured.err


@pytest.mark.parametrize("argv, factor", [
    (["slope", "--alt", "contam:1e-300:1"], "LRT index of contam:1e-300:1"),
    (["table2", "--alt", "lehmann", "--beta", "1e-200"], "lambda1 at beta=1e-200"),
], ids=["lrt_index", "lambda1"])
def test_zero_efficiency_denominator_exit_code(capsys, argv, factor):
    # a factor that underflows to 0 is named instead of printing nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--n-points", "150", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert factor in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["--alt", "lehmann", "--radius", "inf"],
    ["--alt", "lehmann", "--abs-tol", "inf"],
    ["--alt", "lehmann", "--rel-tol", "inf"],
    ["--alt", "contam:nan:1"],
    ["--alt", "contam:1:inf"],
], ids=["radius", "abs_tol", "rel_tol", "mu", "sigma2"])
def test_slope_nonfinite_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "slope", *argv, "--n-points", "150", "--runs", "1")
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
    tight = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    kappa3 = integrate_1d(lambda x: (x**3 - 3.0 * x) * d1(x), tight).value
    code = main(["slope", "--alt", "lehmann", "--beta", str(beta), "--n-points", "150",
                 "--runs", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    limit = 15.0 * beta**6 * kappa3**2 / 36.0
    assert json.loads(out)["delta_beta"] == pytest.approx(limit, rel=1e-5, abs=0.0)


def test_import_does_not_load_scipy():
    # scipy is about half of the CLI start-up time; only the slope
    # machinery needs it, and it loads it on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(eppspulley.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, eppspulley.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
