"""Tests of the CLI benchmark itself, at its small scale.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0", "--scale", "small", *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_benchmark_json_lists_the_workloads_and_tracer_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.metric_names() + ["trace.overhead_s"]


def test_untraced_run_of_all_workloads_emits_end_to_end_metrics():
    _, stdout = bench("--workload", "all", "--trace", "0")
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS) == stdout.count("error_rate")
    for result, name in zip(results, workloads.WORKLOADS):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(workloads.workload(name).ops)
        assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_identical_outputs(workload):
    # run() counts a traced output that is missing or differs by a byte from
    # the untraced one as a failed call, so `correct` covers identical outputs
    result, _ = bench("--workload", workload, "--trace", "1")
    assert result["correct"] and result["attempted"] == 2 * len(workloads.workload(workload).ops)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_corrupted_output_counts_as_failed_call():
    result, stdout = bench("--workload", "stat-large", "--trace", "0", "--corrupt", "stat-normal-beta1")
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (6, 1)
    assert "FAILED pass 0 stat-normal-beta1: unreadable output" in stdout
    assert result["metrics"]["wall_s"]["value"] > 0


def test_missing_hook_is_listed_not_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import eppspulley.cli as cli

    monkeypatch.setattr(cli, "read_sample_file", cli.read_sample_file)  # restored afterwards
    monkeypatch.setattr(tracing, "HOOKS", (
        ("eppspulley.cli", "read_sample_file", "cli.read_sample_file"),
        ("eppspulley.cli", "no_such_function", "cli.no_such_function"),
        ("eppspulley.no_such_module", "f", "no_such_module.f"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == ["eppspulley.cli.no_such_function", "eppspulley.no_such_module.f"]
    metrics = tracer.metrics()
    assert "cli.read_sample_file.calls" in metrics
    assert not [name for name in metrics if "no_such" in name]


def test_stat_check_rejects_a_wrong_statistic():
    wl = workloads.workload("stat-large", "small")
    op = wl.ops[0]
    refs = workloads.load_references()
    ref = refs[workloads.reference_key("small", op)]
    good = json.dumps({"n": wl.sample_n, "beta": op.beta, "statistic": ref})
    bad = json.dumps({"n": wl.sample_n, "beta": op.beta, "statistic": ref + 1e-3})
    assert workloads.check(op, good, refs, "small") is None
    assert "reference" in workloads.check(op, bad, refs, "small")


def test_inputs_depend_on_the_seed_only(tmp_path):
    wl = workloads.workload("pvalue-batch", "small")
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        workloads.write_inputs(wl, seed, tmp_path / name)
    files = [f"{s}.txt" for s in wl.samples]
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert all((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)
