"""Smoke test of the benchmark: the smallest inputs of every workload pass
their oracles, the tracer wraps and restores the library, and one short run
prints the result line.  Not part of the library's test suite; run with

    python3 -m pytest perfbench -q
"""

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import scheme_spectra as ss  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smallest_jobs_pass_their_oracles(name):
    module = importlib.import_module(run.WORKLOADS[name])
    runner = run.Runner(module, run.make_context())
    for job in module.warmup():
        runner.execute(job)
    assert runner.tally.failed == 0, runner.tally.failures
    assert runner.tally.attempted == len(module.warmup())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_rounds_repeat_for_a_seed(name):
    module = importlib.import_module(run.WORKLOADS[name])
    first, second = module.rounds(7), module.rounds(7)
    assert [next(first) for _ in range(2)] == [next(second) for _ in range(2)]


def test_oracle_catches_a_wrong_report():
    module = importlib.import_module("hamming_bounds")
    job = module.warmup()[0]
    _, report = module.run(job)
    report["lower"][0]["value"] = "1"
    with pytest.raises(Exception, match="differs"):
        module.Oracle().check(job, report)


def test_tracer_records_and_restores():
    original = ss.bounds.kraw
    tracer = Tracer()
    tracer.install()
    try:
        assert ss.bounds.kraw is not original
        tracer.active = True
        ss.bound_report(ss.HammingGraphSpec(12, 3, 9))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert ss.bounds.kraw is original
    summary = tracer.summary()
    assert summary["krawtchouk.kraw.calls"] > 0
    assert summary["schemes.shells"] == 13
    assert summary["bounds.bound_report.wall_s"] >= summary["bounds.bound_report.self_s"] > 0


def test_benchmark_json_names_the_metrics_run_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert run.CLI_SUBCOMMANDS == importlib.import_module("cli_mix").SUBCOMMANDS


def test_short_run_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "cli-mix",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hamming-bounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaling_cancels_the_host_speed():
    slow = [2 * run.REF_CALIBRATE_S] * 3
    assert run.scaled([0.2, 0.4], slow) == [0.1, 0.2]
