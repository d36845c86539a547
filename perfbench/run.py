"""Layered benchmark for scheme_spectra: seeded workloads with end-to-end
metrics, and a traced run with per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload hamming-bounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load is one process, one job at a time (a closed loop with one client).
A job is one certified result; its time covers only the library or CLI
call, and every job is checked by an independent oracle outside the timed
region.  Timings are scaled to reference-host seconds by a calibration loop
timed between jobs (see ``calibrate``), so that the shared host's drift in
speed cancels.  After warm-up jobs that fill the library's caches, a
workload runs the number of whole rounds of jobs that took about
``--seconds`` when the benchmark was sized (``ROUND_S`` in each workload),
so a seed and a ``--seconds`` value always name the same jobs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
rounds of the same seed untraced and then traced, and reports the per-layer
metrics (see README.md).  Every line but the last is for people; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run leaves its full report, spans included,
in ``.bench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from common import Mismatch
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "hamming-bounds": "hamming_bounds",
    "composition-spectra": "composition_spectra",
    "representations": "representations",
    "cli-mix": "cli_mix",
}
SETUP_REPEATS = 5
CALIBRATE_PER_PROBE = 9
IMPORT_REPEATS = 3
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
# Median time of one calibrate() on the 2-core reference host.  A job's time
# is scaled by REF_CALIBRATE_S / (the mean of the calibrate() times just
# before and just after it), so it reads in reference-host seconds: the shared
# host's speed drifts by a third within minutes, and the drift would
# otherwise swamp any change to the library.
REF_CALIBRATE_S = 0.0085
RUN_WALL_CAP_S = 140  # stop early rather than overrun the 180 s a run may take
CLI_SUBCOMMANDS = ("spectrum", "bounds", "represent", "probe", "table", "verify")  # as in cli_mix

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> unit; the counters and self times come from tracer.py.
PER_LAYER = {
    "exactnum.binom.calls": "count",
    "exactnum.multinom.calls": "count",
    "exactnum.CycInt.mul.calls": "count",
    "exactnum.CycInt.embed.calls": "count",
    "exactnum.CycInt.embed.self_s": "s",
    "exactnum.CycInt.embed.escalations": "count",
    "groups.enumerate_compositions.self_s": "s",
    "groups.enumerate_shell.items": "count",
    "groups.enumerate_shell.self_s": "s",
    "krawtchouk.kraw.calls": "count",
    "krawtchouk.kraw.self_s": "s",
    "krawtchouk.kraw.calls_per_shell": "ratio",
    "krawtchouk.gen_kraw.calls": "count",
    "krawtchouk.gen_kraw.self_s": "s",
    "krawtchouk.first_nonpositive.self_s": "s",
    "schemes.hamming_spectrum.self_s": "s",
    "schemes.composition_spectrum.self_s": "s",
    "schemes.shells": "count",
    "schemes.min_eigenvalue.self_s": "s",
    "schemes.hoffman_bound.self_s": "s",
    "schemes.Spectrum.to_json.self_s": "s",
    "bounds.bound_report.self_s": "s",
    "bounds.lp_two_support.self_s": "s",
    "bounds.check_lp_solution.self_s": "s",
    "bounds.conjecture_probe.self_s": "s",
    "bounds.build_representation.self_s": "s",
    "bounds.hadamard_representation.self_s": "s",
    "bounds.verify_representation.self_s": "s",
    "bounds.verify_representation.cells": "count",
    "bounds.verify_representation.cells_per_s": "1/s",
    "bounds.Representation.write_csv.self_s": "s",
    "bounds.Representation.write_csv.bytes": "bytes",
    "cli.import_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The library cannot be found or imported from this checkout."""


@dataclass
class Context:
    """What a workload's ``run`` may need besides the job."""

    root: Path
    here: Path
    env: dict
    out_dir: Path
    tracer: object = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, job: dict, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"job": job, "error": message})


def child_env() -> dict:
    """Environment for child interpreters: the checkout's library first,
    and never a thread-count setting."""
    env = {k: v for k, v in os.environ.items() if k != "SCHEME_SPECTRA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    if not (SRC / "scheme_spectra" / "__init__.py").is_file():
        raise SetupError(f"no scheme_spectra package under {SRC}")
    sys.path.insert(0, str(SRC))
    import scheme_spectra

    if Path(scheme_spectra.__file__).resolve().parent != SRC / "scheme_spectra":
        raise SetupError(f"scheme_spectra imported from {scheme_spectra.__file__}, not {SRC}")
    return scheme_spectra


def make_context() -> Context:
    out_dir = Path.cwd() / ".bench_out"
    (out_dir / "cli").mkdir(parents=True, exist_ok=True)
    return Context(ROOT, HERE, child_env(), out_dir)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    usable = [p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10]
    return max(usable, default=TAIL_PERCENTILES[0])


# -- executing jobs ---------------------------------------------------------


class Runner:
    def __init__(self, module, ctx: Context) -> None:
        self.module = module
        self.ctx = ctx
        self.oracle = module.Oracle()
        self.tally = Tally()
        self.jobs_run = 0

    def execute(self, job: dict) -> tuple[float, bool, object]:
        """Run one job, then check it outside the timed region; returns the
        job's time, whether it passed, and its result (None if it raised)."""
        self.tally.attempted += 1
        tracer = self.ctx.tracer
        span = None
        if tracer is not None:
            tracer.job_id = self.jobs_run
            span = tracer.begin("job")
            tracer.active = True
        self.jobs_run += 1
        start = time.perf_counter()
        try:
            elapsed, result = self.module.run(job, self.ctx)
        except Exception:
            self.tally.fail(job, traceback.format_exc(limit=3))
            return time.perf_counter() - start, False, None
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.end(span)
        try:
            self.oracle.check(job, result)
        except Mismatch as exc:
            self.tally.fail(job, f"oracle: {exc}")
            return elapsed, False, result
        except Exception:
            self.tally.fail(job, "oracle raised: " + traceback.format_exc(limit=3))
            return elapsed, False, result
        return elapsed, True, result


def calibrate() -> float:
    """Time a fixed piece of pure-Python work that never calls the library:
    small-int loops, bigint arithmetic and dict/str traffic, the kinds of work
    the workloads do.  Its duration tracks how fast the host runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    x, m = 3**4000, 7**4000
    for _ in range(500):
        x = x * 12345678901 % m
    d = {i: str(i) for i in range(12000)}
    acc += len(d) + x % 3
    return time.perf_counter() - start


def host_scale(samples: list[float]) -> float:
    """Factor that turns this host's seconds into reference-host seconds."""
    return REF_CALIBRATE_S / statistics.median(samples)


def scaled(times: list[float], calibration: list[float]) -> list[float]:
    """Job times in reference-host seconds; ``calibration[i]`` ran just
    before job ``i`` and ``calibration[i + 1]`` just after it."""
    return [t * host_scale(calibration[i : i + 2]) for i, t in enumerate(times)]


def setup_probe(name: str) -> None:
    """Child mode: time a fresh import of the library plus the warm-up jobs,
    and the host's speed right after."""
    start = time.perf_counter()
    import_library()
    module = importlib.import_module(WORKLOADS[name])
    ctx = make_context()
    for job in module.warmup():
        module.run(job, ctx)
    setup = time.perf_counter() - start
    calibration = [calibrate() for _ in range(CALIBRATE_PER_PROBE)]
    print(json.dumps({"setup_s": setup, "calibrate_s": calibration}))


def fresh_interpreter_s(args: list[str], repeats: int, env: dict) -> list[float]:
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"{args} failed: {proc.stderr.decode()[-500:]}")
    return out


def measure_setup(name: str, env: dict) -> list[tuple[float, list[float]]]:
    """Set-up (import plus warm-up) in fresh interpreters, timed inside each,
    with each interpreter's calibrate() times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name],
            cwd=Path.cwd(), env=env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["calibrate_s"]))
    return samples


def peak_rss_mb(module) -> float:
    who = resource.RUSAGE_SELF if module.IN_PROCESS else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def host_metadata() -> dict:
    import mpmath
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


# -- the two kinds of run ---------------------------------------------------


def rounds_for(module, seconds: int) -> int:
    """Rounds that take about ``seconds`` at the speed the benchmark was
    sized on.  The count depends on ``seconds`` alone, never on how fast this
    run goes, so two commits compared at the same setting run the same jobs."""
    return max(1, round(seconds / module.ROUND_S))


def end_to_end_run(name: str, module, runner: Runner, seed: int, seconds: int, env: dict):
    setup = measure_setup(name, env)
    run_start = time.perf_counter()
    times, ok, jobs, calibration = [], 0, [], []
    rounds = module.rounds(seed)
    for _ in range(rounds_for(module, seconds)):
        for job in next(rounds):
            calibration.append(calibrate())
            elapsed, good, _ = runner.execute(job)
            times.append(elapsed)
            ok += good
            jobs.append(job)
        if time.perf_counter() - run_start > RUN_WALL_CAP_S:
            break
    calibration.append(calibrate())
    ref_times = scaled(times, calibration)
    ordered = sorted(times)
    p_tail = tail_percentile(len(times))
    setup_ref = [s * host_scale(c) for s, c in setup]
    metrics = {
        "jobs_per_s": ok / sum(ref_times),
        "job_s_p50": statistics.median(ref_times),
        "job_s_tail": percentile(sorted(ref_times), p_tail),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb(module),
    }
    info = {
        "timed_jobs": len(times),
        "timed_s": sum(times),
        "tail_percentile": p_tail,
        "samples_beyond_tail": len(times) - math.ceil(p_tail / 100 * len(times)),
        "host_scale": host_scale(calibration),
        "calibrate_s": calibration,
        "job_s": times,
        "unscaled": {
            "jobs_per_s": ok / sum(times),
            "job_s_p50": statistics.median(times),
            "job_s_tail": percentile(ordered, p_tail),
            "setup_s": statistics.median(s for s, _ in setup),
        },
        "setup_samples_s": setup_ref,
        "failed_ratio": runner.tally.failed / runner.tally.attempted,
    }
    return metrics, info, jobs


def traced_run(name: str, module, runner: Runner, seed: int, env: dict):
    rounds = module.rounds(seed)
    jobs = [job for _ in range(module.TRACE_ROUNDS) for job in next(rounds)]
    untraced = [runner.execute(job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    runner.ctx.tracer = tracer
    try:
        traced = [runner.execute(job)[0] for job in jobs]
    finally:
        runner.ctx.tracer = None
        tracer.uninstall()
    summary = tracer.summary()
    metrics = layer_metrics(summary)
    untraced_s = [u[0] for u in untraced]
    metrics["trace.overhead_s"] = sum(traced) - sum(untraced_s)
    metrics["cli.import_s"] = statistics.median(
        fresh_interpreter_s(["-c", "import scheme_spectra.cli"], IMPORT_REPEATS, env)
    )
    if not module.IN_PROCESS:
        for sub in CLI_SUBCOMMANDS:
            walls = [t for t, j in zip(untraced_s, jobs) if j["sub"] == sub]
            metrics[f"cli.{sub}.wall_s"] = statistics.median(walls) if walls else 0.0
        outs = [len(r["stdout"]) for _, _, r in untraced if r is not None]
        metrics["cli.stdout_bytes"] = sum(outs) / len(outs)
    total = sum(traced)
    shares = {
        key[: -len(".self_s")]: value / total
        for key, value in summary.items()
        if key.endswith(".self_s") and total > 0
    }
    if not module.IN_PROCESS:
        # A CLI job's own span covers interpreter start-up and imports; split
        # off the part a bare import of scheme_spectra.cli takes.
        shares["cli.import"] = metrics["cli.import_s"] * len(jobs) / total
        shares["job"] -= shares["cli.import"]
    info = {
        "traced_jobs": len(jobs),
        "untraced_s": sum(untraced_s),
        "traced_s": total,
        "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "import_share_of_median_job": (
            None if module.IN_PROCESS else metrics["cli.import_s"] / statistics.median(untraced_s)
        ),
        "failed_ratio": runner.tally.failed / runner.tally.attempted,
    }
    return metrics, info, jobs, tracer


def layer_metrics(s: dict) -> dict:
    out = {}
    for name in PER_LAYER:
        out[name] = s.get(name, 0)
    hamming_shells = s.get("schemes.hamming_shells", 0)
    out["krawtchouk.kraw.calls_per_shell"] = (
        s.get("krawtchouk.kraw.calls", 0) / hamming_shells if hamming_shells else 0.0
    )
    counted = s.get("bounds.verify_representation.counted_s", 0.0)
    out["bounds.verify_representation.cells_per_s"] = (
        s.get("bounds.verify_representation.cells", 0) / counted if counted else 0.0
    )
    return out


# -- entry point --------------------------------------------------------------


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    import_library()
    module = importlib.import_module(WORKLOADS[name])
    runner = Runner(module, make_context())
    for job in module.warmup():
        runner.execute(job)
    tracer = None
    if trace:
        metrics, info, jobs, tracer = traced_run(name, module, runner, seed, env)
        units = PER_LAYER
    else:
        metrics, info, jobs = end_to_end_run(name, module, runner, seed, seconds, env)
        units = dict(END_TO_END)
    tally = runner.tally
    props = module.properties(jobs, runner.oracle)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_metadata(),
        "run": info,
        "inputs": props,
        "failures": tally.failures,
    }
    for key, value in metrics.items():
        print(f"{name}  {key} = {value:.6g} {units[key]}")
    print(f"{name}  failed_ratio = {info['failed_ratio']:.6g} ratio"
          f" ({tally.failed} of {tally.attempted} jobs)")
    print(json.dumps({"meta": report}, sort_keys=True, default=str))
    dump = dict(report, metrics=metrics)
    if tracer is not None:
        dump["spans"] = tracer.spans
        dump["counters"] = dict(tracer.counters)
    out = Path.cwd() / ".bench_out" / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(dump, default=str))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload in turn, each in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            raise SetupError(f"{name} failed: {proc.stderr[-1000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
