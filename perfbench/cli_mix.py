"""cli-mix: ``python -m scheme_spectra.cli`` processes, one at a time.

Each job is one CLI process on a small input, covering all six subcommands
(``spectrum``, ``bounds``, ``represent --out``, ``probe``, ``table`` and
``verify --max-n <= 5``).  A call takes 0.2-0.5 s, of which importing numpy
and mpmath is most; interpreter start-up, argparse and JSON output dominate
the rest.  This is the only workload where an import-time or serialisation
change shows; the in-process workloads predict no change for one.

A round is one job per subcommand in seeded order, then two repeats of
earlier invocations of the round, whose bytes must match the first run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import scheme_spectra as ss

from common import expect, normalized
from hamming_bounds import expected_report
from representations import d_range

NAME = "cli-mix"
TRACE_ROUNDS = 3
IN_PROCESS = False  # jobs run in child processes
ROUND_S = 2.5  # nominal seconds per round on the 2-core reference host
REPEATS_PER_ROUND = 2
SUBCOMMANDS = ("spectrum", "bounds", "represent", "probe", "table", "verify")
QS = (2, 3, 4, 5)
SMALL_COMPOSITIONS = ((2, 6), (2, 8), (3, 6), (3, 9), (4, 4), (4, 8))
REPRESENT_CELLS = ((2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (4, 4), (5, 3), (5, 4))
PROBES = ((2, 4), (2, 8), (3, 6), (3, 12), (4, 8), (5, 5))
TABLES = (("1.1", (2, 3), 4, 7), ("1.2", (3, 4), 4, 8), ("1.3", (2, 3), 3, 6))
SUITES = ("reciprocity", "projectors", "representations", "eigenvalues", "all")
TIMEOUT_S = 120


def _graph_args(rng: random.Random, max_hamming_n: int) -> dict:
    if rng.random() < 0.5:
        n = rng.randint(8, max_hamming_n)
        return {"family": "hamming", "n": n, "q": rng.choice(QS), "d": rng.randint(1, n)}
    if rng.random() < 0.25:
        return {"family": "composition", "n": 4, "q": 4, "group": "field", "comp": None}
    q, n = rng.choice(SMALL_COMPOSITIONS)
    comp = None
    if rng.random() < 0.5:
        cuts = sorted(rng.randint(0, n) for _ in range(q - 1))
        comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return {"family": "composition", "n": n, "q": q, "group": "cyclic", "comp": comp}


def _argv(sub: str, args: dict) -> list[str]:
    argv = [sub]
    for key, value in args.items():
        if value is None:
            continue
        flag = "--max-n" if key == "max_n" else f"--{key}"
        argv += [flag, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
    return argv


def _job(rng: random.Random, sub: str) -> dict:
    if sub in ("spectrum", "bounds"):
        args = _graph_args(rng, 40 if sub == "spectrum" else 60)
    elif sub == "represent":
        q, n = rng.choice(REPRESENT_CELLS)
        d = rng.choice(d_range(q, n))
        args = {"n": n, "q": q, "d": d, "out": f".bench_out/cli/rep-{n}-{q}-{d}.csv"}
        if rng.random() < 1 / 3:
            args["sample"] = 200
    elif sub == "probe":
        q, n = rng.choice(PROBES)
        args = {"q": q, "n": n}
    elif sub == "table":
        theorem, qs, lo, hi = rng.choice(TABLES)
        grid = f"n<={rng.randint(lo, hi)},q in {{{','.join(map(str, qs))}}}"
        args = {"theorem": theorem, "grid": grid}
    else:
        args = {"suite": rng.choice(SUITES), "max_n": rng.randint(2, 5)}
    return {"sub": sub, "args": args, "argv": _argv(sub, args), "repeat": False}


def rounds(seed: int):
    rng = random.Random(seed)
    while True:
        jobs = [_job(rng, sub) for sub in rng.sample(SUBCOMMANDS, len(SUBCOMMANDS))]
        jobs += [dict(j, repeat=True) for j in rng.sample(jobs, REPEATS_PER_ROUND)]
        yield jobs


def warmup() -> list[dict]:
    args = {"family": "hamming", "n": 8, "q": 3, "d": 4}
    return [{"sub": "spectrum", "args": args, "argv": _argv("spectrum", args), "repeat": False}]


def run(job: dict, ctx) -> tuple[float, dict]:
    """One CLI process; under a tracer it runs through ``cli_traced.py``.
    The time covers the process alone, not reading the CSV it wrote."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "scheme_spectra.cli", *job["argv"]]
    else:
        trace_file = ctx.out_dir / "cli-trace.json"
        cmd = [sys.executable, str(ctx.here / "cli_traced.py"), str(trace_file), *job["argv"]]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - start
    if ctx.tracer is not None:
        ctx.tracer.merge(json.loads(trace_file.read_text()))
    result = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    if job["sub"] == "represent" and proc.returncode == 0:
        result["csv"] = (ctx.root / job["args"]["out"]).read_bytes()
    return wall, result


# -- oracle ---------------------------------------------------------------


def _spec(args: dict):
    if args["family"] == "hamming":
        return ss.HammingGraphSpec(args["n"], args["q"], args["d"])
    q, n = args["q"], args["n"]
    group = ss.finite_field(q) if args["group"] == "field" else ss.cyclic(q)
    comp = ss.Composition(args["comp"]) if args["comp"] else ss.Composition.balanced(q, n)
    return ss.CompositionGraphSpec(group, n, comp)


def _table(theorem: str, grid: str) -> str:
    max_n = int(grid.split(",")[0][3:])
    qs = [int(q) for q in grid.split("{")[1].rstrip("}").split(",")]
    if theorem == "1.1":
        lines = ["n,q,d,regime,lp_objective,regime_cap"]
        for q in qs:
            for n in range(1, max_n + 1):
                for d in range(1, n + 1):
                    rep = expected_report(n, q, d)
                    diag = rep["diagnostics"]
                    cap = diag.get("degree_cap") or diag.get("window_cap", "")
                    lines.append(f"{n},{q},{d},{diag['regime']},{rep['upper'][0]['value']},{cap}")
    elif theorem == "1.2":
        lines = ["n,q,d,case,hoffman"]
        for q in (q for q in qs if q >= 3):
            for n in range(2, max_n + 1):
                for d in range(1, n + 1):
                    if q * d >= (q - 1) * n:
                        case = "balanced" if q * d == (q - 1) * n else "strict"
                        value = expected_report(n, q, d)["lower"][0]["value"]
                        lines.append(f"{n},{q},{d},{case},{value}")
    else:
        lines = ["family,q,n,lower,upper,exact"]
        for q in qs:
            for n in range(q, max_n + 1, q):
                for family in ("cyclic", "field"):
                    group = ss.cyclic(q) if family == "cyclic" else ss.finite_field(q)
                    spec = ss.CompositionGraphSpec(group, n, ss.Composition.balanced(q, n))
                    rep = ss.bound_report(spec).to_json()
                    lower = max((Fraction(v["value"]) for v in rep["lower"]), default="")
                    upper = min((Fraction(v["value"]) for v in rep["upper"]), default="")
                    exact = rep["exact"] or ""
                    lines.append(f"{family},{q},{n},{lower},{upper},{exact}")
    return "\n".join(lines) + "\n"


def _expected(job: dict):
    sub, args = job["sub"], job["args"]
    if sub == "spectrum":
        spec = _spec(args)
        hamming = args["family"] == "hamming"
        spectrum = ss.hamming_spectrum(spec) if hamming else ss.composition_spectrum(spec)
        if hamming or spec.undirected:
            expect(ss.trace_identity_check(spectrum) is True, "trace identity fails")
        return normalized(spectrum.to_json())
    if sub == "bounds":
        return normalized(ss.bound_report(_spec(args)).to_json())
    if sub == "probe":
        return normalized(ss.conjecture_probe(args["q"], args["n"]).to_json())
    if sub == "table":
        return _table(args["theorem"], args["grid"])
    if sub == "verify":
        return None
    n, q, d = args["n"], args["q"], args["d"]
    spec = ss.HammingGraphSpec(n, q, d)
    solution = ss.lp_two_support(n, q, d)
    expect(ss.check_lp_solution(solution) is True, "check_lp_solution rejected the LP")
    rep = ss.build_representation(solution, ss.cyclic(q))
    expect(ss.verify_representation(rep, spec) is True, "library representation not orthogonal")
    sol = solution.to_json()
    summary = {
        "rows": str(rep.rows),
        "columns": rep.cols,
        "objective": sol["objective"],
        "coefficients": sol["coefficients"],
        "mode": "full" if "sample" not in args else "sampled",
        "verified": True,
        "out": args["out"],
    }
    if "sample" in args:
        summary["sample"] = args["sample"]
        summary["seed"] = str(ss.representation_seed(spec))
    return summary, rep.to_csv_text().encode()


class Oracle:
    def __init__(self) -> None:
        self._expected: dict[tuple, object] = {}
        self._first_bytes: dict[tuple, tuple] = {}

    def check(self, job: dict, result: dict) -> None:
        key = tuple(job["argv"])
        expect(result["rc"] == 0, f"exit code {result['rc']}: {result['stderr'][-300:]!r}")
        produced = (result["stdout"], result.get("csv"))
        if key in self._first_bytes:
            expect(produced == self._first_bytes[key], f"repeated {key} is not byte-identical")
        else:
            self._first_bytes[key] = produced
        if key not in self._expected:
            self._expected[key] = _expected(job)
        want = self._expected[key]
        text = result["stdout"].decode()
        sub = job["sub"]
        if sub == "verify":
            names = "reciprocity, projectors, representations, eigenvalues"
            names = names if job["args"]["suite"] == "all" else job["args"]["suite"]
            expect(text.endswith(f"all checks passed ({names})\n"), "verify did not pass")
            expect("FAIL" not in text, "a verify suite failed")
        elif sub == "table":
            expect(text == want, "table differs from the library's values")
        elif sub == "represent":
            summary, csv = want
            expect(json.loads(text) == summary, "represent summary differs")
            expect(result["csv"] == csv, "CSV differs from to_csv_text()")
        else:
            expect(json.loads(text) == want, f"{sub} output differs from to_json()")


def properties(jobs: list[dict], oracle=None) -> dict:
    total = len(jobs)
    return {
        "subcommand_share": {s: sum(j["sub"] == s for j in jobs) / total for s in SUBCOMMANDS},
        "repeat_share": sum(j["repeat"] for j in jobs) / total,
    }
