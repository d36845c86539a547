"""Command-line front end.

Six subcommands: ``spectrum`` and ``bounds`` emit JSON for one graph,
``represent`` materializes an orthogonal representation as CSV,
``verify`` runs the self-check suites, ``probe`` tests the balanced
least-eigenvalue prediction, and ``table`` tabulates bound families over
a parameter grid.  All output is deterministic: JSON keys are sorted,
big integers travel as decimal strings, and repeated invocations produce
byte-identical bytes.  Exit codes: 0 success, 1 verification failure,
2 malformed flags.  The representation layer, :mod:`.representation`, is
imported only by ``represent`` and the representation suite, inside the
functions that use it, and numpy loads only for those and the projector
suite; the other subcommands compile neither.

The library never calls BLAS: its only matrix products are int64 ones,
which numpy computes in its own loops.  So :func:`main` sets
``OPENBLAS_NUM_THREADS=1`` when it is unset and numpy is not yet loaded,
and numpy's OpenBLAS then starts no thread pool of one idle thread per
core.  Starting it took about 70 of the 150-160 ms that importing numpy
took on a 2-core x86-64 host.  Importing the library sets nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .bounds import bound_report, conjecture_probe, lp_two_support
from .errors import (
    BadLabel,
    DomainError,
    Infeasible,
    NotFound,
    NotOrthogonal,
    RangeError,
    SpecMismatch,
)
from .exactnum import binom, multinom
from .groups import (
    Composition,
    GroupSpec,
    all_words,
    cyclic,
    enumerate_compositions,
    finite_field,
)
from .krawtchouk import gen_kraw, gen_kraw_circulant, kraw, zero_shell_predicate
from .schemes import (
    CompositionGraphSpec,
    HammingGraphSpec,
    composition_spectrum,
    eigenvector_check,
    hamming_spectrum,
    hoffman_bound,
    min_eigenvalue,
    projector_identity_check,
    trace_identity_check,
)

_FLAG_ERRORS = (NotFound, ValueError)

_VERIFY_ERRORS = (Infeasible, NotOrthogonal)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _parse_comp(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadLabel(f"cannot parse composition {text!r}") from exc


def _make_group(args: argparse.Namespace) -> GroupSpec:
    if args.group == "field":
        modulus = _parse_comp(args.modulus) if args.modulus else None
        return finite_field(args.q, modulus)
    if args.modulus:
        raise SpecMismatch("--modulus only applies to --group field")
    return cyclic(args.q)


def _graph_from_args(args: argparse.Namespace):
    if args.family == "hamming":
        if args.d is None:
            raise RangeError("--family hamming requires --d")
        if args.group != "cyclic" or args.modulus:
            raise SpecMismatch("hamming graphs do not take --group/--modulus")
        if args.comp is not None:
            raise SpecMismatch("hamming graphs do not take --comp")
        return HammingGraphSpec(args.n, args.q, args.d)
    if args.d is not None:
        raise SpecMismatch("composition graphs do not take --d")
    group = _make_group(args)
    if args.comp is not None:
        dcomp = _parse_comp(args.comp)
    else:
        dcomp = Composition.balanced(args.q, args.n)
    return CompositionGraphSpec(group, args.n, dcomp)


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("hamming", "composition"), required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--d", type=int, default=None, help="Hamming distance")
    sub.add_argument(
        "--comp",
        default=None,
        help="composition counts, comma separated (default: balanced n/q,...)",
    )
    sub.add_argument("--group", choices=("cyclic", "field"), default="cyclic")
    sub.add_argument("--modulus", default=None, help="field modulus coefficients, constant first")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _graph_from_args(args)
    if isinstance(spec, HammingGraphSpec):
        spectrum = hamming_spectrum(spec)
    else:
        spectrum = composition_spectrum(spec)
    print(_dump(spectrum.to_json()))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    spec = _graph_from_args(args)
    report = bound_report(spec)
    print(_dump(report.to_json()))
    return 0


def _cmd_represent(args: argparse.Namespace) -> int:
    from .representation import (
        _check_sample,
        build_representation,
        representation_seed,
        verify_representation,
    )

    group = _make_group(args)
    spec = HammingGraphSpec(args.n, args.q, args.d)
    sample = _check_sample(args.sample)
    solution = lp_two_support(args.n, args.q, args.d)
    rep = build_representation(solution, group)
    verify_representation(rep, spec, sample=sample)
    summary = {
        "rows": str(rep.rows),
        "columns": rep.cols,
        "objective": str(solution.objective),
        "coefficients": list(solution.coefficients),
        "mode": "full" if sample is None else "sampled",
        "verified": True,
        "out": args.out,
    }
    if sample is not None:
        summary["sample"] = sample
        summary["seed"] = str(representation_seed(spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            rep.write_csv(fp)
        print(_dump(summary))
    else:
        rep.write_csv(sys.stdout)
        print(_dump(summary), file=sys.stderr)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    verdict = conjecture_probe(args.q, args.n)
    print(_dump(verdict.to_json()))
    return 0


# -- verify checks: each returns (status-line title, failures) -------------


def _reciprocity_failures(values: list[list], sizes: list[int], message) -> list[str]:
    # m_j K_i(j) = m_i K_j(i) for every ordered pair (i, j): each value is
    # read as the left-hand side of (i, j) and the right-hand side of (j, i)
    shells = range(len(sizes))
    return [
        message(i, j)
        for i in shells
        for j in shells
        if values[i][j] * sizes[j] != values[j][i] * sizes[i]
    ]


def _check_classical_reciprocity(max_n: int) -> tuple[str, list[str]]:
    failures = []
    for q in (2, 3, 4, 5):
        for n in range(1, max_n + 1):
            shells = range(n + 1)
            values = [[kraw(n, q, i, j) for j in shells] for i in shells]
            sizes = [(q - 1) ** i * binom(n, i) for i in shells]
            failures += _reciprocity_failures(
                values, sizes, lambda i, j: f"classical reciprocity at q={q} n={n} i={i} j={j}"
            )
    return f"classical reciprocity, q in 2..5, n <= {max_n}", failures


def _check_composition_reciprocity(max_n: int) -> tuple[str, list[str]]:
    failures = []
    top = min(max_n, 5)
    for q in (2, 3):
        group = cyclic(q)
        for n in range(1, top + 1):
            comps = list(enumerate_compositions(q, n))
            values = [[gen_kraw(group, n, ci, cj) for cj in comps] for ci in comps]
            sizes = [multinom(n, c) for c in comps]
            failures += _reciprocity_failures(
                values,
                sizes,
                lambda i, j: f"composition reciprocity at q={q} n={n} "
                f"i={tuple(comps[i])} j={tuple(comps[j])}",
            )
    return f"composition reciprocity, q in 2..3, n <= {top}", failures


def _check_projectors(max_n: int) -> tuple[str, list[str]]:
    grids = [(n, q) for q in range(2, 82) for n in range(1, max_n + 1) if q**n <= 81]
    failures = [
        f"projector identities at n={n} q={q}"
        for n, q in grids
        if not projector_identity_check(n, q)
    ]
    return f"projector identities on {len(grids)} grids", failures


def _check_lp_representations(max_n: int) -> tuple[str, list[str]]:
    from .representation import build_representation, verify_representation

    grid = [
        (n, q, d)
        for q in (2, 3)
        for n in range(1, max_n + 1)
        if q**n <= 2187
        for d in range(max(1, -((-(q - 1) * n) // q)), n + 1)
    ]
    failures = []
    for n, q, d in grid:
        rep = build_representation(lp_two_support(n, q, d), cyclic(q))
        try:
            verify_representation(rep, HammingGraphSpec(n, q, d))
        except NotOrthogonal as exc:
            failures.append(f"lp representation at n={n} q={q} d={d}: {exc}")
    return f"lp representations over {len(grid)} graphs", failures


def _check_hadamard_representations(max_n: int) -> tuple[str, list[str]]:
    from .representation import (
        REPRESENTATION_MAX_ROWS,
        hadamard_representation,
        verify_representation,
    )

    failures = []
    count = 0
    for q, make in ((2, cyclic), (3, cyclic), (4, finite_field)):
        group = make(q)
        for n in range(q, max_n + 1, q):
            if q**n > REPRESENTATION_MAX_ROWS:
                break
            spec = CompositionGraphSpec(group, n, Composition.balanced(q, n))
            try:
                verify_representation(hadamard_representation(group, n), spec)
            except NotOrthogonal as exc:
                failures.append(f"hadamard representation at q={q} n={n}: {exc}")
            count += 1
    return f"hadamard representations on {count} graphs", failures


def _check_least_eigenvalues(max_n: int) -> tuple[str, list[str]]:
    failures = []
    for q in (3, 4, 5):
        for n in range(2, max_n + 1):
            d_lo = ((q - 1) * n + 1 + q - 1) // q
            for d in range(d_lo, n + 1):
                spec = HammingGraphSpec(n, q, d)
                spectrum = hamming_spectrum(spec)
                lam, shell = min_eigenvalue(spectrum)
                expected_num = -((q - 1) ** d) * binom(n, d) * (q * d - (q - 1) * n)
                if Fraction(expected_num, (q - 1) * n) != lam or shell != 1:
                    failures.append(f"least-eigenvalue closed form at n={n} q={q} d={d}")
                bound = Fraction(q * d, q * d - (q - 1) * n)
                if hoffman_bound(spectrum) != bound:
                    failures.append(f"spectral bound closed form at n={n} q={q} d={d}")
                # the bound report finds the least eigenvalue by its own route
                if (bound, "hoffman") not in bound_report(spec).lower:
                    failures.append(f"report bound closed form at n={n} q={q} d={d}")
    return f"least-eigenvalue closed forms, n <= {max_n}", failures


def _check_balanced_spectra(max_n: int) -> tuple[str, list[str]]:
    failures = []
    for q in (2, 3, 4):
        for n in range(q, max_n + 1, q):
            spectrum = composition_spectrum(
                CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n))
            )
            if not trace_identity_check(spectrum):
                failures.append(f"trace identity at balanced q={q} n={n}")
            for entry in spectrum.entries:
                value = entry.eigenvalue
                if not isinstance(value, int):
                    failures.append(
                        f"irrational balanced value at q={q} n={n} shell={tuple(entry.label)}"
                    )
                    continue
                if zero_shell_predicate(q, entry.label) and value != 0:
                    failures.append(
                        f"zero-shell prediction at q={q} n={n} shell={tuple(entry.label)}"
                    )
                circ = gen_kraw_circulant(q, n, entry.label)
                if circ != value:
                    failures.append(
                        f"circulant route disagrees at q={q} n={n} shell={tuple(entry.label)}"
                    )
    return f"balanced spectra: trace, zero shells, circulant agreement, n <= {max_n}", failures


def _check_eigenvector_spots(max_n: int) -> tuple[str, list[str]]:
    spot = [
        (HammingGraphSpec(4, 2, 2), (1, 0, 0, 0)),
        (HammingGraphSpec(3, 3, 2), (0, 1, 2)),
        (CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1))), (1, 2, 0)),
    ]
    failures = []
    for spec, x in spot:
        group = cyclic(spec.q) if isinstance(spec, HammingGraphSpec) else spec.group
        if not eigenvector_check(spec, x, all_words(group, spec.n)):
            failures.append(f"eigenvector action at {spec.describe()} x={x}")
    return "eigenvector adjacency action spot checks", failures


_SUITES = {
    "reciprocity": (_check_classical_reciprocity, _check_composition_reciprocity),
    "projectors": (_check_projectors,),
    "representations": (_check_lp_representations, _check_hadamard_representations),
    "eigenvalues": (_check_least_eigenvalues, _check_balanced_spectra, _check_eigenvector_spots),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise DomainError(f"need --max-n >= 1, got {args.max_n}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    for name in names:
        for check in _SUITES[name]:
            title, failed = check(args.max_n)
            print(("FAIL - " if failed else "ok - ") + title)
            failures.extend(failed)
    if failures:
        print(f"FAIL: {failures[0]}")
        return 1
    print(f"all checks passed ({', '.join(names)})")
    return 0


# -- tables -----------------------------------------------------------------


def _parse_grid(text: str) -> tuple[int, tuple[int, ...]]:
    m_n = re.search(r"n\s*(?:≤|<=)\s*(\d+)", text)
    m_q = re.search(r"q\s*(?:∈|in|=)\s*\{([\d\s,]+)\}", text)
    if not m_n or not m_q:
        raise BadLabel(f"cannot parse grid {text!r}; expected like 'n<=10,q in {{2,3}}'")
    max_n = int(m_n.group(1))
    qs = tuple(sorted(int(tok) for tok in m_q.group(1).replace(" ", "").split(",") if tok))
    if max_n < 1 or not qs or any(q < 2 for q in qs):
        raise BadLabel(f"degenerate grid {text!r}")
    return max_n, qs


def _table_upper(max_n: int, qs: tuple[int, ...], out) -> None:
    out.write("n,q,d,regime,lp_objective,regime_cap\n")
    for q in qs:
        for n in range(1, max_n + 1):
            for d in range(1, n + 1):
                report = bound_report(HammingGraphSpec(n, q, d))
                regime = report.diagnostics["regime"]
                cap = report.diagnostics.get("degree_cap") or report.diagnostics.get(
                    "window_cap", ""
                )
                upper = min(v for v, _ in report.upper)
                out.write(f"{n},{q},{d},{regime},{upper},{cap}\n")


def _table_lower(max_n: int, qs: tuple[int, ...], out) -> None:
    out.write("n,q,d,case,hoffman\n")
    for q in qs:
        if q < 3:
            continue
        for n in range(2, max_n + 1):
            for d in range(1, n + 1):
                if q * d < (q - 1) * n:
                    continue
                case = "balanced" if q * d == (q - 1) * n else "strict"
                spectrum = hamming_spectrum(HammingGraphSpec(n, q, d))
                out.write(f"{n},{q},{d},{case},{hoffman_bound(spectrum)}\n")


def _table_exact(max_n: int, qs: tuple[int, ...], out) -> None:
    out.write("family,q,n,lower,upper,exact\n")
    for q in qs:
        for n in range(q, max_n + 1, q):
            specs = [("cyclic", CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n)))]
            try:
                fld = finite_field(q)
            except DomainError:
                fld = None
            if fld is not None:
                specs.append(
                    ("field", CompositionGraphSpec(fld, n, Composition.balanced(q, n)))
                )
            for family, spec in specs:
                report = bound_report(spec)
                lower = max((v for v, _ in report.lower), default=None)
                upper = min((v for v, _ in report.upper), default=None)
                row = (family, q, n, lower, upper, report.exact)
                out.write(",".join("" if v is None else str(v) for v in row) + "\n")


_TABLES = {"1.1": _table_upper, "1.2": _table_lower, "1.3": _table_exact}


def _cmd_table(args: argparse.Namespace) -> int:
    max_n, qs = _parse_grid(args.grid)
    _TABLES[args.theorem](max_n, qs, sys.stdout)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scheme-spectra",
        description="Exact spectra and quantum-chromatic bounds for Hamming and composition graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact spectrum of one graph as JSON")
    _add_graph_flags(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bounds", help="bound report for one graph as JSON")
    _add_graph_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("represent", help="build and verify an orthogonal representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group", choices=("cyclic", "field"), default="cyclic")
    p.add_argument("--modulus", default=None)
    p.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p.add_argument("--sample", type=int, default=None, help="sampled verification pair count")
    p.set_defaults(fn=_cmd_represent)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("probe", help="probe the balanced least-eigenvalue prediction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("table", help="tabulate a bound family over a grid")
    p.add_argument("--theorem", choices=tuple(_TABLES), required=True,
                   help="1.1 upper bounds, 1.2 spectral lower bounds, 1.3 balanced exact values")
    p.add_argument("--grid", required=True, help="like 'n<=10,q in {2,3}'")
    p.set_defaults(fn=_cmd_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Before numpy loads, an unset ``OPENBLAS_NUM_THREADS`` is set to 1: no
    product the library makes goes through BLAS, so a pool would only cost
    start-up time.  A user's own setting is kept, and once numpy is loaded
    its pool exists already, so the environment is then left as it is."""
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _VERIFY_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except _FLAG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
