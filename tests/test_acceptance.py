"""Acceptance gate: nine go/no-go checks with pinned tolerances and runtimes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Each criterion asserts its own wall-clock budget, so a pass
here certifies both correctness and speed on the host that ran it.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from scheme_spectra import (
    Composition,
    CompositionGraphSpec,
    CycInt,
    HammingGraphSpec,
    Infeasible,
    LPSolution,
    NotOrthogonal,
    Spectrum,
    SpectrumEntry,
    binom,
    bound_report,
    build_representation,
    char_value,
    check_lp_solution,
    comp,
    composition_spectrum,
    conjecture_probe,
    cyclic,
    enumerate_compositions,
    enumerate_shell,
    finite_field,
    gen_kraw,
    gen_kraw_circulant,
    hadamard_representation,
    hamming_spectrum,
    hoffman_bound,
    kraw,
    lp_two_support,
    min_eigenvalue,
    multinom,
    multiplicity_ratio,
    projector_identity_check,
    trace_identity_check,
    verify_representation,
    word_char_value,
    zero_shell_predicate,
)


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"criterion {num} ({name}): {verdict} [{elapsed:.2f}s, budget {budget_s}s]")
    assert elapsed < budget_s, f"criterion {num} blew its {budget_s}s budget at {elapsed:.2f}s"


def test_criterion_1_multiplicity_ratio_anchors():
    with criterion(1, "closed-walk ratio anchors", 1):
        anchors = {
            (5, 5): Fraction("1.023"),
            (4, 8): Fraction("1.067"),
            (3, 18): Fraction("1.108"),
        }
        for (q, n), floor in anchors.items():
            value = multiplicity_ratio(q, n)
            assert isinstance(value, Fraction)
            assert value >= floor, (q, n, value)


def test_criterion_2_minimum_eigenvalue_above_the_balance_point():
    with criterion(2, "first-shell minimum, strict regime", 5):
        for q in (3, 4, 5):
            for n in range(1, 9):
                for d in range(1, n + 1):
                    if q * d < (q - 1) * n + 1:
                        continue
                    spectrum = hamming_spectrum(HammingGraphSpec(n, q, d))
                    value, _ = min_eigenvalue(spectrum)
                    num = -((q - 1) ** d) * binom(n, d) * (q * d - (q - 1) * n)
                    assert num % ((q - 1) * n) == 0
                    assert value == num // ((q - 1) * n)
                    assert value == kraw(n, q, d, 1)
                    expected_bound = Fraction(q * d, q * d - (q - 1) * n)
                    assert hoffman_bound(spectrum) == expected_bound


def test_criterion_3_minimum_eigenvalue_at_the_balance_point():
    with criterion(3, "second-shell minimum at the balance point", 5):
        for q, n in ((3, 3), (3, 6), (4, 4), (5, 5)):
            d = (q - 1) * n // q
            assert q * d == (q - 1) * n
            spectrum = hamming_spectrum(HammingGraphSpec(n, q, d))
            value, _ = min_eigenvalue(spectrum)
            num = -((q - 1) ** d) * binom(n, d)
            den = (q - 1) * (n - 1)
            assert num % den == 0
            assert value == num // den
            assert value == kraw(n, q, d, 2)
            assert hoffman_bound(spectrum) == (q - 1) * (n - 1) + 1


def test_criterion_4_cyclic_balanced_graphs_close_exactly():
    with criterion(4, "cyclic balanced graphs: minimum, pattern, exact value", 10):
        for q, n in ((2, 4), (2, 8), (3, 3), (3, 6)):
            balanced = Composition.balanced(q, n)
            spec = CompositionGraphSpec(cyclic(q), n, balanced)
            spectrum = composition_spectrum(spec)
            value, _ = min_eigenvalue(spectrum)
            assert value == Fraction(-multinom(n, balanced), n - 1)
            probe = conjecture_probe(q, n)
            assert probe.verdict == "holds"
            achieved = {tuple(c) for c in probe.achieving}
            pattern = probe.pattern
            shifts = {pattern[s:] + pattern[:s] for s in range(q)}
            assert shifts & achieved, (q, n)
            report = bound_report(spec)
            assert report.exact == n, (q, n, report.exact)


def test_criterion_5_field_balanced_graphs_close_exactly():
    with criterion(5, "field balanced graphs: minimum by brute character sums", 30):
        for q, n in ((3, 3), (3, 9), (4, 4)):
            group = finite_field(q)
            balanced = Composition.balanced(q, n)
            spec = CompositionGraphSpec(group, n, balanced)
            spectrum = composition_spectrum(spec)
            value, label = min_eigenvalue(spectrum)
            assert value == Fraction(-multinom(n, balanced), n - 1)
            if n == q:
                assert value == Fraction(-math.factorial(q), q - 1)
            # independent verification: literal character sum over the
            # generating shell (1680 words for (3,9)) at the minimizing shell
            rep_word = []
            for element, count in enumerate(label):
                rep_word.extend([element] * count)
            x = tuple(rep_word)
            assert comp(group, x) == label
            total = CycInt.from_int(group.char_order, 0)
            for y in enumerate_shell(group, n, balanced):
                total = total + word_char_value(group, x, y)
            assert total == value
            report = bound_report(spec)
            assert report.exact == n, (q, n, report.exact)


def test_criterion_6_representations_verify_and_stay_cheap():
    with criterion(6, "representations: full verification grid", 60):
        # all q in {2,3,4,5} with q^n <= 2187 and d at least ceil((q-1)n/q)
        for q in (2, 3, 4, 5):
            n = 1
            while q**n <= 2187:
                d_lo = -((-(q - 1) * n) // q)
                for d in range(max(1, d_lo), n + 1):
                    solution = lp_two_support(n, q, d)
                    assert solution.objective <= q * d, (n, q, d)
                    rep = build_representation(solution, cyclic(q))
                    assert verify_representation(rep, HammingGraphSpec(n, q, d))
                n += 1
        hadamard_instances = (
            (cyclic(2), 4),
            (cyclic(2), 8),
            (cyclic(3), 3),
            (cyclic(3), 6),
            (finite_field(3), 3),
            (finite_field(3), 9),
            (finite_field(4), 4),
        )
        for group, n in hadamard_instances:
            rep = hadamard_representation(group, n)
            spec = CompositionGraphSpec(group, n, Composition.balanced(group.order, n))
            assert verify_representation(rep, spec)


def test_criterion_7_property_suites():
    with criterion(7, "exhaustive property suites", 60):
        # classical reciprocity
        for q in (2, 3, 4, 5):
            for n in range(1, 9):
                for i in range(n + 1):
                    for j in range(n + 1):
                        assert (
                            (q - 1) ** j * binom(n, j) * kraw(n, q, i, j)
                            == (q - 1) ** i * binom(n, i) * kraw(n, q, j, i)
                        )
        # generalized reciprocity and dual-route agreement
        for q in (2, 3):
            group = cyclic(q)
            for n in range(1, 6):
                comps = list(enumerate_compositions(q, n))
                for ci in comps:
                    for cj in comps:
                        forward = gen_kraw(group, n, ci, cj, method="extraction")
                        backward = gen_kraw(group, n, cj, ci, method="extraction")
                        assert forward * multinom(n, cj) == backward * multinom(n, ci)
                        brute = gen_kraw(group, n, ci, cj, method="brute")
                        assert brute == forward
        # zero-shell and shift-sign laws on balanced rows
        for q in (2, 3, 4):
            for n in range(q, 9, q):
                sign = -1 if ((q - 1) * n // q) % 2 else 1
                for r in enumerate_compositions(q, n):
                    value = gen_kraw_circulant(q, n, r)
                    if zero_shell_predicate(q, r):
                        assert value == 0
                    assert gen_kraw_circulant(q, n, r[1:] + r[:1]) == sign * value
        # character orthogonality for every shipped group
        groups = [cyclic(q) for q in (2, 3, 4, 5, 6, 8)]
        groups += [finite_field(q) for q in (2, 3, 4, 5, 8, 9)]
        for group in groups:
            for g in group.elements():
                row = CycInt.from_int(group.char_order, 0)
                for h in group.elements():
                    row = row + char_value(group, g, h)
                assert row == (group.order if g == 0 else 0)
        # trace identity on every spectrum produced here
        produced = []
        for q in (2, 3, 4):
            for n in range(1, 7):
                for d in range(1, n + 1):
                    produced.append(hamming_spectrum(HammingGraphSpec(n, q, d)))
            for n in range(q, 9, q):
                produced.append(
                    composition_spectrum(
                        CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n))
                    )
                )
        for spectrum in produced:
            assert trace_identity_check(spectrum)
        # projector identities on the full small grid
        q = 2
        while q <= 81:
            n = 1
            while q**n <= 81:
                assert projector_identity_check(n, q)
                n += 1
            q += 1


def test_criterion_8_window_case_objective_cap():
    with criterion(8, "near-balanced window objective cap", 1):
        checked = 0
        for q in (2, 3):
            for n in range(2, 11):
                for d in range(1, n + 1):
                    slack = (q - 1) * n - q * d
                    # d strictly inside ((q-1)n/q - sqrt((q-1)n)/q, (q-1)n/q)
                    if slack <= 0 or slack * slack >= (q - 1) * n:
                        continue
                    solution = lp_two_support(n, q, d)
                    assert solution.objective <= 2 * (q - 1) ** 2 * binom(n, 2), (n, q, d)
                    checked += 1
        assert checked > 0


def test_criterion_9_mutations_are_caught_with_witnesses():
    with criterion(9, "mutation sensitivity", 5):
        spec = HammingGraphSpec(4, 2, 2)
        rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
        mutated = rep.with_entry(0, 0, CycInt.from_int(2, -1))
        with pytest.raises(NotOrthogonal) as err:
            verify_representation(mutated, spec)
        witness = err.value
        assert witness.row_x != witness.row_y
        assert sum(a != b for a, b in zip(witness.word_x, witness.word_y)) == spec.d
        # one multiplicity off by one -> trace identity fails
        spectrum = hamming_spectrum(spec)
        entries = list(spectrum.entries)
        entries[2] = SpectrumEntry(entries[2].label, entries[2].eigenvalue, entries[2].multiplicity + 1)
        corrupted = Spectrum(spectrum.graph, tuple(entries), spectrum.regular_degree, spectrum.vertex_count)
        assert trace_identity_check(spectrum)
        assert not trace_identity_check(corrupted)
        # one LP coefficient bumped -> infeasible with a named constraint
        good = lp_two_support(4, 2, 2)
        bad = LPSolution(4, 2, 2, (good.coefficients[0] + 1,) + good.coefficients[1:])
        with pytest.raises(Infeasible) as lp_err:
            check_lp_solution(bad)
        assert lp_err.value.witness is not None
        assert lp_err.value.witness[0] == "orthogonality"
