"""Graph specs, exact spectra, extreme eigenvalues, projector identities."""

import cmath
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_spectra import (
    BadLabel,
    Composition,
    CompositionGraphSpec,
    CycInt,
    DomainError,
    DivisibilityError,
    HammingGraphSpec,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    OrderMismatch,
    RangeError,
    SizeExceeded,
    SpecMismatch,
    Spectrum,
    SpectrumEntry,
    all_words,
    binom,
    bound_report,
    comp,
    composition_spectrum,
    cyclic,
    eigenvector_check,
    enumerate_compositions,
    finite_field,
    gen_kraw,
    gen_kraw_circulant,
    hamming_spectrum,
    hoffman_bound,
    kraw,
    max_eigenvalue,
    min_eigenvalue,
    multinom,
    multiplicity_ratio,
    projector_identity_check,
    trace_identity_check,
    word_add,
    word_sub,
    weight,
)
from scheme_spectra import composition, schemes
from scheme_spectra.schemes import _extreme

# ---------------------------------------------------------------------------
# graph specs


def test_hamming_spec_basics():
    spec = HammingGraphSpec(5, 3, 2)
    assert spec.vertex_count == 243
    assert spec.degree == 4 * binom(5, 2)
    with pytest.raises(RangeError):
        HammingGraphSpec(5, 3, 6)
    with pytest.raises(DomainError):
        HammingGraphSpec(5, 1, 1)
    with pytest.raises(RangeError):
        HammingGraphSpec(5, 3, 0)


def test_hamming_spec_takes_only_integral_parameters():
    # a float would reach the "exact" outputs (eigenvalue 4.0, multiplicity
    # "4.0") and break the report's exact comparisons
    for args in ((4.0, 2, 1), (4, 2.0, 1), (4, 2, 1.0), (4, 2, Fraction(1))):
        with pytest.raises(TypeError):
            HammingGraphSpec(*args)
    with pytest.raises(TypeError):
        bound_report(HammingGraphSpec(4, 2.0, 1))
    spec = HammingGraphSpec(np.int64(4), np.int64(2), True)
    assert (spec.n, spec.q, spec.d) == (4, 2, 1)
    assert all(type(v) is int for v in (spec.n, spec.q, spec.d))
    assert json.dumps(spec.describe()) == '{"family": "hamming", "n": 4, "q": 2, "d": 1}'
    assert hamming_spectrum(spec).to_json() == hamming_spectrum(HammingGraphSpec(4, 2, 1)).to_json()


def test_composition_spec_basics():
    spec = CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1)))
    assert spec.vertex_count == 27
    assert spec.degree == 6
    assert spec.undirected and spec.balanced
    skew = CompositionGraphSpec(cyclic(3), 3, Composition((1, 2, 0)))
    assert not skew.undirected and not skew.balanced
    with pytest.raises(BadLabel):
        CompositionGraphSpec(cyclic(3), 4, Composition((1, 1, 1)))


@pytest.mark.parametrize(
    "n, dcomp, error, message",
    [
        (0, (0, 0, 0), DomainError, "need n >= 1, got n=0"),
        (2, (1, 1), BadLabel, "composition has 2 parts, expected 3"),
    ],
    ids=["n-0", "part-count"],
)
def test_composition_spec_refusals(n, dcomp, error, message):
    with pytest.raises(error) as exc:
        CompositionGraphSpec(cyclic(3), n, dcomp)
    assert type(exc.value) is error and str(exc.value) == message


def test_composition_spec_takes_only_an_integral_n():
    # a float n was kept, gave "n": 3.0 in the JSON and a bare TypeError
    # from math.comb in the spectrum; a bool gave "n": true
    for n in (3.0, Fraction(3)):
        with pytest.raises(TypeError):
            CompositionGraphSpec(cyclic(3), n, Composition((1, 1, 1)))
    spec = CompositionGraphSpec(cyclic(3), True, Composition((1, 0, 0)))
    assert type(spec.n) is int
    assert json.dumps(spec.describe()["n"]) == "1"
    spec = CompositionGraphSpec(cyclic(3), np.int64(3), Composition((1, 1, 1)))
    assert type(spec.n) is int
    plain = CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1)))
    assert composition_spectrum(spec).to_json() == composition_spectrum(plain).to_json()


# ---------------------------------------------------------------------------
# spectra against a dense eigensolver oracle


def dense_adjacency(spec):
    group = cyclic(spec.q) if isinstance(spec, HammingGraphSpec) else spec.group
    words = list(all_words(group, spec.n))
    index = {w: k for k, w in enumerate(words)}
    size = len(words)
    a = np.zeros((size, size), dtype=np.int64)
    for x in words:
        for y in words:
            diff = word_sub(group, y, x)
            if isinstance(spec, HammingGraphSpec):
                hit = weight(diff) == spec.d
            else:
                hit = comp(group, diff) == spec.dcomp
            if hit:
                a[index[x], index[y]] = 1
    return a


def eig_multiset(matrix):
    vals = np.linalg.eigvalsh(matrix)
    out = {}
    for v in vals:
        key = round(float(v), 6)
        out[key] = out.get(key, 0) + 1
    return out


def spectrum_multiset(spectrum):
    out = {}
    for e in spectrum.entries:
        v = e.eigenvalue
        assert isinstance(v, int)
        out[float(v)] = out.get(float(v), 0) + e.multiplicity
    return out


@pytest.mark.parametrize(
    "spec",
    [
        HammingGraphSpec(3, 2, 2),
        HammingGraphSpec(2, 3, 1),
        HammingGraphSpec(4, 2, 3),
        CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1))),
        CompositionGraphSpec(cyclic(2), 4, Composition((2, 2))),
        CompositionGraphSpec(finite_field(4), 2, Composition((1, 0, 1, 0))),
    ],
    ids=["H322", "H231", "H423", "O3Z3", "O4Z2", "F4pair"],
)
def test_spectrum_matches_dense_eigensolver(spec):
    if isinstance(spec, HammingGraphSpec):
        spectrum = hamming_spectrum(spec)
    else:
        spectrum = composition_spectrum(spec)
    assert eig_multiset(dense_adjacency(spec)) == spectrum_multiset(spectrum)


def test_frozen_hamming_spectrum():
    sp = hamming_spectrum(HammingGraphSpec(3, 3, 3))
    assert [(e.label, e.eigenvalue, e.multiplicity) for e in sp.entries] == [
        (0, 8, 1), (1, -4, 6), (2, 2, 12), (3, -1, 8),
    ]
    assert sp.regular_degree == 8
    assert sp.vertex_count == 27


def test_frozen_balanced_spectrum():
    sp = composition_spectrum(
        CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1)))
    )
    values = {tuple(e.label): e.eigenvalue for e in sp.entries}
    assert values[(3, 0, 0)] == 6
    assert values[(1, 1, 1)] == -3
    assert all(values[k] == 0 for k in values if k not in {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)})
    assert sum(e.multiplicity for e in sp.entries) == 27


def test_binary_composition_spectrum_refines_hamming():
    # over Z_2 the weight-j shell IS the composition shell (n-j, j)
    for n, d in ((4, 2), (6, 3), (8, 5)):
        ham = hamming_spectrum(HammingGraphSpec(n, 2, d))
        comp_sp = composition_spectrum(
            CompositionGraphSpec(cyclic(2), n, Composition((n - d, d)))
        )
        by_shell = {tuple(e.label): e for e in comp_sp.entries}
        for e in ham.entries:
            twin = by_shell[(n - e.label, e.label)]
            assert twin.eigenvalue == e.eigenvalue
            assert twin.multiplicity == e.multiplicity


def test_spectrum_labels_are_colex_ordered():
    sp = composition_spectrum(CompositionGraphSpec(cyclic(3), 4, Composition((2, 1, 1))))
    labels = [tuple(e.label) for e in sp.entries]
    assert labels == [tuple(c) for c in enumerate_compositions(3, 4)]


# ---------------------------------------------------------------------------
# one-pass spectra against the per-value routes


def test_hamming_spectrum_matches_the_closed_form():
    for q in range(2, 8):
        for n in range(1, 41):
            sizes = [(q - 1) ** j * binom(n, j) for j in range(n + 1)]
            for d in range(1, n + 1):
                sp = hamming_spectrum(HammingGraphSpec(n, q, d))
                assert [e.label for e in sp.entries] == list(range(n + 1))
                assert [e.multiplicity for e in sp.entries] == sizes
                expected = [kraw(n, q, d, j) for j in range(n + 1)]
                assert [e.eigenvalue for e in sp.entries] == expected, (n, q, d)
                assert all(type(e.eigenvalue) is int for e in sp.entries)


def _regime_distances(n, q):
    # one d in each regime of the bound report: entropy, the near-balanced
    # window just below the balanced distance, and balanced-or-above
    top = -(-(q - 1) * n // q)
    return (n // 10, top - 1, top, n)


def test_hamming_spectrum_matches_the_reciprocity_oracle(reciprocity_eigenvalues):
    cases = [(n, q, d) for q in range(2, 6) for n in range(1, 41) for d in range(1, n + 1)]
    cases += [
        (n, q, d)
        for q in range(2, 6)
        for n in (299, 301, 1000, 2000)
        for d in _regime_distances(n, q)
    ]
    for n, q, d in cases:
        sp = hamming_spectrum(HammingGraphSpec(n, q, d))
        assert [e.eigenvalue for e in sp.entries] == reciprocity_eigenvalues[n, q, d], (n, q, d)


def test_hamming_eigenvalues_check_every_division():
    # started from 1 instead of m_1 = 6, the first step is 3/6
    with pytest.raises(ArithmeticError, match=r"n=3, q=3, d=1, j=0"):
        schemes._hamming_eigenvalues(3, 3, 1, 1)


# (group, n, generating compositions): balanced, unbalanced and directed
# generators; the directed ones have non-real eigenvalues, so a conjugated
# character or a dropped reciprocity factor cannot hide behind symmetry.
COMPOSITION_GRID = [
    (cyclic(2), 5, [(5, 0), (3, 2), (1, 4), (0, 5)]),
    (cyclic(2), 6, [(3, 3), (4, 2)]),
    (cyclic(3), 3, [(1, 1, 1), (3, 0, 0), (1, 2, 0), (0, 0, 3)]),
    (cyclic(3), 4, [(2, 1, 1), (1, 3, 0), (0, 2, 2)]),
    (cyclic(4), 4, [(1, 1, 1, 1), (2, 1, 0, 1), (1, 2, 1, 0), (0, 0, 4, 0)]),
    (cyclic(5), 5, [(1, 1, 1, 1, 1), (1, 2, 0, 0, 2), (2, 1, 1, 1, 0)]),
    (cyclic(6), 3, [(1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0), (0, 0, 0, 3, 0, 0)]),
    (finite_field(3), 3, [(1, 1, 1), (1, 2, 0)]),
    (finite_field(4), 4, [(1, 1, 1, 1), (2, 1, 0, 1), (0, 3, 1, 0)]),
    (finite_field(8), 2, [(0, 1, 0, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0)]),
    (finite_field(8), 3, [(1, 0, 1, 0, 0, 0, 1, 0)]),
]


@pytest.mark.parametrize(
    "group,n,dcomps", COMPOSITION_GRID, ids=[f"{type(g).__name__}{g.order}-n{n}" for g, n, _ in COMPOSITION_GRID]
)
def test_composition_spectrum_matches_per_shell_values(group, n, dcomps):
    shells = list(enumerate_compositions(group.order, n))
    kinds = set()
    for counts in dcomps:
        spec = CompositionGraphSpec(group, n, Composition(counts))
        sp = composition_spectrum(spec)
        assert [e.label for e in sp.entries] == shells
        assert [e.multiplicity for e in sp.entries] == [multinom(n, j) for j in shells]
        for entry in sp.entries:
            value = entry.eigenvalue
            for method in ("brute", "extraction"):
                expected = gen_kraw(group, n, spec.dcomp, entry.label, method=method)
                assert type(value) is type(expected)
                assert value == expected, (counts, entry.label, method)
            if isinstance(value, CycInt):
                assert CycInt(value.order, value.coeffs).coeffs == value.coeffs
            kinds.add(type(value))
        if spec.undirected:
            assert trace_identity_check(sp)
    if group.char_order > 2:
        assert CycInt in kinds


def test_composition_spectrum_matches_balanced_z6_extraction():
    group = cyclic(6)
    spec = CompositionGraphSpec(group, 6, Composition.balanced(6, 6))
    sp = composition_spectrum(spec)
    rng = random.Random(2026)
    for entry in rng.sample(sp.entries, 40):
        assert entry.eigenvalue == gen_kraw(group, 6, spec.dcomp, entry.label)
    assert trace_identity_check(sp)


# Both used to take minutes (one O(n) closed-form sum per shell, one
# extraction DP per shell); a generous wall budget keeps the one-pass
# routes honest without timing noise.
LARGE_SPECTRUM_BUDGET_S = 10.0


def test_large_hamming_spectrum_is_exact_and_fast():
    n, q, d = 2000, 3, 1000
    start = time.perf_counter()
    sp = hamming_spectrum(HammingGraphSpec(n, q, d))
    assert trace_identity_check(sp)
    assert time.perf_counter() - start < LARGE_SPECTRUM_BUDGET_S
    for j in (0, 1, 2, 3, 999, 1000, 1001, 1999, 2000):
        assert sp.entries[j].eigenvalue == kraw(n, q, d, j)
        assert sp.entries[j].multiplicity == 2**j * binom(n, j)


def test_large_balanced_spectrum_is_exact_and_fast():
    q, n = 5, 20
    start = time.perf_counter()
    sp = composition_spectrum(CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n)))
    assert trace_identity_check(sp)
    assert time.perf_counter() - start < LARGE_SPECTRUM_BUDGET_S
    assert len(sp.entries) == binom(n + q - 1, q - 1)
    by_shell = {tuple(e.label): e.eigenvalue for e in sp.entries}
    rng = random.Random(20)
    spots = [(20, 0, 0, 0, 0), (4, 4, 4, 4, 4), (18, 1, 0, 0, 1), (0, 0, 0, 0, 20)]
    spots += rng.sample(sorted(by_shell), 8)
    for r in spots:
        assert by_shell[r] == gen_kraw_circulant(q, n, Composition(r)), r


def test_composition_spectrum_refuses_work_over_the_cap_up_front(monkeypatch):
    # C(46, 6) = 9366819 shells: the expansion used to run for minutes
    spec = CompositionGraphSpec(cyclic(7), 40, Composition((35, 1, 1, 1, 1, 1, 0)))
    start = time.perf_counter()
    with pytest.raises(SizeExceeded, match=(
        r"^composition spectrum would cost 18359108600 units "
        r"\(shells x n x q x root order, plus 128 per successor table\); cap is 250000000$"
    )):
        composition_spectrum(spec)
    assert time.perf_counter() - start < 1.0
    # the cap is inclusive: Z_3 with n = 4 costs C(6, 2) * 4 * 3 * 3 = 540
    # units, plus 128 for each of its 4 * 3 * 4 / 2 = 24 successor tables
    small = CompositionGraphSpec(cyclic(3), 4, Composition((2, 1, 1)))
    monkeypatch.setattr(composition, "COMPOSITION_MAX_WORK", 3612)
    assert trace_identity_check(composition_spectrum(small))
    monkeypatch.setattr(composition, "COMPOSITION_MAX_WORK", 3611)
    with pytest.raises(SizeExceeded, match="cost 3612 units .* cap is 3611$"):
        composition_spectrum(small)


def test_composition_work_counts_wide_packed_counts():
    # Z_2 with n = 7900 has only 7901 shells, but its counts are 7901 bits
    # wide: 16 chunks of 512 bits, where the narrow estimate read 99.9% of
    # the cap and the expansion ran for minutes
    spec = CompositionGraphSpec(cyclic(2), 7900, Composition((3950, 3950)))
    start = time.perf_counter()
    with pytest.raises(SizeExceeded, match=(
        r"^composition spectrum would cost 3997779200 units \(shells x n x q x root order "
        r"x 16 chunks of 512 bits, plus 128 per successor table\); cap is 250000000$"
    )):
        composition_spectrum(spec)
    assert time.perf_counter() - start < 1.0
    assert 7901 * 7900 * 2 * 2 <= composition.COMPOSITION_MAX_WORK
    # and the degree multinom(n, dcomp), whose n! took 22 s at n = 10^6,
    # is not computed before the cap refuses
    n = 10**6
    spec = CompositionGraphSpec(cyclic(2), n, Composition((n - 1, 1)))
    start = time.perf_counter()
    with pytest.raises(
        SizeExceeded,
        match=r" x 1954 chunks of 512 bits, plus 128 per successor table\); cap is 250000000$",
    ):
        composition_spectrum(spec)
    assert time.perf_counter() - start < 1.0


def test_a_spectrum_over_gf_1024_builds_its_successor_tables_without_recursion(monkeypatch):
    # n = 1, x = e_1: the graph x -> x + 1, whose eigenvalue on shell e_j is
    # phi_j(1) = (-1)^Tr(j).  Its 1024 * 1025 / 2 successor tables, r for
    # each number of parts r = 1..q, are built without a recursion through
    # q, which would pass the interpreter's limit.  The cap charges them
    # (128 units each) and refuses GF(2048) up front.
    monkeypatch.setattr(composition, "_SUCCESSORS", {})  # dropped after the test
    field = finite_field(1024)
    dcomp = Composition((0, 1) + (0,) * 1022)
    sp = composition_spectrum(CompositionGraphSpec(field, 1, dcomp))
    units = [(0,) * j + (1,) + (0,) * (1023 - j) for j in range(1024)]
    assert [e.label for e in sp.entries] == list(map(Composition, units))
    assert [e.eigenvalue for e in sp.entries] == [(-1) ** field.trace(j) for j in range(1024)]
    assert all(e.multiplicity == 1 for e in sp.entries)
    start = time.perf_counter()
    with pytest.raises(SizeExceeded, match=(
        r"^composition spectrum would cost 276955136 units "
        r"\(shells x n x q x root order, plus 128 per successor table\); cap is 250000000$"
    )):
        composition_spectrum(CompositionGraphSpec(finite_field(2048), 1, (0, 1) + (0,) * 2046))
    assert time.perf_counter() - start < 1.0


def test_the_balanced_cap_admits_every_balanced_spectrum_the_composition_cap_admits():
    # composition_spectrum checks COMPOSITION_MAX_WORK first and then runs
    # the balanced route, whose own cap must never refuse what the first
    # admitted; the first admits balanced graphs only up to q = 10
    admitted = 0
    groups = [cyclic(q) for q in range(2, 13)] + [finite_field(q) for q in (4, 8, 9, 16)]
    for group in groups:
        q, m = group.order, group.char_order
        n = q
        while True:
            chunks = int(n * math.log2(q)) // 512 + 1
            if binom(n + q - 1, q - 1) * n * q * m * chunks > composition.COMPOSITION_MAX_WORK:
                break
            assert composition._balanced_work(group, n) <= composition.BALANCED_MAX_WORK, (group, n)
            admitted += 1
            n += q
    assert admitted > 1700


def test_balanced_spectra_take_the_group_determinant_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the packed expansion ran")

    # D itself comes from the packed column of length q, through krawtchouk
    monkeypatch.setattr(composition, "_read_out", refuse)
    sp = composition_spectrum(CompositionGraphSpec(cyclic(3), 6, Composition.balanced(3, 6)))
    assert [e.label for e in sp.entries] == list(enumerate_compositions(3, 6))
    assert [e.multiplicity for e in sp.entries] == [multinom(6, j) for j in enumerate_compositions(3, 6)]
    assert trace_identity_check(sp)
    with pytest.raises(AssertionError, match="the packed expansion ran"):
        composition_spectrum(CompositionGraphSpec(cyclic(3), 6, Composition((3, 2, 1))))


def test_composition_column_refuses_an_expansion_missing_a_shell():
    # a generator of 3 letters expands to the C(5, 2) = 10 monomials of
    # degree 3, not the C(6, 2) = 15 shells of n = 4: labels decoded from
    # those keys would be wrong, so the read-out raises instead
    with pytest.raises(ArithmeticError, match="10 monomials, expected one per composition of n=4"):
        composition._read_out(cyclic(3), 4, Composition((1, 1, 1)))
    values, _ = composition._read_out(cyclic(3), 3, Composition((1, 1, 1)))
    labels, sizes = composition._colex_shells(3, 3)
    column = list(zip(labels, values, sizes))
    assert [j for j, _, _ in column] == [tuple(c) for c in enumerate_compositions(3, 3)]


# ---------------------------------------------------------------------------
# serialization


def test_hamming_spectrum_json_frozen():
    got = json.dumps(hamming_spectrum(HammingGraphSpec(2, 2, 1)).to_json(), sort_keys=True)
    assert got == (
        '{"degree": "2", "entries": ['
        '{"eigenvalue": 2, "multiplicity": "1", "shell": 0}, '
        '{"eigenvalue": 0, "multiplicity": "2", "shell": 1}, '
        '{"eigenvalue": -2, "multiplicity": "1", "shell": 2}], '
        '"graph": {"d": 1, "family": "hamming", "n": 2, "q": 2}, "vertices": "4"}'
    )


def test_irrational_eigenvalue_serializes_as_coefficients():
    sp = composition_spectrum(
        CompositionGraphSpec(cyclic(5), 2, Composition((0, 1, 0, 0, 1)))
    )
    entry = json.dumps(sp.to_json()["entries"][1], sort_keys=True)
    assert entry == (
        '{"eigenvalue": {"coeffs": [-1, 0, -1, -1], "order": 5}, '
        '"multiplicity": "2", "shell": [1, 1, 0, 0, 0]}'
    )


def test_big_multiplicities_serialize_as_decimal_strings():
    sp = hamming_spectrum(HammingGraphSpec(40, 3, 21))
    data = sp.to_json()
    assert data["vertices"] == str(3**40)
    assert data["entries"][20]["multiplicity"] == str(2**20 * binom(40, 20))


def _entry_json(entry):
    """One entry as the spectrum JSON was once built, a call per entry:
    the oracle for Spectrum.to_json's one comprehension."""
    label = entry.label
    value = entry.eigenvalue
    return {
        "shell": label if isinstance(label, int) else list(label.counts),
        "eigenvalue": (
            {"coeffs": list(value._coeffs), "order": value._order}
            if isinstance(value, CycInt)
            else value
        ),
        "multiplicity": str(entry.multiplicity),
    }


def _spectrum_json(spectrum):
    return {
        "graph": None if spectrum.graph is None else spectrum.graph.describe(),
        "entries": [_entry_json(e) for e in spectrum.entries],
        "degree": str(spectrum.regular_degree),
        "vertices": str(spectrum.vertex_count),
    }


JSON_GROUPS = [cyclic(q) for q in range(2, 8)] + [finite_field(q) for q in (4, 8, 9)]


@pytest.mark.parametrize("group", JSON_GROUPS, ids=lambda g: f"{type(g).__name__}{g.order}")
def test_spectrum_json_matches_the_per_entry_oracle(group):
    # every generator of length 3, directed and undirected, and the
    # balanced one of length q
    q = group.order
    kinds = Counter()
    specs = [CompositionGraphSpec(group, 3, x) for x in enumerate_compositions(q, 3)]
    specs.append(CompositionGraphSpec(group, q, Composition.balanced(q, q)))
    for spec in specs:
        spectrum = composition_spectrum(spec)
        kinds["balanced" if spec.balanced else "undirected" if spec.undirected else "directed"] += 1
        kinds["irrational"] += any(isinstance(e.eigenvalue, CycInt) for e in spectrum.entries)
        got = json.dumps(spectrum.to_json())
        assert got == json.dumps(_spectrum_json(spectrum)), spec
    assert kinds["balanced"] and kinds["undirected"]
    # characters of order 2 are real and rational; negation fixes every
    # element of Z_2 and GF(2^k), whose generators are all undirected
    assert kinds["irrational"] or group.char_order == 2
    assert kinds["directed"] or all(group.neg(g) == g for g in range(q))
    spectrum = Spectrum(None, spectrum.entries[:3], spectrum.regular_degree, 1)
    assert json.dumps(spectrum.to_json()) == json.dumps(_spectrum_json(spectrum))


def test_hamming_spectrum_json_matches_the_per_entry_oracle():
    for n, q, d in ((1, 2, 1), (5, 3, 2), (12, 4, 9), (40, 3, 21), (300, 5, 150)):
        spectrum = hamming_spectrum(HammingGraphSpec(n, q, d))
        assert json.dumps(spectrum.to_json()) == json.dumps(_spectrum_json(spectrum)), (n, q, d)


def test_spectra_of_one_shape_share_their_frozen_labels():
    # the labels of a (q, n) are built once: directed, undirected and
    # balanced spectra over any group of order q list the same objects
    spectra = [
        composition_spectrum(CompositionGraphSpec(group, 4, x))
        for group, x in (
            (cyclic(4), (2, 1, 1, 0)),
            (cyclic(4), (1, 1, 1, 1)),
            (cyclic(4), (0, 2, 1, 1)),
            (finite_field(4), (3, 0, 0, 1)),
        )
    ]
    first = spectra[0].entries
    for spectrum in spectra[1:]:
        assert all(a.label is b.label for a, b in zip(first, spectrum.entries, strict=True))
    shared = first[0].label
    with pytest.raises(AttributeError, match="cannot assign to field 'counts'"):
        shared.counts = (0, 0, 0, 4)
    assert shared == Composition((4, 0, 0, 0))
    assert spectra[3].entries[0].label.counts == (4, 0, 0, 0)


def test_each_shell_datum_is_held_once():
    # the read-out's table holds the count tuples and sizes of a (q, n); the
    # frozen labels wrap those same tuples and hold no sizes, and every
    # spectrum, balanced or not, lists the table's own size objects
    labels, sizes = composition._colex_shells(3, 60)
    frozen = composition._shell_labels(3, 60)
    assert type(frozen) is tuple and len(frozen) == len(labels) == 1891
    assert all(type(label) is Composition for label in frozen)
    assert all(label.counts is counts for label, counts in zip(frozen, labels, strict=True))
    for dcomp in ((58, 1, 1), (57, 3, 0), (20, 20, 20)):
        entries = composition_spectrum(CompositionGraphSpec(cyclic(3), 60, dcomp)).entries
        assert all(
            entry.label is label and entry.multiplicity is size
            for entry, label, size in zip(entries, frozen, sizes, strict=True)
        ), dcomp


# ---------------------------------------------------------------------------
# extreme eigenvalues and the spectral chromatic bound


def test_min_eigenvalue_frozen_cases():
    assert min_eigenvalue(hamming_spectrum(HammingGraphSpec(3, 3, 3))) == (-4, 1)
    sp = composition_spectrum(CompositionGraphSpec(cyclic(2), 4, Composition((2, 2))))
    value, label = min_eigenvalue(sp)
    assert value == -2 and tuple(label) == (2, 2)


def test_max_eigenvalue_is_the_degree_row():
    sp = hamming_spectrum(HammingGraphSpec(5, 2, 2))
    assert max_eigenvalue(sp) == (10, 0)


def _numeric(value):
    if isinstance(value, int):
        return float(value)
    m = value.order
    return sum(c * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(value.coeffs)).real


def _float_extreme(sp, sign):
    # Independent of the key ranking: order by a float embedding (the values
    # here are far apart), then take the first entry exactly equal to it.
    values = [e.eigenvalue for e in sp.entries]
    keys = [sign * _numeric(v) for v in values]
    best = values[keys.index(min(keys))]
    ties = [i for i, v in enumerate(values) if v == best]
    return best, sp.entries[ties[0]].label, len(ties)


def _first_extreme(sp, sign):
    best, label, ties = _float_extreme(sp, sign)
    assert ties > 1
    return best, label


@pytest.mark.parametrize(
    "sp",
    [
        hamming_spectrum(HammingGraphSpec(5, 2, 2)),
        composition_spectrum(CompositionGraphSpec(cyclic(5), 3, Composition((1, 1, 0, 0, 1)))),
    ],
    ids=["hamming-5-2-2", "z5-n3-irrational"],
)
def test_extremes_return_the_first_entry_attaining_them(sp):
    assert min_eigenvalue(sp) == _first_extreme(sp, 1)
    assert max_eigenvalue(sp) == _first_extreme(sp, -1)


def test_plotkin_regime_minimum_sits_on_the_first_shell():
    for q in (3, 4, 5):
        for n in range(2, 9):
            d_lo = ((q - 1) * n) // q + 1
            for d in range(d_lo, n + 1):
                sp = hamming_spectrum(HammingGraphSpec(n, q, d))
                value, shell = min_eigenvalue(sp)
                assert shell == 1
                assert value == kraw(n, q, d, 1)
                assert hoffman_bound(sp) == Fraction(q * d, q * d - (q - 1) * n)


def test_balanced_distance_minimum_sits_on_the_second_shell():
    for q, n in ((3, 3), (3, 6), (4, 4), (5, 5)):
        d = (q - 1) * n // q
        sp = hamming_spectrum(HammingGraphSpec(n, q, d))
        value, shell = min_eigenvalue(sp)
        assert shell == 2
        assert value * (q - 1) * (n - 1) == -((q - 1) ** d) * binom(n, d)
        assert hoffman_bound(sp) == (q - 1) * (n - 1) + 1


def test_balanced_composition_minimum_and_pattern():
    cases = {
        (2, 4): (2, 2),
        (2, 8): (6, 2),
        (3, 3): (1, 1, 1),
        (3, 6): (4, 1, 1),
    }
    for (q, n), pattern in cases.items():
        sp = composition_spectrum(
            CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n))
        )
        value, label = min_eigenvalue(sp)
        assert value == Fraction(-multinom(n, Composition.balanced(q, n)), n - 1)
        achieved = {
            tuple(e.label)
            for e in sp.entries
            if e.eigenvalue == value
        }
        assert pattern in achieved


def test_field_balanced_minimum():
    for q, n in ((3, 3), (3, 9), (4, 4)):
        group = finite_field(q)
        sp = composition_spectrum(
            CompositionGraphSpec(group, n, Composition.balanced(q, n))
        )
        value, _ = min_eigenvalue(sp)
        assert value == Fraction(-multinom(n, Composition.balanced(q, n)), n - 1)


def test_single_block_field_minimum_frozen():
    # for n == q over a field the minimum is -(q!)/(q-1)
    sp = composition_spectrum(
        CompositionGraphSpec(finite_field(4), 4, Composition.balanced(4, 4))
    )
    value, label = min_eigenvalue(sp)
    assert value == -8  # -4!/3
    assert tuple(label) == (2, 2, 0, 0)


def test_directed_graph_refuses_extremes():
    sp = composition_spectrum(
        CompositionGraphSpec(cyclic(3), 3, Composition((1, 2, 0)))
    )
    with pytest.raises(NonRealEigenvalue):
        min_eigenvalue(sp)


def _hand_built(*values):
    # a spectrum with the given eigenvalues on shells 0, 1, 2, ...
    entries = tuple(SpectrumEntry(j, value, 1) for j, value in enumerate(values))
    return Spectrum(None, entries, 1, len(values))


_COS_2PI_5 = CycInt.root_of_unity(5, 1) + CycInt.root_of_unity(5, 4)  # 0.309... x 2
_SQRT_2 = CycInt.root_of_unity(8, 1) + CycInt.root_of_unity(8, 7)


def test_extremes_refuse_mixed_root_orders():
    # named in the order the two values meet: the later one against the
    # earlier for the least, the earlier against the later for the largest
    spectrum = _hand_built(_COS_2PI_5, _SQRT_2)
    with pytest.raises(OrderMismatch, match=r"^root orders differ: 8 vs 5$"):
        min_eigenvalue(spectrum)
    with pytest.raises(OrderMismatch, match=r"^root orders differ: 5 vs 8$"):
        max_eigenvalue(spectrum)


@pytest.mark.parametrize(
    "values",
    [
        (_COS_2PI_5, CycInt.root_of_unity(8, 1)),
        (CycInt.root_of_unity(5, 2), _SQRT_2),
        (3, _SQRT_2, _COS_2PI_5, CycInt.root_of_unity(8, 3)),
    ],
    ids=["later", "earlier", "last"],
)
def test_extremes_refuse_a_non_real_value_before_mixed_orders(values):
    for extreme in (min_eigenvalue, max_eigenvalue):
        with pytest.raises(NonRealEigenvalue):
            extreme(_hand_built(*values))


def test_extremes_of_an_empty_spectrum_raise():
    for extreme in (min_eigenvalue, max_eigenvalue):
        with pytest.raises(DomainError, match=r"^empty spectrum$"):
            extreme(_hand_built())


def _pell_pair(k):
    # a + b sqrt 2 = (1 + sqrt 2)^k and a - b sqrt 2, whose product is the
    # integer (-1)^k; the second is a near tie of a and b sqrt 2
    a, b = 1, 0
    for _ in range(k):
        a, b = a + 2 * b, a + b
    return CycInt(8, (a, b, 0, -b)), CycInt(8, (a, -b, 0, b))


@pytest.mark.parametrize(
    "values,least,largest",
    [
        ((2, _COS_2PI_5, -1, _COS_2PI_5, -1, 2), 2, 0),
        ((_COS_2PI_5, -_COS_2PI_5, -_COS_2PI_5, _COS_2PI_5), 1, 0),
        ((CycInt(5, (-1,)), -1, 2, CycInt(5, (2,))), 0, 2),
        ((-1, CycInt(5, (-1,)), CycInt(5, (2,)), 2), 0, 2),
        ((_pell_pair(3)[0] * _pell_pair(3)[1], -1, _pell_pair(3)[1]), 0, 2),
        ((-1, _pell_pair(3)[0] * _pell_pair(3)[1], _pell_pair(3)[1]), 0, 2),
        ((_pell_pair(40)[1], _pell_pair(40)[0] * _pell_pair(40)[1], 1, 0), 3, 1),
        ((1, _pell_pair(40)[0] * _pell_pair(40)[1], _pell_pair(40)[1], 0), 3, 0),
    ],
    ids=["ints-and-golden", "golden-pairs", "int-valued-first", "int-first",
         "pell-3-product-first", "pell-3-int-first", "pell-40-product-first", "pell-40-int-first"],
)
def test_extreme_ties_keep_the_first_shell(values, least, largest):
    # equal values tie, whatever their type: an int against a CycInt with
    # an integer value (the Pell product) ranks neither ahead nor behind
    spectrum = _hand_built(*values)
    assert min_eigenvalue(spectrum) == (values[least], least)
    assert max_eigenvalue(spectrum) == (values[largest], largest)


def test_golden_ratio_minimum_is_compared_exactly():
    sp = composition_spectrum(
        CompositionGraphSpec(cyclic(5), 2, Composition((0, 1, 0, 0, 1)))
    )
    value, label = min_eigenvalue(sp)
    assert value == CycInt(5, (0, 0, 1, 1))  # zeta^2 + zeta^3 == -golden ratio
    assert tuple(label) == (1, 0, 1, 0, 0)
    with pytest.raises(IrrationalEigenvalue):
        hoffman_bound(sp)


def _ranks_below(a, b):
    # a < b as the extremes rank two values: the least of (b, a) is the
    # second exactly when a < b (a tie keeps the first), and the largest of
    # (a, b) must agree
    below = _extreme([b, a], min) == 1
    assert (_extreme([a, b], max) == 1) is below, (a, b)
    return below


def test_irrational_value_orders_against_a_close_integer_above_2_53():
    # 10**20 + zeta + zeta^4 lies about 0.38 below 10**20 + 1; rounding each
    # side to a float on its own made the two inseparable at any precision.
    near = CycInt(5, [10**20, 1, 0, 0, 1])
    assert _ranks_below(near, 10**20 + 1) is True
    assert _ranks_below(10**20 + 1, near) is False


def _fibonacci(count):
    fib = [0, 1]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib


_FIB = _fibonacci(2003)


@pytest.mark.parametrize("k", [*range(1, 61), 200, 701, 1000, 1001, 1500, 2000, 2001])
def test_fibonacci_near_ties_in_q_zeta_5(k):
    # zeta^2 + zeta^3 = -phi, so F(k+1) + F(k)(zeta^2 + zeta^3) = psi^k with
    # psi = (1 - sqrt 5)/2: a value of size 0.618^k, sign (-1)^k, whose
    # coefficients grow like phi^k
    alpha = CycInt(5, (_FIB[k + 1], 0, _FIB[k], _FIB[k]))
    assert _ranks_below(alpha, 0) is (k % 2 == 1)
    assert _ranks_below(0, alpha) is (k % 2 == 0)


def test_pell_near_ties_in_q_zeta_8():
    # zeta - zeta^3 = sqrt 2 in Q(zeta_8); with a + b sqrt 2 = (1 + sqrt 2)^k,
    # a - b sqrt 2 = (1 - sqrt 2)^k has sign (-1)^k
    a, b = 1, 0
    for k in range(1, 1501):
        a, b = a + 2 * b, a + b
        alpha = CycInt(8, (a, -b, 0, b))
        assert _ranks_below(alpha, 0) is (k % 2 == 1), k
        assert _ranks_below(0, alpha) is (k % 2 == 0), k


def _mp_floor(alpha):
    # Test-only oracle: the floor of a real alpha from mpmath at four times
    # the bits its sign would need, far below its distance to any integer.
    import mpmath

    exact = alpha.as_integer()
    if exact is not None:
        return exact
    coeffs = alpha.coeffs
    bits = 4 * (len(coeffs) * sum(abs(c) for c in coeffs).bit_length() + 2)
    with mpmath.workprec(bits):
        value = mpmath.fsum(
            c * mpmath.cospi(mpmath.mpf(2 * k) / alpha.order) for k, c in enumerate(coeffs)
        )
        return int(mpmath.floor(value))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 12]),
    st.lists(st.integers(min_value=-(2**200), max_value=2**200), min_size=12, max_size=12),
)
def test_real_values_order_exactly_against_their_floor(m, coeffs):
    beta = CycInt(m, coeffs)
    alpha = beta + beta.conjugate()
    floor = _mp_floor(alpha)
    assert _ranks_below(alpha, floor) is False
    assert _ranks_below(floor, alpha) is (alpha != floor)
    assert _ranks_below(alpha, floor + 1) is True
    assert _ranks_below(floor + 1, alpha) is False


def _pairwise_extreme(values, sign, real_sign):
    # The pairwise scan the key ranking replaced: a later value displaces the
    # best so far when sign * (value - best) has sign -1, each sign read off
    # the exact difference (the real_sign oracle for an irrational one).
    best = 0
    for i in range(1, len(values)):
        diff = sign * (values[i] - values[best])
        if isinstance(diff, CycInt):
            exact = diff.as_integer()
            below = real_sign(diff) < 0 if exact is None else exact < 0
        else:
            below = diff < 0
        if below:
            best = i
    return best


def _undirected_grid():
    for q, max_n in ((5, 6), (7, 4), (8, 4), (10, 3), (12, 3)):
        for n in range(1, max_n + 1):
            for dcomp in enumerate_compositions(q, n):
                spec = CompositionGraphSpec(cyclic(q), n, dcomp)
                if spec.undirected:
                    yield spec
    # the composition-spectra benchmark's undirected Z_5 and Z_6 bound
    # generators, in every arrangement over the negation pairs
    for q, n, x in (
        (5, 8, (2, 2, 1, 1, 2)),
        (5, 8, (2, 1, 2, 2, 1)),
        (5, 9, (1, 3, 1, 1, 3)),
        (5, 9, (1, 1, 3, 3, 1)),
        (6, 8, (3, 2, 0, 1, 0, 2)),
        (6, 8, (3, 0, 2, 1, 2, 0)),
    ):
        yield CompositionGraphSpec(cyclic(q), n, Composition(x))


def test_extremes_match_the_float_order_on_the_undirected_grid(real_sign):
    # the key ranking against the float order and against the pairwise
    # scan it replaced, for the least and the largest value
    irrational = 0
    for spec in _undirected_grid():
        sp = composition_spectrum(spec)
        values = [e.eigenvalue for e in sp.entries]
        irrational += any(isinstance(v, CycInt) for v in values)
        assert min_eigenvalue(sp) == _float_extreme(sp, 1)[:2], spec
        assert max_eigenvalue(sp) == _float_extreme(sp, -1)[:2], spec
        for pick, sign in ((min, 1), (max, -1)):
            assert _extreme(values, pick) == _pairwise_extreme(values, sign, real_sign), spec
    assert irrational > 30


def test_hoffman_bound_values():
    assert hoffman_bound(hamming_spectrum(HammingGraphSpec(3, 3, 3))) == 3
    assert hoffman_bound(hamming_spectrum(HammingGraphSpec(3, 3, 2))) == 5
    # hand-built two-eigenvalue spectrum: bound collapses to 2
    toy = Spectrum(
        graph=HammingGraphSpec(1, 2, 1),
        entries=(
            SpectrumEntry(0, 1, 1),
            SpectrumEntry(1, -1, 1),
        ),
        regular_degree=1,
        vertex_count=2,
    )
    assert hoffman_bound(toy) == 2


def test_hoffman_needs_a_negative_eigenvalue():
    toy = Spectrum(
        graph=HammingGraphSpec(1, 2, 1),
        entries=(SpectrumEntry(0, 2, 1), SpectrumEntry(1, 1, 1)),
        regular_degree=2,
        vertex_count=2,
    )
    with pytest.raises(NoNegativeEigenvalue):
        hoffman_bound(toy)


# ---------------------------------------------------------------------------
# global identities


def test_trace_identity_on_a_grid():
    for q in (2, 3, 4):
        for n in range(1, 7):
            for d in range(1, n + 1):
                assert trace_identity_check(hamming_spectrum(HammingGraphSpec(n, q, d)))
    for q, n in ((2, 6), (3, 6), (4, 4)):
        sp = composition_spectrum(
            CompositionGraphSpec(cyclic(q), n, Composition.balanced(q, n))
        )
        assert trace_identity_check(sp)


def test_trace_identity_detects_corruption():
    sp = hamming_spectrum(HammingGraphSpec(4, 2, 2))
    entries = list(sp.entries)
    entries[1] = SpectrumEntry(entries[1].label, entries[1].eigenvalue + 1, entries[1].multiplicity)
    corrupted = Spectrum(sp.graph, tuple(entries), sp.regular_degree, sp.vertex_count)
    assert not trace_identity_check(corrupted)


def test_multiplicity_ratio_anchors():
    assert multiplicity_ratio(5, 5) == Fraction(128, 125)
    assert multiplicity_ratio(4, 8) == Fraction(2187, 2048)
    assert multiplicity_ratio(3, 18) == Fraction(47710208, 43046721)
    for q, n in ((5, 5), (4, 8), (3, 18)):
        assert multiplicity_ratio(q, n) > 1


def test_multiplicity_ratio_validation():
    with pytest.raises(DomainError):
        multiplicity_ratio(2, 4)
    with pytest.raises(DivisibilityError):
        multiplicity_ratio(3, 7)
    # a graph without edges, and a negative length, refused before any
    # arithmetic: not a ratio of 0, nor binom's message
    with pytest.raises(DomainError, match=r"^need n >= 1, got n=0$"):
        multiplicity_ratio(3, 0)
    with pytest.raises(DomainError, match=r"^need n >= 1, got n=-3$"):
        multiplicity_ratio(3, -3)


def test_eigenvector_action():
    spec = HammingGraphSpec(4, 2, 2)
    words = list(all_words(cyclic(2), 4))
    assert eigenvector_check(spec, (1, 1, 0, 0), words)
    cspec = CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1)))
    assert eigenvector_check(cspec, (0, 1, 2), all_words(cyclic(3), 3))
    # sampling only part of the vertex set is allowed
    assert eigenvector_check(spec, (1, 0, 1, 0), words[:5])


def test_eigenvector_action_on_long_words():
    # the neighbours of a long word, a shell that recursion per letter
    # could not list, streamed one word at a time: the 1200 words of 1200
    # letters take 11.6 MB when all held
    import tracemalloc

    x = (1,) * 600 + (0,) * 600
    tracemalloc.start()
    try:
        assert eigenvector_check(HammingGraphSpec(1200, 2, 1), x, [x[::-1]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_eigenvector_action_adds_the_shell_words_unchecked(monkeypatch):
    # each sampled letter is added to every letter of the alphabet once, into
    # a row of sums that the shell words, letters by construction, index:
    # n q additions a sampled word, not n per neighbour
    calls = Counter()
    for cls in (type(cyclic(2)), type(finite_field(4))):
        add = cls.add

        def counting(self, a, b, add=add):
            calls[self] += 1
            return add(self, a, b)

        monkeypatch.setattr(cls, "add", counting)
    x = (1,) * 6 + (0,) * 6
    assert eigenvector_check(HammingGraphSpec(12, 2, 6), x, [x, x[::-1]])  # 924 neighbours
    field = finite_field(4)
    spec = CompositionGraphSpec(field, 4, Composition((1, 1, 1, 1)))
    assert eigenvector_check(spec, (0, 1, 2, 3), [])  # the field's trace form, built once
    del calls[field]
    assert eigenvector_check(spec, (0, 1, 2, 3), [(3, 2, 1, 0)])  # 24 neighbours
    assert calls == {cyclic(2): 2 * 12 * 2, field: 4 * 4}
    # a non-letter or a wrong length in a sampled word raises as word_add does
    for group, spec, x in (
        (cyclic(3), HammingGraphSpec(3, 3, 2), (0, 1, 2)),
        (field, CompositionGraphSpec(field, 3, Composition((1, 1, 1, 0))), (0, 1, 2)),
    ):
        for y in ((0, 4, 1), (0, 1.0, 1), (0, -1, 2), (0, 1)):
            with pytest.raises(SpecMismatch) as expected:
                word_add(group, y, (1, 1, 0))
            with pytest.raises(SpecMismatch) as raised:
                eigenvector_check(spec, x, [(0, 0, 0), y])
            assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "spec, x, error, message",
    [
        # with no sampled word, x was never read: a wrong length and a
        # non-letter came back True
        (HammingGraphSpec(2, 2, 1), (0,), SpecMismatch, "word lengths differ: 1 vs 2"),
        (HammingGraphSpec(2, 2, 1), (0, 5), SpecMismatch,
         "5 is not an element index of CyclicGroup(q=2)"),
        # x is read before the eigenvalue, for either family: a long Hamming
        # x raised RangeError "indices i=1, j=3 outside 0..2", a short
        # composition x BadLabel "composition (1, 1, 0) sums to 2, expected 3"
        (HammingGraphSpec(2, 2, 1), (0, 1, 1, 1), SpecMismatch, "word lengths differ: 4 vs 2"),
        (CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1))), (0, 1), SpecMismatch,
         "word lengths differ: 2 vs 3"),
        (CompositionGraphSpec(cyclic(3), 3, Composition((1, 1, 1))), (0, 1, 3), SpecMismatch,
         "3 is not an element index of CyclicGroup(q=3)"),
    ],
    ids=["hamming-short", "hamming-non-letter", "hamming-long", "composition-short",
         "composition-non-letter"],
)
def test_eigenvector_action_checks_x_with_no_sample(spec, x, error, message):
    with pytest.raises(error) as raised:
        eigenvector_check(spec, x, [])
    assert type(raised.value) is error and str(raised.value) == message
    if error is SpecMismatch:
        # as a sampled word reads it
        with pytest.raises(SpecMismatch) as sampled:
            eigenvector_check(spec, x, [(0, 0)])
        assert str(sampled.value) == message


def test_spectrum_does_not_depend_on_the_field_modulus():
    # the eigenvalue multiset is an invariant of the field, not of the
    # modulus used to coordinatize it
    def sorted_values(group, n, counts):
        sp = composition_spectrum(CompositionGraphSpec(group, n, Composition(counts)))
        vals = []
        for e in sp.entries:
            value = e.eigenvalue
            cyc = value if isinstance(value, CycInt) else CycInt.from_int(group.char_order, value)
            vals.extend([cyc.coeffs] * e.multiplicity)
        return sorted(vals)

    f8a, f8b = finite_field(8, (1, 1, 0, 1)), finite_field(8, (1, 0, 1, 1))
    assert sorted_values(f8a, 2, (0, 1, 0, 0, 0, 1, 0, 0)) == sorted_values(
        f8b, 2, (0, 1, 0, 0, 0, 1, 0, 0)
    )
    f9a, f9b = finite_field(9, (1, 0, 1)), finite_field(9, (2, 1, 1))
    assert sorted_values(f9a, 2, (0, 2, 0, 0, 0, 0, 0, 0, 0)) == sorted_values(
        f9b, 2, (0, 2, 0, 0, 0, 0, 0, 0, 0)
    )


# ---------------------------------------------------------------------------
# projector identities


def test_projector_identities_on_the_full_small_grid():
    count = 0
    q = 2
    while q <= 81:
        n = 1
        while q**n <= 81:
            assert projector_identity_check(n, q)
            count += 1
            n += 1
        q += 1
    assert count == 95


def test_projector_size_guard():
    with pytest.raises(SizeExceeded):
        projector_identity_check(4, 5)


@pytest.mark.parametrize("n,q", [(0, 2), (-1, 2), (2, 1), (2, -2)])
def test_projector_check_refuses_a_domain_without_shells(n, q):
    # refused with the message of kraw, before numpy reads the shape (q,) * n
    with pytest.raises(DomainError, match=f"^need n >= 1 and q >= 2, got n={n}, q={q}$"):
        projector_identity_check(n, q)
