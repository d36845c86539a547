"""Krawtchouk evaluation: defining sums, recurrences, and the circulant route.

Every closed-form value asserted here was frozen from an independent
brute-force character sum (see the oracle helpers at the top).
"""

import functools
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scheme_spectra import (
    BadLabel,
    Composition,
    CompositionGraphSpec,
    CycInt,
    DivisibilityError,
    DomainError,
    NotFound,
    RangeError,
    SizeExceeded,
    UnsupportedSize,
    binom,
    comp,
    composition_spectrum,
    cyclic,
    enumerate_compositions,
    enumerate_shell,
    first_nonpositive,
    first_root_ratio,
    gen_kraw,
    gen_kraw_circulant,
    kraw,
    kraw_column,
    multinom,
    word_char_value,
    zero_shell_predicate,
)
from scheme_spectra import composition, finite_field, krawtchouk
from scheme_spectra.composition import _balanced_shells, _group_determinant, _read_out
from scheme_spectra.oracles import CIRCULANT_MAX_Q, _circulant_determinant

# ---------------------------------------------------------------------------
# oracles


def char_sum_oracle(group, n, shell_label, x):
    """Sum the character of x over a shell, one word at a time."""
    total = CycInt.from_int(group.char_order, 0)
    for y in enumerate_shell(group, n, shell_label):
        total = total + word_char_value(group, x, y)
    return total


# ---------------------------------------------------------------------------
# classical values


def test_frozen_table_n4_q2():
    table = [[kraw(4, 2, i, j) for j in range(5)] for i in range(5)]
    assert table == [
        [1, 1, 1, 1, 1],
        [4, 2, 0, -2, -4],
        [6, 0, -2, 0, 6],
        [4, -2, 0, 2, -4],
        [1, -1, 1, -1, 1],
    ]


def test_frozen_rows_n3_q3():
    assert [kraw(3, 3, 1, j) for j in range(4)] == [6, 3, 0, -3]
    assert [kraw(3, 3, 2, j) for j in range(4)] == [12, 0, -3, 3]


@pytest.mark.parametrize("q", [2, 3])
def test_kraw_equals_character_sum(q):
    group = cyclic(q)
    for n in (1, 2, 3, 4):
        for j in range(n + 1):
            x = tuple([1] * j + [0] * (n - j))
            for i in range(n + 1):
                expected = char_sum_oracle(group, n, i, x)
                assert expected == kraw(n, q, i, j)


def test_kraw_at_zero_is_shell_size():
    for n, q in ((5, 2), (4, 3), (3, 5)):
        for i in range(n + 1):
            assert kraw(n, q, i, 0) == (q - 1) ** i * binom(n, i)


def test_linear_kraw_closed_form():
    for n, q in ((6, 2), (5, 3), (7, 4)):
        for j in range(n + 1):
            assert kraw(n, q, 1, j) == (q - 1) * n - q * j


def test_reciprocity_exhaustive():
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            for i in range(n + 1):
                for j in range(n + 1):
                    lhs = (q - 1) ** j * binom(n, j) * kraw(n, q, i, j)
                    rhs = (q - 1) ** i * binom(n, i) * kraw(n, q, j, i)
                    assert lhs == rhs


def test_columns_sum_to_zero_off_the_origin():
    for q in (2, 3, 5):
        for n in range(1, 8):
            for j in range(n + 1):
                total = sum(kraw(n, q, i, j) for i in range(n + 1))
                assert total == (q**n if j == 0 else 0)


def test_kraw_argument_validation():
    with pytest.raises(DomainError):
        kraw(4, 1, 1, 1)
    with pytest.raises(DomainError):
        kraw(-1, 2, 0, 0)
    with pytest.raises(RangeError):
        kraw(4, 2, 5, 1)
    with pytest.raises(RangeError):
        kraw(4, 2, 1, -1)


def test_kraw_column_matches_the_closed_form():
    # every column of every table up to n = 40, so a wrong sign or factor
    # in any recurrence term shows up somewhere
    for q in range(2, 8):
        for n in range(1, 41):
            for x in range(n + 1):
                column = kraw_column(n, q, x)
                assert column == [kraw(n, q, i, x) for i in range(n + 1)], (n, q, x)
                assert all(type(k) is int for k in column)


def test_kraw_column_validation_matches_kraw():
    for args in ((4, 1, 1), (0, 2, 0), (-1, 2, 0)):
        with pytest.raises(DomainError):
            kraw(*args[:2], 0, args[2])
        with pytest.raises(DomainError):
            kraw_column(*args)
    for x in (-1, 5):
        with pytest.raises(RangeError):
            kraw(4, 2, 0, x)
        with pytest.raises(RangeError):
            kraw_column(4, 2, x)
    for args in ((4.0, 2, 1), (4, 2, 1.0)):
        with pytest.raises(TypeError):
            kraw(args[0], args[1], 1, args[2])
        with pytest.raises(TypeError):
            kraw_column(*args)
    # q too, or the column would come out as floats [1, 2.0, 0.0, -2.0, -1.0]
    # and kraw(4, 2.0, 1, 1) as 2.0
    with pytest.raises(TypeError):
        kraw_column(4, 2.0, 1)
    with pytest.raises(TypeError):
        kraw(4, 2.0, 1, 1)
    # and an integer-like q (numpy, bool) is read as a Python int, so the
    # values stay exact where int64 would wrap
    column = kraw_column(60, np.int64(3), 1)
    assert column == kraw_column(60, 3, 1)
    assert all(type(k) is int for k in column)
    assert kraw_column(4, 2, True) == kraw_column(4, 2, 1)


def test_shell_sizes_are_cached_tuples_of_the_closed_form():
    for q in range(2, 10):
        for n in [*range(61), 150, 400, 1000]:
            sizes = krawtchouk._shell_sizes(n, q)
            assert type(sizes) is tuple, (n, q)
            assert sizes == tuple((q - 1) ** j * binom(n, j) for j in range(n + 1)), (n, q)
            # a repeat call is a cache hit, the very same immutable tuple
            assert krawtchouk._shell_sizes(n, q) is sizes
    assert krawtchouk._shell_sizes.cache_info().maxsize == 8


def test_first_nonpositive():
    assert first_nonpositive(8, 2, 3) == 2
    assert first_nonpositive(9, 3, 6) == 1
    assert first_nonpositive(4, 2, 2) == 1  # K_1(2) = 0 counts
    with pytest.raises(NotFound):
        first_nonpositive(5, 2, 0)


def test_first_nonpositive_matches_a_closed_form_scan():
    for q in (2, 3, 5):
        for n in range(1, 16):
            for d in range(1, n + 1):
                scan = next(j for j in range(1, n + 1) if kraw(n, q, d, j) <= 0)
                assert first_nonpositive(n, q, d) == scan


def test_first_nonpositive_errors():
    # the same exception types as the per-value scan it replaced
    for n in (1, 6):
        with pytest.raises(NotFound):
            first_nonpositive(n, 3, 0)
    for n in (0, -2):  # no shells to scan
        with pytest.raises(NotFound):
            first_nonpositive(n, 3, 1)
    with pytest.raises(RangeError):
        first_nonpositive(6, 3, 7)
    with pytest.raises(RangeError):
        first_nonpositive(6, 3, -1)
    with pytest.raises(DomainError):
        first_nonpositive(6, 1, 2)


# ---------------------------------------------------------------------------
# composition-indexed values


def test_gen_kraw_routes_agree():
    for q in (2, 3):
        group = cyclic(q)
        for n in (1, 2, 3, 4):
            comps = list(enumerate_compositions(q, n))
            for ci, cj in itertools.product(comps, repeat=2):
                a = gen_kraw(group, n, ci, cj, method="brute")
                b = gen_kraw(group, n, ci, cj, method="extraction")
                assert a == b


def test_gen_kraw_is_independent_of_the_representative():
    group = cyclic(3)
    n, i, j = 5, Composition((2, 2, 1)), Composition((2, 1, 2))
    reference = gen_kraw(group, n, i, j)
    rng = random.Random(11)
    reps = list(enumerate_shell(group, n, j))
    for x in rng.sample(reps, 6):
        assert comp(group, x) == j
        assert char_sum_oracle(group, n, i, x) == reference


def test_gen_kraw_against_raw_character_sum():
    group = cyclic(4)
    n = 3
    i, j = Composition((1, 1, 0, 1)), Composition((1, 0, 2, 0))
    x = (2, 2, 0)
    assert comp(group, x) == j
    assert gen_kraw(group, n, i, j) == char_sum_oracle(group, n, i, x)


def test_generalized_reciprocity():
    for q in (2, 3):
        group = cyclic(q)
        for n in (2, 3, 4, 5):
            comps = list(enumerate_compositions(q, n))
            for ci, cj in itertools.product(comps, repeat=2):
                lhs = gen_kraw(group, n, ci, cj) * multinom(n, cj)
                rhs = gen_kraw(group, n, cj, ci) * multinom(n, ci)
                assert lhs == rhs


def test_composition_values_refine_weight_values():
    # summing over all composition shells of a fixed weight recovers the
    # classical value at the representative word
    group = cyclic(3)
    n = 4
    x = (1, 1, 2, 0)  # weight 3
    for w in range(n + 1):
        total = CycInt.from_int(group.char_order, 0)
        for ci in enumerate_compositions(3, n):
            if n - ci[0] == w:
                total = total + gen_kraw(group, n, ci, comp(group, x))
        assert total == kraw(n, 3, w, 3)


def test_gen_kraw_validation():
    group = cyclic(3)
    with pytest.raises(BadLabel, match=r"^composition \(1, 1, 0\) sums to 2, expected 3$"):
        gen_kraw(group, 3, Composition((1, 1, 0)), Composition((1, 1, 1)))
    with pytest.raises(BadLabel, match=r"^composition has 2 parts, expected 3$"):
        gen_kraw(group, 3, Composition((1, 1, 1)), Composition((3, 0)))
    with pytest.raises(DomainError):
        gen_kraw(group, 3, Composition((1, 1, 1)), Composition((1, 1, 1)), method="magic")
    # tuple labels with a negative count: brute returned 2 for the first
    # (zip cut the word of length 3 short), extraction raised ValueError,
    # IndexError and AttributeError
    for n, i, j in ((2, (1, 1), (3, -1)), (2, (3, -1), (1, 1)), (-1, (-1, 0), (-1, 0))):
        for method in ("brute", "extraction"):
            with pytest.raises(BadLabel):
                gen_kraw(cyclic(2), n, i, j, method=method)
    # a non-integral length passed the sum check: brute returned 9 for 6.0
    # where extraction raised AttributeError; both refuse it as kraw does
    balanced = Composition((2, 2, 2))
    for n in (6.0, Fraction(6)):
        for method in ("brute", "extraction"):
            with pytest.raises(TypeError):
                gen_kraw(group, n, balanced, balanced, method=method)
    assert gen_kraw(group, np.int64(6), balanced, balanced) == 9


def test_gen_kraw_is_refused_where_the_composition_spectrum_is(monkeypatch):
    # the default route expands the product a spectrum of the same (q, n)
    # expands, which took 5.4 s and 202 MB here; it is refused up front
    # with the spectrum's message
    group = cyclic(3)
    spec = CompositionGraphSpec(group, 400, Composition((398, 1, 1)))
    with pytest.raises(SizeExceeded) as refused:
        composition_spectrum(spec)
    start = time.perf_counter()
    with pytest.raises(SizeExceeded) as raised:
        gen_kraw(group, 400, (398, 1, 1), (134, 133, 133))
    assert time.perf_counter() - start < 1.0
    assert str(raised.value) == str(refused.value)
    assert str(raised.value).startswith("composition spectrum would cost 580634400 units ")
    # the cap is the spectrum's own, read when called, and the brute
    # method has none
    small = Composition((2, 1, 1))
    assert gen_kraw(group, 4, small, small) == gen_kraw(group, 4, small, small, method="brute")
    monkeypatch.setattr(composition, "COMPOSITION_MAX_WORK", 3611)
    with pytest.raises(SizeExceeded, match="cost 3612 units .* cap is 3611$"):
        gen_kraw(group, 4, small, small)
    assert gen_kraw(group, 4, small, small, method="brute") == -3


def test_certified_integer_passthrough():
    group = cyclic(2)
    val = gen_kraw(group, 4, Composition((2, 2)), Composition((2, 2)))
    assert type(val) is int
    assert val == -2


def test_gen_kraw_is_a_plain_int_exactly_when_rational():
    group = cyclic(5)
    kinds = set()
    for ci, cj in itertools.product(enumerate_compositions(5, 2), repeat=2):
        for method in ("brute", "extraction"):
            value = gen_kraw(group, 2, ci, cj, method=method)
            if isinstance(value, CycInt):
                assert value.as_integer() is None
            else:
                assert type(value) is int
            kinds.add(type(value))
    assert kinds == {int, CycInt}


# ---------------------------------------------------------------------------
# circulant-determinant route, balanced rows only


def test_circulant_frozen_values():
    assert gen_kraw_circulant(2, 4, Composition((4, 0))) == 6
    assert gen_kraw_circulant(2, 4, Composition((2, 2))) == -2
    assert gen_kraw_circulant(3, 3, Composition((1, 1, 1))) == -3
    assert gen_kraw_circulant(3, 6, Composition((2, 2, 2))) == 9
    assert gen_kraw_circulant(5, 5, Composition((1, 1, 1, 1, 1))) == -5


def test_circulant_matches_extraction_everywhere():
    for q, n in ((2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4), (5, 5)):
        group = cyclic(q)
        balanced = Composition.balanced(q, n)
        for r in enumerate_compositions(q, n):
            expected = gen_kraw(group, n, balanced, r)
            assert type(expected) is int
            assert gen_kraw_circulant(q, n, r) == expected


def test_circulant_matches_extraction_sampled_large_q():
    # q = 6 and q = 7 have too many shells for the exhaustive sweep, so fix
    # a deterministic sample
    rng = random.Random(1729)
    for q, n in ((6, 6), (7, 7)):
        group = cyclic(q)
        balanced = Composition.balanced(q, n)
        shells = list(enumerate_compositions(q, n))
        for r in rng.sample(shells, 8):
            expected = gen_kraw(group, n, balanced, r)
            assert type(expected) is int
            assert gen_kraw_circulant(q, n, r) == expected


def test_extraction_matches_circulant_past_the_sweeps():
    # the sweeps above stop at n = 7; the circulant route shares no code
    # with the generating-product expansion
    rng = random.Random(30)
    for q, n in ((3, 30), (4, 16)):
        group = cyclic(q)
        balanced = Composition.balanced(q, n)
        shells = [Composition((n,) + (0,) * (q - 1)), balanced]
        shells += [comp(group, [rng.randrange(q) for _ in range(n)]) for _ in range(6)]
        for r in shells:
            assert gen_kraw(group, n, balanced, r) == gen_kraw_circulant(q, n, r), (q, r)


def test_extraction_matches_brute_on_lopsided_targets():
    # a target such as (n-2, 1, 1) has a small shell, so the literal
    # character sum reaches n = 60, where the extraction expands the whole
    # product, as a spectrum does; (n-2, 2, 0) and (n-2, 0, 2) are not
    # closed under negation, so their values are not real and a conjugated
    # route fails
    rng = random.Random(40)
    group = cyclic(3)
    for n in range(40, 61):
        i = Composition([(n - 2, 1, 1), (n - 2, 2, 0), (n - 2, 0, 2)][n % 3])
        j = comp(group, [rng.randrange(3) for _ in range(n)])
        assert gen_kraw(group, n, i, j) == gen_kraw(group, n, i, j, method="brute"), (n, j)


def test_brute_reaches_long_words():
    # the character sum over the (1199, 1) shell, from the least word of
    # (600, 600); recursion per letter overflowed the stack at n = 1200
    group = cyclic(2)
    i, j = Composition((1199, 1)), Composition((600, 600))
    assert gen_kraw(group, 1200, i, j, method="brute") == gen_kraw(group, 1200, i, j) == 0


def test_circulant_guards():
    with pytest.raises(UnsupportedSize):
        gen_kraw_circulant(8, 8, Composition((1,) * 8))
    with pytest.raises(DivisibilityError):
        gen_kraw_circulant(3, 7, Composition((3, 2, 2)))
    with pytest.raises(BadLabel, match=r"^composition \(3, 2\) sums to 5, expected 4$"):
        gen_kraw_circulant(2, 4, Composition((3, 2)))


@pytest.mark.parametrize(
    "q, n, r, error, message",
    [
        (1, 2, (2,), DomainError, "need q >= 2, got 1"),
        (2, 2, (1, 1, 0), BadLabel, "composition has 3 parts, expected 2"),
    ],
    ids=["q-1", "part-count"],
)
def test_circulant_refusals(q, n, r, error, message):
    with pytest.raises(error) as exc:
        gen_kraw_circulant(q, n, r)
    assert type(exc.value) is error and str(exc.value) == message


# ---------------------------------------------------------------------------
# balanced route: a power of the group determinant, read out on its nonzero
# shells, against the packed expansion (character sums, independent of D)


def test_balanced_route_matches_the_packed_column(balanced_grid, packed_balanced_columns):
    group, top = balanced_grid
    q = group.order
    for n in range(q, top + 1, q):
        packed = packed_balanced_columns[group, n]
        assert all(type(value) is int for _, value, _ in packed)
        nonzero = [(tuple(j), value) for j, value, _ in packed if value != 0]
        got = _balanced_shells(group, n)
        assert [(tuple(j), value) for j, value in got] == nonzero, n
        assert all(type(j) is tuple for j, _ in got)


def test_group_determinant_is_the_circulant_determinant():
    for q in range(2, CIRCULANT_MAX_Q + 1):
        det = {tuple(j): coeff for j, coeff in _group_determinant(cyclic(q))}
        assert det == _circulant_determinant(q), q


def test_group_determinant_refuses_a_non_integer_coefficient(monkeypatch):
    # the column of the unbalanced generator (2, 1, 0) has irrational
    # coefficients; the balanced one of length q never does
    column = _read_out(cyclic(3), 3, Composition((2, 1, 0)))
    monkeypatch.setattr(composition, "_read_out", lambda *args: column)
    _group_determinant.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"^group determinant of .* has coefficient"):
            _group_determinant(cyclic(3))
    finally:
        _group_determinant.cache_clear()


# ---------------------------------------------------------------------------
# the one-pass read-out of the packed expansion


def _rotating_expand(group, n, x):
    """The former packed expansion, kept as the oracle: every factor in
    the order of x, every move rotated, e = 0 included."""
    m, q = group.char_order, group.order
    width = (q**n).bit_length()
    full = (1 << (m * width)) - 1
    keys = [(n + 1) ** g for g in range(q)]
    poly = {0: 1}
    for h, copies in enumerate(tuple(x)):
        moves = []
        for g in range(q):
            e = group.char_exponent(h, g) % m
            moves.append((keys[g], e * width, (m - e) * width))
        for _ in range(copies):
            nxt = {}
            get = nxt.get
            for step, up, down in moves:
                for key, packed in poly.items():
                    dest = key + step
                    nxt[dest] = get(dest, 0) + (((packed << up) & full) | (packed >> down))
            poly = nxt
    return poly, width


@functools.cache
def _oracle_expand(group, n, x):
    """_rotating_expand once per generator: the grid tests below read the
    same oracle expansion several times."""
    return _rotating_expand(group, n, x)


def _oracle_values(poly):
    """The oracle's coefficients in ascending key order, which is colex order."""
    return [poly[key] for key in sorted(poly)]


def _count_vectors(group, n, x):
    """The count vector of every shell's coefficient, in colex order, from
    the oracle expansion."""
    m = group.char_order
    poly, width = _oracle_expand(group, n, x)
    mask = (1 << width) - 1
    return [
        tuple((poly[key] >> s) & mask for s in range(0, m * width, width)) for key in sorted(poly)
    ]


def _two_pass_column(group, n, x):
    """The former read-out, kept as the oracle: (j, K_j(x), size) with the
    label decoded from its key, the value as a CycInt and the size as the
    coefficient's count total."""
    m, q = group.char_order, group.order
    poly, width = _oracle_expand(group, n, x)
    assert len(poly) == binom(n + q - 1, q - 1)
    mask = (1 << width) - 1
    out = []
    for key in sorted(poly):
        packed = poly[key]
        counts = [(packed >> s) & mask for s in range(0, m * width, width)]
        label = []
        for _ in range(q):
            key, c = divmod(key, n + 1)
            label.append(c)
        out.append((Composition(tuple(label)), CycInt(m, counts), sum(counts)))
    return out


def _two_pass_rescale(value, num, den):
    """The former second pass: value * num / den, coefficient by coefficient."""
    coeffs = []
    for c in value.coeffs:
        quo, rem = divmod(c * num, den)
        if rem:
            raise ArithmeticError(f"{value!r} * {num} / {den} is not a cyclotomic integer")
        coeffs.append(quo)
    if any(coeffs[1:]):
        return CycInt(value.order, coeffs)
    return coeffs[0]


def _plain(value):
    integer = value.as_integer()
    return value if integer is None else integer


def _mirror(group, label):
    return tuple(label[group.neg(g)] for g in range(group.order))


def _colex_key(label):
    return tuple(reversed(label))


# every composition over Z_2..Z_5 with n <= 6 and over Z_6, Z_7, GF(4),
# GF(8) and GF(9) with n <= 3: directed and undirected generators alike
READ_OUT_GRID = [(cyclic(q), 6) for q in (2, 3, 4, 5)] + [
    (group, 3)
    for group in (cyclic(6), cyclic(7), finite_field(4), finite_field(8), finite_field(9))
]


@pytest.mark.parametrize(
    "group,top", READ_OUT_GRID, ids=[f"{type(g).__name__}{g.order}" for g, _ in READ_OUT_GRID]
)
def test_read_out_matches_the_two_pass_oracle(group, top):
    rng = random.Random(f"{group!r}")
    flips = any(group.neg(g) != g for g in group.elements())
    undirected = 0
    for n in range(1, top + 1):
        for x in enumerate_compositions(group.order, n):
            oracle = _two_pass_column(group, n, x)
            degree = multinom(n, x)
            labels, sizes = composition._colex_shells(group.order, n)
            values, plain_computed = _read_out(group, n, x)
            column = list(zip(labels, values, sizes))
            assert [(Composition(j), v, s) for j, v, s in column] == [
                (j, _plain(v), s) for j, v, s in oracle
            ]
            values, computed = _read_out(group, n, x, degree)
            column = list(zip(labels, values, sizes))
            expected = [(j, _two_pass_rescale(v, degree, s), s) for j, v, s in oracle]
            assert [(Composition(j), v, s) for j, v, s in column] == expected, (n, x)
            assert [type(v) for _, v, _ in column] == [type(v) for _, v, _ in expected]
            # computed: the first shell of each distinct packed coefficient,
            # in order; every other shell's count vector is that of an
            # earlier listed shell (counts, not values: for composite m
            # equal values need not have equal counts)
            counts = _count_vectors(group, n, x)
            first_of = {}
            for i, c in enumerate(counts):
                first_of.setdefault(c, i)
            assert list(computed) == list(plain_computed) == sorted(first_of.values())
            listed = {counts[k]: k for k in computed}
            assert all(listed[c] <= i for i, c in enumerate(counts))
            labels = [j for j, _, _ in column]
            index = {j: i for i, j in enumerate(labels)}
            if flips and group.is_negation_closed(x):
                undirected += 1
                assert all(column[index[_mirror(group, j)]][1] == v for j, v, _ in column)
            # the brute character sum on sampled shells: K_x(j) = eigenvalue
            for j, value, _ in rng.sample(column, min(2, len(column))):
                assert gen_kraw(group, n, x, Composition(j), method="brute") == value
    assert undirected > 0 or not flips


@pytest.mark.parametrize(
    "group,top", READ_OUT_GRID, ids=[f"{type(g).__name__}{g.order}" for g, _ in READ_OUT_GRID]
)
def test_expand_matches_the_rotating_oracle(group, top):
    # the kernel adds e = 0 moves unrotated, takes the trivial character's
    # factors last and lists the coefficients in colex order: the same
    # product, so the oracle's coefficients in ascending key order, on
    # every grid generator
    q, m = group.order, group.char_order
    # The z_(q-1) move's table is a range, written as one slice: a plain
    # copy for a character trivial at q - 1 and a rotated one otherwise.
    # The trivial character h = 0 gives the first and h = 1 the second in
    # every group of the grid, so the grid's generator (1, 1, 0, ..., 0)
    # takes both copies.
    assert group.char_exponent(0, q - 1) % m == 0 and group.char_exponent(1, q - 1) % m
    assert all(type(composition._successors(q, t)[q - 1]) is range for t in range(top))
    both = (1, 1) + (0,) * (q - 2)
    assert both in [tuple(x) for x in enumerate_compositions(q, 2)]
    for n in range(1, top + 1):
        for x in enumerate_compositions(q, n):
            poly, width = _oracle_expand(group, n, x)
            assert composition._expand(group, n, x) == (_oracle_values(poly), width), (n, x)


@pytest.mark.parametrize(
    "group", [cyclic(5), finite_field(8), finite_field(9)], ids=lambda g: f"{type(g).__name__}{g.order}"
)
def test_expand_reads_the_characters_of_its_factors_only(monkeypatch, group):
    # phi_h is read at every g exactly when x_h > 0: a field's character
    # costs a k x k form, not a table lookup
    q = group.order
    reads = []
    exponent = type(group).char_exponent

    def recording(self, h, g):
        reads.append(h)
        return exponent(self, h, g)

    monkeypatch.setattr(type(group), "char_exponent", recording)
    rng = random.Random(q)
    for n in (1, 2, 3):
        shells = list(enumerate_compositions(q, n))
        for x in rng.sample(shells, min(6, len(shells))):
            reads.clear()
            composition._expand(group, n, x)
            assert Counter(reads) == {h: q for h in range(q) if x[h]}, (n, x)


def _corrupt_expand(monkeypatch, pick):
    # _expand with one packed coefficient replaced by pick(label, packed,
    # width, m), the label read off _colex_shells at the same position
    expand = composition._expand

    def patched(group, n, x):
        poly, width = expand(group, n, x)
        for index, label in enumerate(composition._colex_shells(group.order, n)[0]):
            new = pick(label, poly[index], width, group.char_order)
            if new is not None:
                poly[index] = new
                break
        return poly, width

    monkeypatch.setattr(composition, "_expand", patched)


@pytest.mark.parametrize(
    "group,n,x",
    [
        (cyclic(3), 3, (1, 1, 1)),
        (cyclic(5), 4, (0, 2, 0, 0, 2)),
        (cyclic(6), 4, (1, 1, 0, 1, 0, 1)),
        (finite_field(9), 3, (1, 1, 1, 0, 0, 0, 0, 0, 0)),
    ],
)
def test_read_out_refuses_a_mirror_that_differs(monkeypatch, group, n, x):
    # the colex-later shell of an orbit gets its counts rotated by one
    # place (a factor zeta): same count total, different coefficient
    def rotate_later(label, packed, width, m):
        twin = _mirror(group, label)
        if _colex_key(twin) >= _colex_key(label):
            return None
        full = (1 << (m * width)) - 1
        rotated = ((packed << width) & full) | (packed >> ((m - 1) * width))
        return None if rotated == packed else rotated

    _corrupt_expand(monkeypatch, rotate_later)
    message = r"^shells \(.*\) and \(.*\) are mirrors under negation"
    with pytest.raises(ArithmeticError, match=message):
        _read_out(group, n, Composition(x))


@pytest.mark.parametrize(
    "count_at,message",
    [
        (0, r"^coefficient of z\^\(4, 0, 0, 0, 0\) has 2 terms, expected multinom\(n, j\) = 1$"),
        (
            19,
            r"^shells \(3, 0, 1, 0, 0\) and \(3, 0, 0, 1, 0\) are mirrors under negation, "
            r"but their coefficients differ$",
        ),
    ],
    ids=["count-first", "mirror-first"],
)
def test_read_out_raises_the_fault_met_first_in_shell_order(monkeypatch, count_at, message):
    # Z_5, n = 4: shell 15, (3, 0, 0, 1, 0), the first whose mirror (shell
    # 5) comes earlier, gets its counts rotated by one place, and the
    # self-mirror shell 0 or 19 one count too many.  All mirror pairs are
    # checked at once, yet the fault raised is the one a shell-by-shell
    # pass meets first.
    group, n = cyclic(5), 4
    expand = composition._expand

    def patched(group, n, x):
        poly, width = expand(group, n, x)
        full = (1 << (5 * width)) - 1
        rotated = ((poly[15] << width) & full) | (poly[15] >> (4 * width))
        assert rotated != poly[15]
        poly[15] = rotated
        poly[count_at] += 1
        return poly, width

    labels, _ = composition._colex_shells(5, n)
    assert _mirror(group, labels[15]) == labels[5]
    assert _mirror(group, labels[count_at]) == labels[count_at]
    monkeypatch.setattr(composition, "_expand", patched)
    with pytest.raises(ArithmeticError, match=message):
        _read_out(group, n, Composition((0, 2, 0, 0, 2)))


def test_read_out_checks_every_count_total(monkeypatch):
    # one more count on a shell of a directed generator: the shell size no
    # longer matches, although every value could still be scaled
    def one_more(label, packed, width, m):
        return packed + 1

    _corrupt_expand(monkeypatch, one_more)
    message = r"^coefficient of z\^\(3, 0, 0\) has 2 terms, expected multinom\(n, j\) = 1$"
    with pytest.raises(ArithmeticError, match=message):
        _read_out(cyclic(3), 3, Composition((1, 2, 0)))


@pytest.mark.parametrize(
    "group,i,j,message",
    [
        (
            cyclic(3),
            (2, 1, 0),
            (1, 2, 0),
            r"z\^\(2, 1, 0\) has 4 terms, expected multinom\(n, i\) = 3$",
        ),
        (
            finite_field(4),
            (1, 0, 1, 1),
            (0, 2, 0, 1),
            r"z\^\(1, 0, 1, 1\) has 7 terms, expected multinom\(n, i\) = 6$",
        ),
    ],
    ids=["Z3", "GF4"],
)
def test_gen_kraw_checks_the_count_total_of_its_coefficient(monkeypatch, group, i, j, message):
    # one more count on the coefficient at i's colex rank: the value could
    # still be unpacked, but its count total no longer matches multinom(n, i);
    # a target at another rank reads its coefficient as before
    def one_more(label, packed, width, m):
        return packed + 1 if label == i else None

    other = (3,) + (0,) * (group.order - 1)
    expected = gen_kraw(group, 3, other, j)
    _corrupt_expand(monkeypatch, one_more)
    with pytest.raises(ArithmeticError, match=r"^coefficient of " + message):
        gen_kraw(group, 3, i, j)
    assert gen_kraw(group, 3, other, j) == expected == gen_kraw(group, 3, other, j, method="brute")


@pytest.mark.parametrize(
    "group,n,x,message",
    [
        (cyclic(3), 3, (1, 2, 0), r"z\^\(2, 1, 0\) has 1 terms, expected multinom\(n, j\) = 3$"),
        (
            cyclic(5),
            4,
            (0, 2, 0, 0, 2),
            r"z\^\(3, 1, 0, 0, 0\) has 1 terms, expected multinom\(n, j\) = 4$",
        ),
    ],
    ids=["Z3-directed", "Z5-undirected"],
)
def test_read_out_checks_the_count_total_of_a_repeated_coefficient(
    monkeypatch, group, n, x, message
):
    # a shell given the packed coefficient of an earlier shell of another
    # size: its value could be reused, but its count total is checked first
    earlier = []

    def copy_earlier(label, packed, width, m):
        size = multinom(n, label)
        for other, other_size in earlier:
            if other_size != size:
                return other
        earlier.append((packed, size))
        return None

    _corrupt_expand(monkeypatch, copy_earlier)
    with pytest.raises(ArithmeticError, match=r"^coefficient of " + message):
        _read_out(group, n, Composition(x))


def test_read_out_checks_every_division():
    # a degree one too large makes the shell (3, 0, 0) of size 1 fine and
    # the shell (2, 1, 0) of size 3 fail, with the old message
    message = r"^CycInt\(order=3, .*\) \* 4 / 3 is not a cyclotomic integer$"
    with pytest.raises(ArithmeticError, match=message):
        _read_out(cyclic(3), 3, Composition((1, 2, 0)), 4)


@pytest.mark.parametrize("q", range(2, 8))
def test_colex_shells_walk_in_step_with_the_sorted_keys(q):
    # the read-out pairs the i-th sorted key with the i-th shell of
    # _colex_shells: the two orders must agree on every label
    for n in range(0, 9 if q < 6 else 6):
        labels, sizes = composition._colex_shells(q, n)
        keys = [sum(c * (n + 1) ** g for g, c in enumerate(label)) for label in labels]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert list(labels) == [tuple(c) for c in enumerate_compositions(q, n)]
        assert list(sizes) == [multinom(n, label) for label in labels]


def _brute_colex(q, t):
    """Every composition of t into q parts, listed part by part and sorted
    into colex order: last part most significant."""
    comps = [()]
    for g in range(q):
        comps = [c + (k,) for c in comps for k in range(t - sum(c) + 1)]
    return sorted((c for c in comps if sum(c) == t), key=_colex_key)


def _plus(c, g):
    return c[:g] + (c[g] + 1,) + c[g + 1 :]


@pytest.mark.parametrize("q", range(2, 9))
def test_successor_tables_rank_every_next_composition(q):
    # table g of (q, t) sends the colex rank of c to that of c + e_g among
    # the compositions of t + 1, on a brute sorted list of them
    for t in range(0, 9):
        here, there = _brute_colex(q, t), _brute_colex(q, t + 1)
        rank = {c: r for r, c in enumerate(there)}
        tables = composition._successors(q, t)
        assert len(tables) == q
        for g, table in enumerate(tables):
            assert list(table) == [rank[_plus(c, g)] for c in here], (q, t, g)
        assert composition._successors(q, t) is tables


def test_colex_shells_are_cached_and_immutable():
    shells = composition._colex_shells(4, 5)
    assert composition._colex_shells(4, 5) is shells
    assert type(shells) is tuple and len(shells) == 2
    labels, sizes = shells
    assert type(labels) is tuple and all(type(label) is tuple for label in labels)
    assert type(sizes) is tuple and all(type(size) is int for size in sizes)
    for column in shells:
        with pytest.raises(TypeError):
            column[0] = column[1]


def test_zero_shells_vanish():
    for q in (2, 3, 4):
        for n in (q, 2 * q):
            for r in enumerate_compositions(q, n):
                if zero_shell_predicate(q, r):
                    assert gen_kraw_circulant(q, n, r) == 0


def test_zero_predicate_is_exact_for_prime_q():
    # for prime q the converse holds on these sizes: nonzero values occur
    # exactly on shells whose weighted sum is divisible by q
    for q in (2, 3, 5):
        n = q
        for r in enumerate_compositions(q, n):
            value = gen_kraw_circulant(q, n, r)
            if zero_shell_predicate(q, r):
                assert value == 0
            else:
                assert value != 0


def test_shift_flips_sign_by_parity():
    for q, n in ((2, 2), (2, 4), (3, 3), (3, 6), (4, 4)):
        sign = -1 if ((q - 1) * n // q) % 2 else 1
        for r in enumerate_compositions(q, n):
            shifted = r[1:] + r[:1]
            assert gen_kraw_circulant(q, n, shifted) == sign * gen_kraw_circulant(q, n, r)


# ---------------------------------------------------------------------------
# rate diagnostics


def test_first_root_ratio_binary_closed_form():
    import math

    for delta in (0.05, 0.11, 0.3, 0.5):
        expected = 0.5 - math.sqrt(delta * (1 - delta))
        assert first_root_ratio(2, delta) == pytest.approx(expected, abs=1e-15)


def test_first_root_ratio_endpoints_and_guards():
    assert first_root_ratio(2, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert first_root_ratio(3, 0.0) == pytest.approx(2 / 3, abs=1e-15)
    with pytest.raises(DomainError):
        first_root_ratio(1, 0.1)
    with pytest.raises(DomainError):
        first_root_ratio(3, 0.7)  # above (q-1)/q


def _decimal_first_root_ratio(q, delta):
    # the same expression in 5000-digit decimals, delta read exactly; no term
    # cancels for a float delta, as 1 - delta >= 2^-53 dwarfs 1/q
    from decimal import Context, Decimal

    ctx = Context(prec=5000)
    q, delta = Decimal(q), Decimal(delta)
    head = ctx.subtract(ctx.subtract(q, 1), ctx.multiply(ctx.subtract(q, 2), delta))
    root = ctx.sqrt(ctx.multiply(ctx.multiply(ctx.subtract(q, 1), delta), ctx.subtract(1, delta)))
    return float(ctx.divide(ctx.subtract(head, ctx.multiply(2, root)), q))


@pytest.mark.parametrize(
    "q",
    [2**1024, 2**1100 + 7, 3**700, 10**2200 + 1],
    ids=["2^1024", "2^1100+7", "3^700", "10^2200+1"],
)
def test_first_root_ratio_reads_a_q_too_large_for_a_float(q):
    # float(q) would raise OverflowError; the value is the one the expression has
    for delta in (0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.75, 0.9999999999999999):
        assert first_root_ratio(q, delta) == _decimal_first_root_ratio(q, delta), (q, delta)
