"""Group layer: cyclic groups, finite fields, characters, shells."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_spectra import (
    BadLabel,
    Composition,
    CycInt,
    CyclicGroup,
    DivisibilityError,
    DomainError,
    FiniteField,
    RangeError,
    SpecMismatch,
    all_words,
    binom,
    char_value,
    comp,
    cyclic,
    enumerate_compositions,
    enumerate_shell,
    finite_field,
    multinom,
    shell_size,
    weight,
    word_add,
    word_char_exponent,
    word_char_value,
    word_index,
    word_neg,
    word_sub,
    index_word,
)
from scheme_spectra import composition, groups, krawtchouk
from scheme_spectra.groups import default_modulus

ALL_GROUPS = [cyclic(q) for q in (2, 3, 4, 5, 6, 8)] + [
    finite_field(q) for q in (2, 3, 4, 5, 8, 9)
]


# ---------------------------------------------------------------------------
# Composition labels


def test_balanced_composition():
    assert tuple(Composition.balanced(3, 9)) == (3, 3, 3)
    assert Composition.balanced(2, 4).n == 4
    with pytest.raises(DivisibilityError):
        Composition.balanced(3, 7)


@pytest.mark.parametrize("q, n", [(0, 4), (-3, 6)])
def test_balanced_composition_refuses_q_below_one(q, n):
    with pytest.raises(DomainError, match="q >= 1"):
        Composition.balanced(q, n)


def test_composition_rejects_negative_counts():
    with pytest.raises(BadLabel):
        Composition((2, -1, 1))


def test_composition_counts_must_be_integers():
    # a float count used to be truncated: (1.7, 0.3) became (1, 0)
    for counts in ((1.7, 0.3), (2.0, 1), ("1", "2")):
        with pytest.raises(TypeError):
            Composition(counts)
    import numpy as np

    label = Composition((True, np.int64(3), 0))
    assert label.counts == (1, 3, 0)
    assert all(type(c) is int for c in label.counts)


def test_negation_closure():
    g3 = cyclic(3)
    assert g3.is_negation_closed(Composition((1, 1, 1)))
    assert not g3.is_negation_closed(Composition((0, 2, 1)))
    g2 = cyclic(2)
    assert g2.is_negation_closed(Composition((1, 3)))


# ---------------------------------------------------------------------------
# group axioms, for every group we ship


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: str(g.describe()))
def test_additive_group_axioms(group):
    els = list(group.elements())
    assert len(els) == group.order
    for a in els:
        assert group.add(a, 0) == a
        assert group.add(a, group.neg(a)) == 0
        for b in els:
            assert group.add(a, b) == group.add(b, a)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: str(g.describe()))
def test_character_table(group):
    """Symmetric, multiplicative in the second slot, rows sum to q*[g==0]."""
    q = group.order
    m = group.char_order
    for g in group.elements():
        for h in group.elements():
            assert group.char_exponent(g, h) == group.char_exponent(h, g)
            val = char_value(group, g, h)
            assert val.order == m
            prod = val
            for h2 in group.elements():
                lhs = char_value(group, g, group.add(h, h2))
                assert lhs == val * char_value(group, g, h2)
            del prod
        row = CycInt.from_int(m, 0)
        for h in group.elements():
            row = row + char_value(group, g, h)
        assert row == (q if g == 0 else 0)


@pytest.mark.parametrize(
    "group",
    [cyclic(q) for q in range(2, 13)] + [finite_field(q) for q in (4, 8, 9, 16, 25, 27, 32)],
    ids=lambda g: str(g.describe()),
)
def test_letters_are_base_m_numerals_that_add_digit_wise(group):
    # The representation builder and verifier rely on this: with m the
    # character order, every letter is a k-digit base-m numeral (q = m^k),
    # letters add digit by digit mod m, and so a character is the sum of its
    # values at the digit units m^i weighted by the digits of its argument.
    q, m = group.order, group.char_order
    k = 1
    while m**k < q:
        k += 1
    assert m**k == q

    def digits(a):
        return [a // m**i % m for i in range(k)]

    for a in range(q):
        for b in range(q):
            total = sum((x + y) % m * m**i for i, (x, y) in enumerate(zip(digits(a), digits(b))))
            assert group.add(a, b) == total
    for g in range(q):
        at_units = [group.char_exponent(g, m**i) for i in range(k)]
        for h in range(q):
            weighted = sum(d * e for d, e in zip(digits(h), at_units)) % m
            assert group.char_exponent(g, h) == weighted


def _field_add(p, a, b):
    # the field's own digit loop, kept as the reference for the shared routine
    out, place = 0, 1
    while a or b:
        out += (a + b) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def _field_neg(p, a):
    out, place = 0, 1
    while a:
        out += -a % p * place
        a, place = a // p, place * p
    return out


@pytest.mark.parametrize(
    "group",
    [cyclic(q) for q in range(2, 13)] + [finite_field(q) for q in (4, 8, 9, 16, 25, 27)],
    ids=lambda g: str(g.describe()),
)
def test_shared_digit_routine_matches_each_alphabets_formula(group):
    # GroupSpec adds and negates letters for every alphabet; on every pair of
    # letters it gives (a + b) % q over Z_q and the digit loop over GF(p^k),
    # as plain ints, and every alphabet's k digits span its q letters
    q = group.order
    assert type(group.k) is int and group.char_order**group.k == q
    if isinstance(group, CyclicGroup):
        add, neg = (lambda a, b: (a + b) % q), (lambda a: (-a) % q)
    else:
        add, neg = functools.partial(_field_add, group.p), functools.partial(_field_neg, group.p)
    for a in range(q):
        assert type(group.neg(a)) is int and group.neg(a) == neg(a), a
        for b in range(q):
            assert type(group.add(a, b)) is int and group.add(a, b) == add(a, b), (a, b)


@pytest.mark.parametrize(
    "group", [cyclic(2), cyclic(6), finite_field(4), finite_field(9), finite_field(27)], ids=repr
)
def test_non_letters_are_refused_by_the_word_arithmetic(group):
    # every entry point of the letter arithmetic names the first non-letter
    # it reads, whatever its type, over Z_q and GF(p^k) alike
    q = group.order
    for bad in (-1, -q, q, q + 1, 3 * q, 2.0, "1", None, np.int8(-1)):
        message = f"{bad!r} is not an element index of {group!r}"
        for call in (
            lambda: group.add(bad, 0),
            lambda: group.add(0, bad),
            lambda: group.neg(bad),
            lambda: word_add(group, (0, bad), (1, 0)),
            lambda: word_add(group, (1, 0), (0, bad)),
            lambda: word_neg(group, (0, bad)),
            lambda: word_sub(group, (bad,), (0,)),
            lambda: word_sub(group, (0,), (bad,)),
            lambda: group.mul(bad, 1),
            lambda: group.mul(1, bad),
            lambda: group.char_exponent(bad, 1),
            lambda: group.char_exponent(1, bad),
            lambda: char_value(group, bad, 1),
            lambda: char_value(group, 1, bad),
        ):
            with pytest.raises(SpecMismatch) as exc:
                call()
            assert type(exc.value) is SpecMismatch and str(exc.value) == message, bad
    numpy_letters = (np.int8(q - 1), np.uint64(1))
    assert word_add(group, numpy_letters, (0, 1)) == (q - 1, group.add(1, 1))
    assert all(type(g) is int for g in word_neg(group, numpy_letters))


def test_cyclic_char_is_power_of_primitive_root():
    g = cyclic(5)
    z = CycInt.root_of_unity(5)
    for a in range(5):
        for b in range(5):
            assert char_value(g, a, b) == z ** (a * b)


# ---------------------------------------------------------------------------
# finite fields


def test_f4_is_the_unique_quadratic_extension_of_f2():
    # enumerate monic quadratics over F_2 and factor by brute force
    irreducible = []
    for b, c in itertools.product((0, 1), repeat=2):
        # x^2 + b x + c, roots searched in F_2
        if all((r * r + b * r + c) % 2 != 0 for r in (0, 1)):
            irreducible.append((c, b, 1))
    assert irreducible == [(1, 1, 1)]
    assert default_modulus(2, 2) == (1, 1, 1)
    with pytest.raises(SpecMismatch):
        FiniteField(2, 2, (1, 0, 1))  # x^2 + 1 == (x+1)^2 over F_2


def test_f4_arithmetic():
    f4 = finite_field(4)
    # element 2 is x, element 3 is x+1, with x^2 = x + 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.add(2, 3) == 1
    assert [f4.trace(a) for a in range(4)] == [0, 0, 1, 1]
    assert f4.char_order == 2
    assert char_value(f4, 1, 1) == 1  # trace of 1 vanishes in F_4


def test_f8_supports_both_cubic_moduli():
    fa = finite_field(8, (1, 1, 0, 1))  # x^3 + x + 1
    fb = finite_field(8, (1, 0, 1, 1))  # x^3 + x^2 + 1
    for f in (fa, fb):
        assert f.order == 8 and f.char_order == 2
        nonzero = [a for a in f.elements() if a != 0]
        for a in nonzero:
            assert sorted(f.mul(a, b) for b in nonzero) == nonzero


def test_f9_trace_and_modulus():
    f9 = finite_field(9)
    assert f9.modulus == (1, 0, 1)  # x^2 + 1, since -1 is a non-square mod 3
    assert [f9.trace(a) for a in range(9)] == [0, 2, 1, 0, 2, 1, 0, 2, 1]


def test_field_rejects_bad_sizes_and_moduli():
    with pytest.raises(DomainError):
        finite_field(6)
    with pytest.raises(DomainError):
        finite_field(1)
    with pytest.raises(SpecMismatch):
        FiniteField(2, 3, (1, 0, 0, 2))  # not monic after the leading slot
    with pytest.raises(SpecMismatch):
        FiniteField(2, 3, (1, 1, 1))  # wrong degree


def test_field_reads_numpy_moduli_and_integers():
    f4 = FiniteField(np.int64(2), np.int64(2), np.array([1, 1, 1]))
    assert f4 == finite_field(4) and hash(f4) == hash(finite_field(4))
    assert type(f4.p) is type(f4.k) is int and all(type(c) is int for c in f4.modulus)
    f8 = FiniteField(2, 3, np.array([1, 1, 0, 1], dtype=np.uint8))
    assert f8 == finite_field(8, (1, 1, 0, 1))
    # an empty modulus, as a tuple or an array, is refused with the same message
    for empty in ((), np.array([], dtype=np.int64)):
        with pytest.raises(SpecMismatch) as exc:
            FiniteField(np.int64(2), 2, empty)
        assert str(exc.value) == "modulus () is not monic over Z_2"
    with pytest.raises(SpecMismatch) as exc:
        FiniteField(2, 3, (1, 0, 0, 2))
    assert str(exc.value) == "modulus (1, 0, 0, 2) is not monic over Z_2"
    with pytest.raises(SpecMismatch) as exc:
        FiniteField(2, 2, np.array([1, 0, 1]))
    assert str(exc.value) == "modulus (1, 0, 1) is reducible over Z_2"


def test_field_characteristic_must_be_prime():
    for p in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(DomainError):
            FiniteField(p, 1, (0, 1))
    for p in (2, 3, 5, 7):
        assert FiniteField(p, 1, (0, 1)).order == p


def test_prime_field_matches_cyclic_arithmetic():
    f5, g5 = finite_field(5), cyclic(5)
    for a in range(5):
        for b in range(5):
            assert f5.add(a, b) == g5.add(a, b)
            assert f5.mul(a, b) == g5.mul(a, b)
    # characters agree too: trace is the identity on a prime field
    for a in range(5):
        for b in range(5):
            assert char_value(f5, a, b) == char_value(g5, a, b)


# The field's mul, trace and characters against arithmetic written here:
# schoolbook products of coefficient vectors (constant term first) reduced
# by long division, and the trace as the sum of the Frobenius powers
# a^(p^i) in that arithmetic.


def _long_rem(f, g, p):
    # the remainder of f by the monic g over Z_p, from the top coefficient down
    r = list(f)
    dg = len(g) - 1
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] % p
        for t in range(dg + 1):
            r[top - dg + t] -= c * g[t]
    return tuple(c % p for c in r[:dg])


def _schoolbook_mul(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _long_rem(prod, modulus, p)


def _monic_irreducibles(p, k):
    # by trial division by every monic polynomial of degree 1..k//2
    def monics(deg):
        return [(*tail, 1) for tail in itertools.product(range(p), repeat=deg)]

    return [
        f for f in monics(k)
        if all(any(_long_rem(f, g, p)) for deg in range(1, k // 2 + 1) for g in monics(deg))
    ]


_ORACLE_FIELDS = [(q, None) for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128)] + [
    (p**k, f) for p, top in ((2, 4), (3, 3), (5, 2)) for k in range(2, top + 1)
    for f in _monic_irreducibles(p, k)
]


def test_the_oracle_finds_every_monic_irreducible():
    # Gauss's count: 1, 2, 3 of degree 2, 3, 4 over Z_2; 3, 8 of degree
    # 2, 3 over Z_3; 10 of degree 2 over Z_5
    degrees = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))
    assert [len(_monic_irreducibles(p, k)) for p, k in degrees] == [1, 2, 3, 3, 8, 10]


@pytest.mark.parametrize(
    "q, modulus",
    _ORACLE_FIELDS,
    ids=[f"{q}-{''.join(map(str, f)) if f else 'default'}" for q, f in _ORACLE_FIELDS],
)
def test_field_tables_match_schoolbook_arithmetic(q, modulus):
    field = finite_field(q, modulus)
    p, k, f = field.p, field.k, field.modulus
    assert modulus is None or f == modulus
    vecs = [tuple(a // p**t % p for t in range(k)) for a in range(q)]
    index = {v: a for a, v in enumerate(vecs)}
    products = [[index[_schoolbook_mul(va, vb, f, p)] for vb in vecs] for va in vecs]
    assert [[field.mul(a, b) for b in range(q)] for a in range(q)] == products
    for a in range(1, q):
        assert 1 in products[a], (q, f, a)  # every nonzero element is a unit
    traces = []
    for a, va in enumerate(vecs):
        total = [0] * k
        term = va
        for _ in range(k):
            total = [(x + y) % p for x, y in zip(total, term)]
            frob = term
            for _ in range(p - 1):
                frob = _schoolbook_mul(frob, term, f, p)
            term = frob
        assert not any(total[1:]), (q, f, a)
        traces.append(total[0])
    assert [field.trace(a) for a in range(q)] == traces
    # the character of g at h is the trace of gh, on every pair
    for g in range(q):
        assert [field.char_exponent(g, h) for h in range(q)] == [
            traces[gh] for gh in products[g]
        ], (q, f, g)


def test_the_first_character_of_gf_2048_does_no_work_of_order_q(monkeypatch):
    # The characters come from the k x k trace form B[i][j] = Tr(x^(i+j)),
    # built by Frobenius on the 2k - 1 powers x^e: (2k - 1)(k - 1)(p - 1) =
    # 210 field products at p = 2, k = 11, where a product table would take
    # q (q + 1) / 2 = 2098176 of them.
    products = 0
    schoolbook = groups._poly_mul_mod

    def counted(*args):
        nonlocal products
        products += 1
        assert products <= 4 * 11 * 11, "a character did work of order q"
        return schoolbook(*args)

    monkeypatch.setattr(groups, "_poly_mul_mod", counted)
    field = finite_field(2048)
    p, k, f = field.p, field.k, field.modulus
    rng = random.Random(2048)
    pairs = [(rng.randrange(2048), rng.randrange(2048)) for _ in range(64)]
    exponents = [field.char_exponent(g, h) for g, h in pairs]
    assert products == 210
    for (g, h), e in zip(pairs, exponents):
        vg, vh = (tuple(a >> t & 1 for t in range(k)) for a in (g, h))
        total = term = _schoolbook_mul(vg, vh, f, p)
        for _ in range(k - 1):
            term = _schoolbook_mul(term, term, f, p)
            total = tuple((x + y) % p for x, y in zip(total, term))
        assert total == (e,) + (0,) * (k - 1), (g, h)


def test_cyclic_rejects_tiny_order():
    with pytest.raises(DomainError):
        CyclicGroup(1)


# ---------------------------------------------------------------------------
# words and shells


def test_word_helpers_roundtrip():
    g = cyclic(3)
    assert word_index(g, (1, 0, 0)) == 9
    assert index_word(g, 5, 3) == (0, 1, 2)
    for idx in range(27):
        assert word_index(g, index_word(g, idx, 3)) == idx
    assert word_add(g, (1, 2, 0), (2, 2, 1)) == (0, 1, 1)
    assert word_neg(g, (1, 2, 0)) == (2, 1, 0)


def test_word_helpers_refuse_out_of_range_input():
    import numpy as np

    g = cyclic(3)
    for index in (9, -1, 10**30):
        with pytest.raises(RangeError):
            index_word(g, index, 2)
    with pytest.raises(RangeError):
        index_word(g, 1, 0)
    assert index_word(g, 0, 0) == ()
    with pytest.raises(DomainError):
        index_word(g, 0, -1)
    for group, word in ((g, (3, 0)), (g, (-1, 0)), (finite_field(4), (7,))):
        with pytest.raises(SpecMismatch):
            word_index(group, word)
    with pytest.raises(TypeError):
        word_index(g, (0, 1.0))
    # numpy ints are indices, as operator.index has it
    assert index_word(g, np.int64(5), np.int64(3)) == (0, 1, 2)
    assert word_index(g, np.array([1, 0, 0])) == 9
    assert all(type(d) is int for d in index_word(g, np.int64(5), 3))


def test_weight_and_composition():
    g = cyclic(3)
    assert weight((0, 2, 1, 0)) == 2
    c = comp(g, (0, 2, 1, 0, 2))
    assert tuple(c) == (2, 1, 2)


def test_weight_shell_enumeration():
    g = cyclic(3)
    shell = list(enumerate_shell(g, 3, 2))
    assert len(shell) == 4 * binom(3, 2)  # (q-1)^2 * C(3,2)
    assert shell[:4] == [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)]
    assert shell == sorted(shell)
    assert all(weight(w) == 2 for w in shell)
    assert shell_size(g, 3, 2) == len(shell)


def test_composition_shells_partition_the_cube():
    for group in (cyclic(2), cyclic(3), finite_field(4)):
        n = 3
        seen = []
        for c in enumerate_compositions(group.order, n):
            block = list(enumerate_shell(group, n, c))
            assert len(block) == multinom(n, c)
            assert shell_size(group, n, c) == len(block)
            assert all(tuple(comp(group, w)) == tuple(c) for w in block)
            seen.extend(block)
        assert sorted(seen) == sorted(all_words(group, n))
        assert len(seen) == group.order**n


def test_composition_enumeration_is_colex_sorted():
    got = [tuple(c) for c in enumerate_compositions(3, 3)]
    assert got == [
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
        (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3),
    ]
    assert got == sorted(got, key=lambda c: c[::-1])
    assert [tuple(c) for c in enumerate_compositions(2, 4)] == [
        (4, 0), (3, 1), (2, 2), (1, 3), (0, 4),
    ]


def test_enumerated_compositions_hold_plain_ints():
    # the stream wraps its tuples without re-validating them, so it must
    # build them from plain nonnegative ints itself, as Composition would
    import numpy as np

    for q, n in ((1, 3), (2, 3), (4, 5)):
        for t in (int, np.int64):
            comps = list(enumerate_compositions(q, t(n)))
            assert len(comps) == len(list(itertools.combinations(range(n + q - 1), q - 1)))
            assert all(type(c) is int and c >= 0 for comp in comps for c in comp.counts)
            assert comps == [Composition(tuple(comp)) for comp in comps]
    # with one part, that part is n itself, and it is still validated
    with pytest.raises(BadLabel):
        list(enumerate_compositions(1, -1))
    assert list(enumerate_compositions(3, -1)) == []
    with pytest.raises(TypeError):
        list(enumerate_compositions(2, 2.0))


def _colex_key(counts):
    return counts[::-1]


@pytest.mark.parametrize(
    "group", [cyclic(2), cyclic(3), cyclic(4), cyclic(5), finite_field(4)], ids=repr
)
def test_shells_match_the_filtered_product(group):
    # itertools.product lists the words in canonical order, so each shell is
    # the product filtered by weight or by counts, an oracle independent of
    # the successor walks
    q = group.order
    n = 0
    while q**n <= 4096:
        by_weight, by_counts = {}, {}
        for word in itertools.product(range(q), repeat=n):
            by_weight.setdefault(sum(1 for g in word if g), []).append(word)
            by_counts.setdefault(tuple(word.count(g) for g in range(q)), []).append(word)
        for w in range(n + 1):
            assert list(enumerate_shell(group, n, w)) == by_weight[w], (n, w)
        for counts in enumerate_compositions(q, n):
            assert list(enumerate_shell(group, n, counts)) == by_counts[tuple(counts)], (n, counts)
        assert len(by_counts) == len(list(enumerate_compositions(q, n)))
        n += 1


@pytest.mark.parametrize("q", range(1, 7))
def test_compositions_match_the_sorted_product(q):
    # the compositions of the product's words, sorted by colex key, n = 0
    # included; _colex_shells walks them with their multinomial sizes
    for n in range(0, 7 if q < 5 else 5):
        labels = {tuple(word.count(g) for g in range(q)) for word in itertools.product(range(q), repeat=n)}
        expected = sorted(labels, key=_colex_key)
        assert [tuple(c) for c in enumerate_compositions(q, n)] == expected, (q, n)
        labels, sizes = composition._colex_shells(q, n)
        assert list(labels) == expected
        assert list(sizes) == [multinom(n, label) for label in expected]


def test_long_words_and_many_parts_do_not_recurse():
    # one recursion level per part or per letter overflowed the stack here
    labels = [tuple(c) for c in enumerate_compositions(1024, 1)]
    assert len(labels) == 1024
    assert labels == list(composition._colex_shells(1024, 1)[0])
    count = 0
    for count, word in enumerate(enumerate_shell(cyclic(2), 3000, 1), 1):
        if count == 1:
            assert word == (0,) * 2999 + (1,)
    assert count == 3000 and word == (1,) + (0,) * 2999


def test_shell_label_validation():
    g = cyclic(3)
    with pytest.raises(BadLabel):
        list(enumerate_shell(g, 3, 4))  # weight above n
    with pytest.raises(BadLabel):
        list(enumerate_shell(g, 3, (1, 1)))  # wrong number of parts
    with pytest.raises(BadLabel):
        shell_size(g, 3, (4, 0, 0, 0))
    # shells that do not exist have no size: too few parts, and too many
    with pytest.raises(BadLabel, match=r"^composition has 2 parts, expected 3$"):
        shell_size(g, 3, (1, 2))
    with pytest.raises(BadLabel, match=r"^composition has 4 parts, expected 3$"):
        shell_size(g, 3, (1, 1, 1, 0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: word_add(cyclic(3), (1, 2), (1,)), SpecMismatch, "word lengths differ: 2 vs 1"),
        (lambda: word_char_exponent(cyclic(3), (1, 2), (1,)), SpecMismatch,
         "word lengths differ: 2 vs 1"),
        (lambda: list(enumerate_shell(cyclic(3), 2, (3, -1, 0))), BadLabel,
         "negative count in (3, -1, 0)"),
        (lambda: list(enumerate_shell(cyclic(3), 2, (1, 1, 1))), BadLabel,
         "composition (1, 1, 1) sums to 3, expected 2"),
        (lambda: list(enumerate_compositions(0, 2)), BadLabel, "need at least one part, got q=0"),
        (lambda: shell_size(cyclic(3), 2, 3), BadLabel, "weight 3 outside 0..2"),
        (lambda: cyclic(3).is_negation_closed((1, 1)), BadLabel,
         "composition has 2 parts, expected 3"),
        # both read only the counts they needed: the short label gave True,
        # and so did the negative count
        (lambda: krawtchouk.zero_shell_predicate(3, (1, 1)), BadLabel,
         "composition has 2 parts, expected 3"),
        (lambda: cyclic(3).is_negation_closed((3, -1, -1)), BadLabel,
         "negative count in (3, -1, -1)"),
        (lambda: FiniteField(2, 0, (1,)), DomainError,
         "field extension degree must be >= 1, got 0"),
        # the field's digit loop never ended on the first and third, and
        # summed 10 + 3 digit by digit to 13, past the nine letters
        (lambda: finite_field(9).neg(-1), SpecMismatch,
         "-1 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        (lambda: finite_field(9).add(10, 3), SpecMismatch,
         "10 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        (lambda: word_neg(finite_field(4), (-1,)), SpecMismatch,
         "-1 is not an element index of FiniteField(p=2, k=2, modulus=(1, 1, 1))"),
        (lambda: cyclic(3).add(5, 7), SpecMismatch, "5 is not an element index of CyclicGroup(q=3)"),
        # mul and char_exponent reduced any int: 4, 1, 2 and 2 came back
        (lambda: finite_field(9).mul(-1, 2), SpecMismatch,
         "-1 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        (lambda: finite_field(9).mul(10, 1), SpecMismatch,
         "10 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        (lambda: cyclic(3).mul(5, 7), SpecMismatch, "5 is not an element index of CyclicGroup(q=3)"),
        (lambda: finite_field(9).char_exponent(-1, 2), SpecMismatch,
         "-1 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        (lambda: cyclic(3).char_exponent(1, 3), SpecMismatch,
         "3 is not an element index of CyclicGroup(q=3)"),
        # the first non-letter named is g, then h
        (lambda: char_value(finite_field(4), 4, -1), SpecMismatch,
         "4 is not an element index of FiniteField(p=2, k=2, modulus=(1, 1, 1))"),
        (lambda: finite_field(9).trace(9), SpecMismatch,
         "9 is not an element index of FiniteField(p=3, k=2, modulus=(1, 0, 1))"),
        # a polynomial over Z_4 or Z_6 came back, a constant for degree 0,
        # and itertools' ValueError for a negative degree
        (lambda: default_modulus(4, 2), DomainError, "field characteristic must be prime, got 4"),
        (lambda: default_modulus(6, 2), DomainError, "field characteristic must be prime, got 6"),
        (lambda: default_modulus(2, 0), DomainError, "field extension degree must be >= 1, got 0"),
        (lambda: default_modulus(2, -1), DomainError,
         "field extension degree must be >= 1, got -1"),
        # itertools' ValueError "repeat argument cannot be negative"
        (lambda: all_words(cyclic(2), -1), DomainError, "word length must be >= 0, got n=-1"),
    ],
    ids=[
        "word_add", "word_char_exponent", "shell-negative-count", "shell-wrong-sum",
        "compositions-no-parts", "shell_size-weight-above-n", "negation-closed-part-count",
        "zero-shell-part-count", "negation-closed-negative-count", "field-degree-0",
        "field-neg-negative", "field-add-past-q", "field-word_neg-negative", "cyclic-add-past-q",
        "field-mul-negative", "field-mul-past-q", "cyclic-mul-past-q",
        "field-char_exponent-negative", "cyclic-char_exponent-past-q", "field-char_value-g-first",
        "field-trace-past-q", "default_modulus-p-4", "default_modulus-p-6",
        "default_modulus-k-0", "default_modulus-k-negative", "all_words-negative-length",
    ],
)
def test_refusals_of_outside_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_word_character_is_multiplicative(q, n, data):
    g = cyclic(q)
    pick = st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n)
    x = data.draw(pick)
    y = data.draw(pick)
    z = data.draw(pick)
    lhs = word_char_value(g, x, word_add(g, y, z))
    assert lhs == word_char_value(g, x, y) * word_char_value(g, x, z)
