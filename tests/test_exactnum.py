"""Exact-arithmetic layer: counting helpers, cyclotomic integers, exact signs."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_spectra import (
    CycInt,
    DomainError,
    OrderMismatch,
    SumMismatch,
    binom,
    cyclotomic_polynomial,
    entropy_q,
    first_root_ratio,
    multinom,
)
from scheme_spectra import cyclotomic
from scheme_spectra.cyclotomic import _cos_table

from conftest import SignUndecided

# ---------------------------------------------------------------------------
# binomial / multinomial against independent oracles


def pascal_table(rows):
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1]
        table.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return table


def test_binom_matches_pascal_recurrence():
    table = pascal_table(20)
    for n in range(21):
        for k in range(n + 1):
            assert binom(n, k) == table[n][k]


def test_binom_out_of_range_is_zero():
    assert binom(5, 6) == 0
    assert binom(5, -1) == 0
    assert binom(0, 0) == 1


def test_binom_rejects_negative_n():
    with pytest.raises(DomainError):
        binom(-1, 0)


def test_frozen_binomials():
    assert binom(18, 6) == 18564
    assert binom(12, 5) == 792


def test_multinom_as_iterated_binomial():
    # n! / prod(parts!) == C(n, p0) * C(n-p0, p1) * ...
    cases = [(8, (4, 4)), (9, (3, 3, 3)), (10, (5, 2, 2, 1)), (6, (6,)), (0, ())]
    for n, parts in cases:
        expected = 1
        left = n
        for p in parts:
            expected *= binom(left, p)
            left -= p
        assert multinom(n, parts) == expected


def test_frozen_multinomials():
    assert multinom(8, (4, 4)) == 70
    assert multinom(9, (3, 3, 3)) == 1680
    assert multinom(5, (1, 1, 1, 1, 1)) == 120


def test_multinom_rejects_bad_parts():
    with pytest.raises(SumMismatch):
        multinom(4, (3, 2))
    with pytest.raises(SumMismatch):
        multinom(4, (5, -1))
    # the parts print as a tuple, as composition labels do
    with pytest.raises(SumMismatch, match=r"^parts \(1, 1, 1\) sum to 3, expected 2$"):
        multinom(2, [1, 1, 1])
    with pytest.raises(SumMismatch, match=r"^negative part in \(5, -1\)$"):
        multinom(4, [5, -1])


# ---------------------------------------------------------------------------
# cyclotomic polynomials


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_CYCLOTOMICS.items()))
def test_cyclotomic_table(m, coeffs):
    assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_degree_is_euler_phi():
    def phi(m):
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) == phi(m) + 1


def test_cyclotomic_105_has_coefficient_minus_two():
    # the smallest m whose cyclotomic polynomial has a coefficient outside
    # {-1, 0, 1}; the x^7 coefficient is -2
    poly = cyclotomic_polynomial(105)
    assert poly[7] == -2


def test_product_of_cyclotomics_is_x_m_minus_1():
    for m in (6, 8, 12, 30):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                fac = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(fac) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(fac):
                        out[i + j] += a * b
                prod = out
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(DomainError):
        cyclotomic_polynomial(0)


# ---------------------------------------------------------------------------
# cyclotomic integers


def test_root_identities():
    i = CycInt.root_of_unity(4)
    assert i * i == -1
    w = CycInt.root_of_unity(3)
    assert w + w * w == -1
    z5 = CycInt.root_of_unity(5)
    total = CycInt.from_int(5, 0)
    for k in range(5):
        total = total + z5**k
    assert total == 0


def test_root_power_wraps_modulo_order():
    z = CycInt.root_of_unity(6)
    assert z**6 == 1
    assert z**7 == z
    assert CycInt.root_of_unity(6, 9) == z**3


def test_from_root_powers():
    # 2 + 3*zeta - zeta^2 built two ways
    z = CycInt.root_of_unity(8)
    direct = CycInt.from_int(8, 2) + z * 3 - z**2
    assert CycInt.from_root_powers(8, [2, 3, -1, 0, 0, 0, 0, 0]) == direct


def test_as_integer_detects_rational_integers():
    w = CycInt.root_of_unity(3)
    assert (w + w**2).as_integer() == -1
    assert w.as_integer() is None
    assert CycInt.from_int(7, 42).as_integer() == 42


def test_integer_equality_across_orders():
    assert CycInt.from_int(3, 5) == CycInt.from_int(8, 5)
    assert hash(CycInt.from_int(3, 5)) == hash(5)
    assert CycInt.from_int(3, 5) == 5


def test_mixed_order_arithmetic_raises():
    with pytest.raises(OrderMismatch):
        CycInt.root_of_unity(3) + CycInt.root_of_unity(4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CycInt(0, (1,)), "root order must be >= 1, got 0"),
        (lambda: CycInt.root_of_unity(3) ** -1, "negative powers leave the ring of integers"),
    ],
    ids=["order-0", "negative-power"],
)
def test_cycint_refusals(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert type(exc.value) is DomainError and str(exc.value) == message


def test_conjugate_inverts_roots():
    for m in (3, 5, 8, 12):
        z = CycInt.root_of_unity(m)
        assert z * z.conjugate() == 1
        assert z.conjugate() == z ** (m - 1)


def test_term_string_lists_every_coefficient():
    z = CycInt.root_of_unity(4)
    val = z * 3 - 2
    assert val.to_term_string() == "-2+3*z"
    assert CycInt.from_int(3, 1).to_term_string() == "1+0*z"


orders = st.sampled_from([2, 3, 4, 5, 8, 12])
small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def cyc_pairs(draw, count=2):
    m = draw(orders)
    vals = []
    for _ in range(count):
        coeffs = draw(st.lists(small_ints, min_size=0, max_size=m + 1))
        vals.append(CycInt(m, coeffs))
    return tuple(vals)


@settings(max_examples=120, deadline=None)
@given(cyc_pairs(count=3))
def test_ring_axioms(vals):
    a, b, c = vals
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * 1 == a
    assert a * 0 == 0


@settings(max_examples=60, deadline=None)
@given(cyc_pairs(count=2))
def test_conjugation_is_a_ring_map(vals):
    a, b = vals
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(cyc_pairs(count=1), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_multiplication(vals, e):
    (a,) = vals
    expected = CycInt.from_int(a.order, 1)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def _dense_fold(m, coeffs):
    # The reference normal form: sum_e c_e * (row of zeta^(e mod m)), with
    # every row of the reduction table read in full.
    rows = cyclotomic._reduction_rows(m)
    acc = [0] * len(rows[0])
    for e, c in enumerate(coeffs):
        for k, r in enumerate(rows[e % m]):
            acc[k] += c * r
    return tuple(acc)


@st.composite
def long_coeff_lists(draw):
    m = draw(st.integers(min_value=1, max_value=36))
    entries = st.one_of(small_ints, st.integers(min_value=-(10**30), max_value=10**30))
    lists = [draw(st.lists(entries, max_size=2 * m)) for _ in range(2)]
    return m, lists


@settings(max_examples=300, deadline=None)
@given(long_coeff_lists())
def test_normal_form_matches_the_dense_fold(case):
    m, (a, b) = case
    x, y = CycInt(m, a), CycInt(m, b)
    assert x.coeffs == _dense_fold(m, a)
    conj = [0] * m
    for k, c in enumerate(x.coeffs):
        conj[-k % m] += c
    assert x.conjugate().coeffs == _dense_fold(m, conj)
    conv = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, ci in enumerate(x.coeffs):
        for j, cj in enumerate(y.coeffs):
            conv[i + j] += ci * cj
    assert (x * y).coeffs == _dense_fold(m, conv)


# ---------------------------------------------------------------------------
# exact signs of real values


@pytest.mark.parametrize("m", [3, 5, 7, 8, 12, 15])
@pytest.mark.parametrize("bits", [1, 64, 128, 1024, 4096])
def test_cos_table_is_within_two_units(m, bits):
    import mpmath

    table = _cos_table.__wrapped__(m, bits)  # built afresh, not from the cache
    assert table == _cos_table(m, bits)
    assert len(table) == len(cyclotomic_polynomial(m)) - 1
    with mpmath.workprec(4 * bits + 64):
        for k, entry in enumerate(table):
            exact = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * k / m), bits)
            assert abs(entry - exact) < 2


@pytest.mark.parametrize("m", [5, 8, 12, 97])
@pytest.mark.parametrize("bits", [4096, 8192])
def test_wide_cos_table_is_within_two_units(m, bits):
    # the widths that large coefficients or root orders ask for, where the
    # w-bit square of the angle keeps each Taylor step at w bits
    mpmath = pytest.importorskip("mpmath")
    table = _cos_table(m, bits)
    assert table[0] == 1 << bits
    with mpmath.workprec(bits + 64):
        for k, entry in enumerate(table):
            exact = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * k / m), bits)
            assert abs(entry - exact) < 2


def test_real_sign_of_small_values(real_sign):
    golden = -CycInt(5, (0, 0, 1, 1))  # 1.618...
    assert real_sign(golden) == 1
    assert real_sign(-golden) == -1
    assert real_sign(golden - 1) == 1  # 0.618...
    assert real_sign(golden - 2) == -1
    assert real_sign(CycInt(5)) == 0
    assert real_sign(CycInt(12, (7,))) == 1
    sqrt2 = CycInt(8, (0, 1, 0, -1))
    assert real_sign(sqrt2 * sqrt2 - 2) == 0
    assert real_sign(99 * sqrt2 - 140) == 1  # 140.0071...
    assert real_sign(70 * sqrt2 - 99) == -1  # 98.9949...


def test_a_broken_cos_table_trips_the_invariant(monkeypatch, real_sign):
    # the a-priori precision makes |S| > 2L a theorem; a table that breaks
    # it must raise rather than hand back a guessed sign
    monkeypatch.setattr(cyclotomic, "_cos_table", lambda m, bits: (0,) * 4)
    with pytest.raises(SignUndecided):
        real_sign(CycInt(5, (0, 0, 1, 1)))


# ---------------------------------------------------------------------------
# q-ary entropy


def test_entropy_endpoints_exact():
    assert entropy_q(2, 0) == 0.0
    assert entropy_q(2, 0.5) == 1.0
    assert entropy_q(3, Fraction(2, 3)) == 1.0
    assert entropy_q(5, 0) == 0.0


def test_entropy_known_value():
    # h_2(1/4) = 1/4 log2 4 + 3/4 log2 (4/3)
    expected = 0.25 * 2 + 0.75 * math.log2(4 / 3)
    assert entropy_q(2, 0.25) == pytest.approx(expected, abs=1e-14)


def test_entropy_is_concave_increasing_below_peak():
    samples = [entropy_q(3, x / 100) for x in range(0, 67, 3)]
    assert all(b > a for a, b in zip(samples, samples[1:]))


# (q, x) whose float is 0.0 or 1.0: a positive x below 2^-1074, and an x
# within 2^-53 of 1 below (q-1)/q; the first three raised ValueError (math
# domain error) from a log of 0.0
_ENTROPY_EDGES = [
    (2, Decimal("1E-400")),
    (2, Fraction(1, 10**400)),
    (2**60, Fraction(2**60 - 2, 2**60)),
    (3, Decimal("1E-324")),
    (2, Fraction(1, 2**1080)),
    (7, Fraction(3, 2**1078)),
    (5, Decimal("3.7E-330")),
    (2, Decimal("1E-999999999")),
    (2**70, Fraction(2**70 - 5, 2**70)),
    (2**60 + 1, Fraction(2**60 - 1, 2**60)),
]


@pytest.mark.parametrize("q, x", _ENTROPY_EDGES, ids=[str(i) for i in range(len(_ENTROPY_EDGES))])
def test_entropy_of_an_x_whose_float_is_zero_or_one(q, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        if isinstance(x, Fraction):
            big = mpmath.mpf(x.numerator) / x.denominator
        else:
            big = mpmath.mpf(str(x))
        # log1p: at 50 digits 1 - big rounds to 1 for the tiny x
        exact = big * mpmath.log(q - 1) - big * mpmath.log(big) - (1 - big) * mpmath.log1p(-big)
        expected = float(exact / mpmath.log(q))
    assert float(x) in (0.0, 1.0)
    got = entropy_q(q, x)
    assert type(got) is float
    if expected == 0.0:
        assert got == 0.0  # the result underflows
    else:
        assert abs(got - expected) <= 1e-12 * expected, (got, expected)


def test_entropy_domain_errors():
    with pytest.raises(DomainError):
        entropy_q(1, 0.3)
    with pytest.raises(DomainError):
        entropy_q(2, 0.51)
    with pytest.raises(DomainError):
        entropy_q(3, -0.01)


def _fraction_entropy_q(q, x):
    # entropy_q with its domain decided by Fraction comparisons, the
    # reference for the integer check
    if q < 2:
        raise DomainError(f"entropy_q needs q >= 2, got {q}")
    top = Fraction(q - 1, q)
    if x < 0 or x > top:
        raise DomainError(f"entropy_q argument {x} outside [0, {top}]")
    if x == 0:
        return 0.0
    if x == top:
        return 1.0
    x = float(x)
    value = -x * math.log(x, q) - (1.0 - x) * math.log(1.0 - x, q)
    if q > 2:
        value += x * math.log(q - 1, q)
    return value


def _fraction_first_root_ratio(q, delta):
    if q < 2:
        raise DomainError(f"need q >= 2, got {q}")
    if delta < 0 or delta > Fraction(q - 1, q):
        raise DomainError(f"delta must lie in [0, {q - 1}/{q}], got {delta}")
    delta = float(delta)
    return (q - 1 - (q - 2) * delta - 2.0 * math.sqrt((q - 1) * delta * (1.0 - delta))) / q


def _domain_grid(q):
    top = (q - 1) / q
    exact = Fraction(q - 1, q)
    tiny = Fraction(1, 10**30)
    return [
        0, -0.0, 1e-300, -1e-300,
        top, math.nextafter(top, 0.0), math.nextafter(top, 1.0),
        exact, exact - tiny, exact + tiny,
        Decimal("0.25"), Decimal(q - 1) / Decimal(q), Decimal(repr(top)),
        True, False,
        np.int8(0), np.int8(1), np.int64(0), np.int64(-1),
        np.float16(top), np.float16(0.25), np.float32(top), np.float32(-0.0),
        np.float64(top), np.float64(0.5),
    ]


def _outcome(f, q, x):
    try:
        return "value", f(q, x)
    except DomainError as exc:
        return "DomainError", str(exc)


@pytest.mark.parametrize("q", range(2, 8))
def test_integer_domain_checks_match_the_fraction_comparisons(q):
    for x in _domain_grid(q):
        assert _outcome(entropy_q, q, x) == _outcome(_fraction_entropy_q, q, x), (q, x)
        assert _outcome(first_root_ratio, q, x) == _outcome(_fraction_first_root_ratio, q, x), (q, x)
    for q_bad in (1, 0, -3):
        assert _outcome(entropy_q, q_bad, 0.1) == _outcome(_fraction_entropy_q, q_bad, 0.1)
        assert _outcome(first_root_ratio, q_bad, 0.1) == _outcome(_fraction_first_root_ratio, q_bad, 0.1)


def test_a_nan_or_an_infinity_lies_outside_the_domain():
    # a NaN is neither below 0 nor above (q-1)/q, so comparisons alone
    # would let it through to a NaN result
    for x in (math.nan, np.float32("nan"), Decimal("NaN"), math.inf, -math.inf, Decimal("-Infinity")):
        with pytest.raises(DomainError, match=r"outside \[0, 2/3\]$"):
            entropy_q(3, x)
        with pytest.raises(DomainError, match=r"^delta must lie in \[0, 2/3\], got "):
            first_root_ratio(3, x)


class _RatioRefused(Decimal):
    def as_integer_ratio(self):
        raise AssertionError(f"integer ratio of {self} read")


def test_values_up_to_a_half_are_placed_without_their_integer_ratio():
    # 1E-999999999 as an integer ratio has a billion-digit denominator
    assert first_root_ratio(3, _RatioRefused("1E-999999999")) == first_root_ratio(3, 0.0)
    assert entropy_q(3, _RatioRefused("0.25")) == entropy_q(3, 0.25)
    assert entropy_q(2, _RatioRefused("0.5")) == 1.0
    for x in ("1E+999999999", "-1E-999999999", "Infinity"):
        with pytest.raises(DomainError):
            entropy_q(3, _RatioRefused(x))
        with pytest.raises(DomainError):
            first_root_ratio(3, _RatioRefused(x))
