"""Integer-like arguments at the API boundary of groups, krawtchouk, exactnum,
schemes and bounds.

Every function that takes integers gives, for numpy integers of every width
and for bools, the same result as for the plain ints they stand for: the
same value, with no numpy scalar or bool leaking into it, or the same type
of error.
"""

from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scheme_spectra import (
    BadLabel,
    CompositionGraphSpec,
    CycInt,
    DomainError,
    HammingGraphSpec,
    LPSolution,
    NotOrthogonal,
    Representation,
    SchemeSpectraError,
    SizeExceeded,
    SpecMismatch,
    binom,
    build_representation,
    char_value,
    check_lp_solution,
    composition_spectrum,
    comp,
    conjecture_probe,
    cyclic,
    enumerate_shell,
    finite_field,
    gen_kraw,
    gen_kraw_circulant,
    hadamard_representation,
    kraw,
    kraw_column,
    lp_two_support,
    multinom,
    multiplicity_ratio,
    projector_identity_check,
    shell_size,
    verify_representation,
    zero_shell_predicate,
)
from scheme_spectra.representation import _shell_indices

_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _holders(value):
    # the integer types that hold value exactly: bool for 0 and 1 only
    kinds = [int] + [t for t in _NUMPY_INTS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    return kinds + [bool] * (value in (0, 1))


@st.composite
def int_args(draw, *bounds):
    """Plain ints in the given (low, high) ranges, and the same values each
    cast to a type drawn among those that hold it."""
    plain = [draw(st.integers(low, high)) for low, high in bounds]
    cast = [draw(st.sampled_from(_holders(v)))(v) for v in plain]
    return plain, cast


def _outcome(fn, *args):
    # the result's repr, in which a numpy scalar or a bool would show, or the
    # type of a library or argument error
    try:
        result = fn(*args)
        if isinstance(result, Iterator):
            result = list(result)
    except (SchemeSpectraError, TypeError) as exc:
        return type(exc)
    return repr(result)


def _same(fn, plain, cast):
    expected = _outcome(fn, *plain)
    assert expected is not TypeError  # plain ints are never refused by type
    assert _outcome(fn, *cast) == expected


_SETTINGS = settings(max_examples=150, deadline=None)


@_SETTINGS
@given(int_args((0, 6), (-1, 8), (-1, 9)))
def test_weight_shells(args):
    plain, cast = args
    for fn in (shell_size, enumerate_shell):
        _same(lambda q, n, w: fn(cyclic(max(q, 2)), n, w), plain, cast)


@_SETTINGS
@given(int_args((2, 4), (0, 6), (-1, 6), (0, 6), (0, 6)))
def test_composition_shells(args):
    # the parts of a composition label are int-like too
    plain, cast = args
    for fn in (shell_size, enumerate_shell):
        _same(lambda q, n, *parts: fn(cyclic(q), n, parts[:q]), plain, cast)


@_SETTINGS
@given(int_args((0, 130), (0, 2), (-1, 1)), st.data())
def test_long_composition_shells(args, data):
    # shells (a, b) over Z_2 with b <= 2 stay small while a + b passes the
    # top of int8, where a sum of numpy parts would wrap
    plain, cast = args
    n = plain[0] + plain[1] + plain[2]
    plain = [n, tuple(plain[:2])]
    cast = [data.draw(st.sampled_from(_holders(n)))(n) if n >= 0 else n, tuple(cast[:2])]
    for fn in (shell_size, enumerate_shell):
        _same(lambda n, label: fn(cyclic(2), n, label), plain, cast)


@_SETTINGS
@given(int_args((-1, 9), (0, 6), (-1, 10), (-1, 10)))
def test_krawtchouk_values(args):
    plain, cast = args
    _same(kraw, plain, cast)
    _same(kraw_column, plain[:3], cast[:3])


@_SETTINGS
@given(int_args((-1, 40), (-2, 42)))
def test_binomials(args):
    plain, cast = args
    _same(binom, plain, cast)


@_SETTINGS
@given(int_args((-1, 120), (0, 120), (0, 120), (-1, 1)), st.data())
def test_multinomials(args, data):
    # parts near the top of int8 and uint8, whose sum a numpy int would wrap,
    # summing to n or missing it by one
    plain, cast = args
    n = sum(plain[:3]) + plain[3]
    plain = [n, *plain[:3]]
    cast = [data.draw(st.sampled_from(_holders(n)))(n), *cast[:3]]
    _same(lambda n, *parts: multinom(n, parts), plain, cast)


@_SETTINGS
@given(int_args((-1, 200)))
def test_cyclic_groups(args):
    plain, cast = args
    _same(cyclic, plain, cast)
    _same(lambda q: cyclic(q).order ** 3, plain, cast)


@pytest.mark.parametrize("kind", [*_NUMPY_INTS, bool])
def test_finite_field_orders_of_every_width(kind):
    # q is read through operator.index, as cyclic reads it: a refusal names
    # the plain int (a bool order was named True), and a float order is
    # refused rather than read as the field it stands for
    for q in (0, 1, 2, 4, 9, 12, 125, 243, 251, 256):
        if kind in _holders(q):
            _same(finite_field, [q], [kind(q)])
            _same(lambda q: finite_field(q).describe(), [q], [kind(q)])
    for q in (0, 1):
        with pytest.raises(DomainError) as exc:
            finite_field(kind(q))
        assert str(exc.value) == f"field order must be >= 2, got {q}"
    for q in (4.0, 9.0):
        for make in (cyclic, finite_field):
            with pytest.raises(TypeError):
                make(q)


@_SETTINGS
@given(int_args((0, 80), (0, 130), (0, 81)))
def test_hamming_specs(args):
    plain, cast = args
    _same(HammingGraphSpec, plain, cast)
    _same(lambda n, q, d: (HammingGraphSpec(n, q, d).vertex_count,
                           HammingGraphSpec(n, q, d).degree), plain, cast)


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_a_numpy_weight_is_a_weight_not_a_composition(kind):
    # a weight label of a numpy type was read as a composition and iterated
    assert shell_size(cyclic(3), 200, kind(100)) == shell_size(cyclic(3), 200, 100)
    assert list(enumerate_shell(cyclic(3), 3, kind(1))) == list(enumerate_shell(cyclic(3), 3, 1))


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_numpy_composition_parts_are_summed_as_ints(kind):
    # int8 parts 127 and 1 would sum to -128 as numpy ints
    parts = (kind(127), kind(1))
    assert shell_size(cyclic(2), 128, parts) == 128 == multinom(128, parts)
    assert list(enumerate_shell(cyclic(2), 128, parts)) == list(enumerate_shell(cyclic(2), 128, (127, 1)))


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_numpy_letters_are_letters(kind):
    # a numpy letter was refused as no element index, though word_index
    # took it; it is read as the plain int it stands for
    group = cyclic(3)
    assert comp(group, np.array([0, 1, 2], dtype=kind)) == comp(group, (0, 1, 2))
    assert char_value(group, kind(1), 2) == char_value(group, 1, 2)
    assert char_value(group, kind(1), 2).coeffs == char_value(group, 1, 2).coeffs
    for letter in (1.0, 3, -1):
        with pytest.raises(SpecMismatch, match=r" is not an element index of "):
            char_value(group, letter, 2)


# ---------------------------------------------------------------------------
# schemes and bounds


@_SETTINGS
@given(int_args((2, 3), (-1, 6), (-1, 6), (0, 6), (0, 6)))
def test_composition_specs(args):
    plain, cast = args

    def spec(q, n, *parts):
        return CompositionGraphSpec(cyclic(q), n, parts[:q])

    _same(spec, plain, cast)
    _same(lambda *a: (spec(*a).vertex_count, spec(*a).degree), plain, cast)
    _same(lambda *a: composition_spectrum(spec(*a)), plain, cast)


@_SETTINGS
@given(int_args((-1, 5), (-1, 13)))
def test_conjecture_probes(args):
    plain, cast = args
    _same(conjecture_probe, plain, cast)


@_SETTINGS
@given(int_args((-1, 9), (-1, 270)))
@example(([3, 60], [np.int64(3), 60]))
@example(([3, 12], [np.int8(3), 12]))
def test_multiplicity_ratios(args):
    # q^n wrapped in int64 at q = 3, n = 60, and overflowed int8 at n = 12
    plain, cast = args
    _same(multiplicity_ratio, plain, cast)


@_SETTINGS
@given(int_args((1, 4), (0, 1 << 33)))
@example(([2, 1 << 32], [2, np.int64(1 << 32)]))
def test_projector_identity_checks(args):
    # q^n wrapped in int64 (to 0 at q = 2^32, n = 2), which passed the cap
    plain, cast = args
    _same(projector_identity_check, plain, cast)


@_SETTINGS
@given(int_args((0, 9), (1, 5), (0, 10)))
def test_two_support_solutions(args):
    plain, cast = args
    _same(lp_two_support, plain, cast)
    _same(lambda *a: lp_two_support(*a).to_json(), plain, cast)


@_SETTINGS
@given(int_args((0, 4), (1, 4), (0, 5), (-2, 4), (-2, 4), (-2, 4), (-2, 4), (-2, 4)))
def test_lp_solutions(args):
    # n + 1 coefficients for n <= 4, so that some are refused for their count
    plain, cast = args

    def solution(n, q, d, *coefficients):
        return LPSolution(n, q, d, coefficients[: n + 1])

    _same(solution, plain, cast)
    _same(lambda *a: (solution(*a).objective, solution(*a).to_json()), plain, cast)
    _same(lambda *a: check_lp_solution(solution(*a)), plain, cast)


def _matrix(rep):
    # what a representation holds, with the repr of n, where a numpy int shows
    return repr(rep.n), rep.root_order, rep.exponents.dtype.str, rep.exponents.tobytes()


@settings(max_examples=60, deadline=None)
@given(int_args((1, 6), (2, 3), (1, 6)), st.data())
def test_lp_representations(args, data):
    # the two-support weights of the plain arguments, each cast to a type
    # that holds it, assembled over the cast alphabet
    plain, cast = args
    try:
        weights = list(lp_two_support(*plain).coefficients)
    except SchemeSpectraError:
        weights = [1] * (plain[0] + 1)
    cast_weights = [data.draw(st.sampled_from(_holders(c)))(c) for c in weights]

    def matrix(n, q, d, *weights):
        return _matrix(build_representation(LPSolution(n, q, d, weights), cyclic(q)))

    _same(matrix, plain + weights, cast + cast_weights)


@settings(max_examples=60, deadline=None)
@given(int_args((2, 4), (-1, 9)))
def test_hadamard_representations(args):
    plain, cast = args
    _same(lambda q, n: _matrix(hadamard_representation(cyclic(q), n)), plain, cast)


def _verdict(rep, spec, sample):
    # True, or the message of NotOrthogonal, which names the failing pair
    try:
        return verify_representation(rep, spec, sample=sample)
    except NotOrthogonal as exc:
        return str(exc)


def _mutated(rep, row):
    # entry (row, 0) times zeta_m, which breaks orthogonality at that row
    return rep.with_entry(row, 0, rep.entry(row, 0) * CycInt.root_of_unity(rep.root_order, 1))


_H623 = HammingGraphSpec(6, 2, 3)
_BAD623 = _mutated(build_representation(lp_two_support(6, 2, 3), cyclic(2)), 5)


@_SETTINGS
@given(int_args((-2, 300)))
def test_sample_counts(args):
    # on a matrix of 64 rows, where 100 draws already meet the mutated row
    plain, cast = args
    _same(lambda sample: _verdict(_BAD623, _H623, sample), plain, cast)


@_SETTINGS
@given(int_args((1, 6), (2, 3), (1, 6), (-2, 300)))
def test_full_and_sampled_verdicts(args):
    # a spec of cast ints and a cast sample count (0 standing for none, the
    # full check) on the representation of the plain arguments and on a
    # mutated copy of it
    plain, cast = args
    try:
        rep = build_representation(lp_two_support(*plain[:3]), cyclic(plain[1]))
    except SchemeSpectraError:
        return
    for matrix in (rep, _mutated(rep, rep.rows - 1)):
        _same(
            lambda n, q, d, sample: _verdict(matrix, HammingGraphSpec(n, q, d), sample or None),
            plain, cast,
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_a_narrow_sample_count_draws_every_pair(kind):
    # 2 * sample wrapped in int8, so np.int8(100) drew no pair and passed a
    # matrix that is not orthogonal
    with pytest.raises(NotOrthogonal, match=r"^rows 5 and 28 are not orthogonal "):
        verify_representation(_BAD623, _H623, sample=kind(100))
    assert _verdict(_BAD623, _H623, kind(100)) == _verdict(_BAD623, _H623, 100)


@pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8])
def test_a_narrow_n_meets_the_row_cap(kind):
    # 2**22 wrapped to 0 in int8, so the cap passed and the build failed
    # with an untyped ValueError
    with pytest.raises(SizeExceeded, match=r"^representation would have 4194304 rows"):
        hadamard_representation(cyclic(2), kind(22))


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_a_representation_keeps_n_as_an_int(kind):
    rep = hadamard_representation(cyclic(2), kind(4))
    assert type(rep.n) is int
    assert _matrix(rep) == _matrix(hadamard_representation(cyclic(2), 4))


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_a_constructed_representation_keeps_n_as_an_int(kind):
    plain = build_representation(lp_two_support(3, 2, 2), cyclic(2))
    rep = Representation(cyclic(2), kind(3), plain.exponents, "cast")
    assert type(rep.n) is int and rep.n == 3
    assert _matrix(rep) == _matrix(plain)
    assert _verdict(rep, HammingGraphSpec(3, 2, 2), None) is True


def test_a_representation_refuses_an_n_that_is_not_a_count():
    exponents = np.zeros((16, 4), dtype=np.uint8)
    for n in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            Representation(cyclic(2), n, exponents, "x")
    for n in (-1, np.int8(-3)):
        with pytest.raises(DomainError, match=rf"^need n >= 0, got n={int(n)}$"):
            Representation(cyclic(2), n, exponents, "x")
    # rows against q^n is the verifier's check: 16 rows are not 2^3
    rep = Representation(cyclic(2), 3, exponents, "x")
    with pytest.raises(SpecMismatch, match=r"^representation has 16 rows, expected 8$"):
        verify_representation(rep, HammingGraphSpec(3, 2, 1))


@pytest.mark.parametrize("kind", _NUMPY_INTS)
def test_numpy_composition_parts_meet_n(kind):
    # int8 parts 127 and 1 summed to -128 and were refused as not summing to n
    spec = CompositionGraphSpec(cyclic(2), 128, (kind(127), kind(1)))
    assert spec == CompositionGraphSpec(cyclic(2), 128, (127, 1))
    assert spec.degree == 128


# ---------------------------------------------------------------------------
# malformed composition labels

# one message per fault, wherever the label enters; {n} is the length asked for
_MALFORMED = {
    (1, 1): "composition has 2 parts, expected 3",
    (1, 1, 1, 0): "composition has 4 parts, expected 3",
    (3, -1, 0): "negative count in (3, -1, 0)",
    (1, 1, 1): "composition (1, 1, 1) sums to 3, expected {n}",
}


def _label_readers():
    # (name, n, call) for every function that reads a composition label over
    # Z_3, at length n, or at none (None); the circulant route needs 3 | n
    g = cyclic(3)
    return [
        ("gen_kraw i", 2, lambda r: gen_kraw(g, 2, r, (2, 0, 0))),
        ("gen_kraw j", 2, lambda r: gen_kraw(g, 2, (2, 0, 0), r)),
        ("gen_kraw brute i", 2, lambda r: gen_kraw(g, 2, r, (2, 0, 0), method="brute")),
        ("gen_kraw brute j", 2, lambda r: gen_kraw(g, 2, (2, 0, 0), r, method="brute")),
        ("gen_kraw_circulant", 6, lambda r: gen_kraw_circulant(3, 6, r)),
        ("CompositionGraphSpec", 2, lambda r: CompositionGraphSpec(g, 2, r)),
        ("enumerate_shell", 2, lambda r: list(enumerate_shell(g, 2, r))),
        ("shell_size", 2, lambda r: shell_size(g, 2, r)),
        ("_shell_indices", 2, lambda r: _shell_indices(g, 2, r)),
        ("is_negation_closed", None, g.is_negation_closed),
        ("zero_shell_predicate", None, lambda r: zero_shell_predicate(3, r)),
    ]


@pytest.mark.parametrize("kind", [int, *_NUMPY_INTS, bool])
def test_one_refusal_of_a_malformed_label(kind):
    # gen_kraw and the circulant raised SumMismatch with messages of their
    # own, CompositionGraphSpec DomainError, and is_negation_closed and
    # zero_shell_predicate let a short label or a negative count through
    for label, message in _MALFORMED.items():
        if not all(kind in _holders(c) for c in label):
            continue
        parts = tuple(map(kind, label))
        for name, n, read in _label_readers():
            if n is None and "{n}" in message:
                assert read(parts) in (True, False), name  # any total will do
                continue
            with pytest.raises(BadLabel) as exc:
                read(parts)
            assert type(exc.value) is BadLabel, name
            assert str(exc.value) == message.format(n=n), name
