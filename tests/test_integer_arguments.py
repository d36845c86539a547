"""Integer-like arguments at the API boundary of groups, krawtchouk and exactnum.

Every function that takes integers gives, for numpy integers of every width
and for bools, the same result as for the plain ints they stand for: the
same value, with no numpy scalar or bool leaking into it, or the same type
of error.
"""

from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_spectra import (
    HammingGraphSpec,
    SchemeSpectraError,
    binom,
    cyclic,
    enumerate_shell,
    kraw,
    kraw_column,
    multinom,
    shell_size,
)

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
