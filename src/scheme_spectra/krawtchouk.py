"""Classical Krawtchouk polynomials.

The classical value K_i(j) is the eigenvalue of the distance-d Hamming
graph on the weight-j character shell.  A whole column (one argument,
every index) comes from one pass of the three-term recurrence, every
division checked; the closed-form classical sum stays as its independent
oracle.

The composition refinement, which replaces weights by full
occurrence-count vectors, is :mod:`.composition`, and its per-value
routes are :mod:`.oracles`, each loaded on first use.  The public values
that this module held still resolve here, read from their home on first
access as the package's ``_HOMES`` table lists them, so that importing
this module compiles none of those modules nor :mod:`.groups`.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import DomainError, NotFound, RangeError
from .exactnum import _unit_place, binom


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


def kraw(n: int, q: int, i: int, j: int) -> int:
    """Classical Krawtchouk value  sum_k (-1)^k (q-1)^(i-k) C(j,k) C(n-j,i-k)."""
    # a float would turn the "exact" value into a float
    n, q, i, j = operator.index(n), operator.index(q), operator.index(i), operator.index(j)
    if n < 1 or q < 2:
        raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise RangeError(f"indices i={i}, j={j} outside 0..{n}")
    total = 0
    for k in range(0, i + 1):
        c = binom(j, k) * binom(n - j, i - k)
        if c:
            total += (-1) ** k * (q - 1) ** (i - k) * c
    return total


def kraw_column(n: int, q: int, x: int) -> list[int]:
    """The column K_i(x), i = 0..n, in one pass of the three-term recurrence

        (i+1) K_{i+1}(x) = (i + (q-1)(n-i) - q x) K_i(x) - (q-1)(n-i+1) K_{i-1}(x)

    (Delsarte 1973; MacWilliams-Sloane ch. 5).  Every division is checked
    to be exact, so a wrong recurrence raises instead of rounding.  The
    closed-form :func:`kraw` stays as the independent per-value oracle.
    """
    if n < 1 or q < 2:
        raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if not 0 <= x <= n:
        raise RangeError(f"argument x={x} outside 0..{n}")
    # a float would turn the "exact" column into floats; kraw refuses
    # non-integral n and x too (math.comb raises TypeError)
    n, q, x = operator.index(n), operator.index(q), operator.index(x)
    column = [1]
    append = column.append
    # the factors a = i + (q-1)(n-i) - qx and b = (q-1)(n-i+1) at step i
    a = (q - 1) * n - q * x
    b = (q - 1) * (n + 1)
    cur, prev = 1, 0
    for i in range(n):
        value, rem = divmod(a * cur - b * prev, i + 1)
        if rem:
            raise ArithmeticError(f"recurrence is not integral at n={n}, q={q}, x={x}, i={i}")
        prev, cur = cur, value
        append(value)
        a += 2 - q
        b -= q - 1
    return column


@functools.lru_cache(maxsize=8)
def _shell_sizes(n: int, q: int) -> tuple[int, ...]:
    """Weight-shell sizes (q-1)^j C(n, j), j = 0..n, by the ratio recurrence.

    Cached per (n, q), since a sweep over d at one (n, q) reads the same
    sizes for every report; the tuple is immutable, so no caller can spoil
    the cache.  Callers pass plain ints: a numpy n would be a hit for the
    equal int, and would store sizes that wrapped at 64 bits.  An entry
    holds n + 1 ints of up to n log2(q) bits: about 5.9 MB at n = 5000,
    q = 5, so the 8 entries retain at most about 47 MB.
    """
    sizes = [1]
    size = 1
    for j in range(n):
        # one bigint product per step: the small factors multiply first
        size = size * ((q - 1) * (n - j)) // (j + 1)
        sizes.append(size)
    return tuple(sizes)


def first_nonpositive(n: int, q: int, d: int) -> int:
    """Smallest shell index j >= 1 with K_d(j) <= 0.

    By reciprocity m_j K_d(j) = m_d K_j(d) with positive shell sizes, so
    the sign is read off the column K_j(d).  For d >= 1 the row-sum
    identity guarantees a sign change, so the scan cannot run off the end;
    NotFound guards the degenerate d = 0 case (and n = 0, with no shells).
    """
    if n >= 1:
        column = kraw_column(n, q, d)
        for j in range(1, n + 1):
            if column[j] <= 0:
                return j
    raise NotFound(f"K_{d} stays positive on 1..{n} for n={n}, q={q}")


def first_root_ratio(q: int, delta: float) -> float:
    """Large-n limit of (first Krawtchouk root)/n at degree delta*n.

    A float diagnostic only; all bound bookkeeping elsewhere is exact.  The
    domain is checked exactly, as :func:`entropy_q` checks its own: without
    building a Fraction, and above 1/2 in integers on delta's integer ratio.
    A NaN is outside it.  A q too large for a float (about 2^1024 and up)
    is never converted: the same expression is then evaluated in integers
    and its value returned as a float.
    """
    if q < 2:
        raise DomainError(f"need q >= 2, got {q}")
    if _unit_place(operator.index(q), delta) is None:
        raise DomainError(f"delta must lie in [0, {q - 1}/{q}], got {delta}")
    delta = float(delta)
    try:
        return (q - 1 - (q - 2) * delta - 2.0 * math.sqrt((q - 1) * delta * (1.0 - delta))) / q
    except OverflowError:
        pass
    # With delta = a/b the value is (X - 2 sqrt N) / (q b), X = (q-1) b - (q-2) a
    # and N = (q-1) a (b-a).  It is read as (X^2 - 4N) / ((X + 2 sqrt N) q b),
    # so that nothing cancels; X >= q - 1 > 2^1023, so the floor of 2 sqrt N,
    # off by under 1, moves the quotient by under 2^-1023 of itself.
    a, b = delta.as_integer_ratio()
    x = (q - 1) * b - (q - 2) * a
    four_n = 4 * (q - 1) * a * (b - a)
    return (x * x - four_n) / ((x + math.isqrt(four_n)) * q * b)
