"""Exact arithmetic underneath all character-sum computations.

Unbounded integers are plain Python ``int`` and exact rationals are
``fractions.Fraction``; the standard library already makes both exact, so
this module only supplies the handful of counting functions the rest of the
library leans on, and the q-ary entropy with its exact domain check.

The ring of cyclotomic integers Z[zeta_m], with the fixed-point cosine
tables that order its real elements, is :mod:`.cyclotomic`, loaded on first
use.  The public names of the ring that this module held still resolve
here, read from there on first access as the package's ``_HOMES`` table
lists them, so that importing this module compiles none of the ring.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

from .errors import DomainError, SumMismatch


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the usual out-of-range convention."""
    if n < 0:
        raise DomainError(f"binom needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinom(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (parts[0]! * parts[1]! * ...).

    Raises SumMismatch unless the parts are nonnegative and sum to n.
    """
    # plain ints, so that numpy parts cannot wrap around in the sum
    n = operator.index(n)
    counts = tuple(map(operator.index, parts))
    if any(c < 0 for c in counts):
        raise SumMismatch(f"negative part in {counts}")
    if sum(counts) != n:
        raise SumMismatch(f"parts {counts} sum to {sum(counts)}, expected {n}")
    result = math.factorial(n)
    for c in counts:
        result //= math.factorial(c)
    return result


def _unit_place(q: int, x: object) -> tuple[bool, bool] | None:
    # (x == 0, x == (q-1)/q) if x lies in [0, (q-1)/q], else None; a NaN or
    # an infinity lies outside.  Comparisons with 0, 1/2 and 1 are exact for
    # ints, floats, Fractions, Decimals and numpy scalars, and settle every x
    # up to 1/2 <= (q-1)/q.  Above it x is read as p / r through its integer
    # ratio (numpy ints have none and are read through __index__), which
    # there is no larger than x's own digits: a Decimal such as 1E-999999999
    # would give a power of ten of a billion digits.
    if x != x or x < 0 or x > 1:
        return None
    if x <= 0.5:
        return x == 0, q == 2 and x == 0.5
    p, r = _integer_ratio(x)
    gap = (q - 1) * r - q * p
    return (False, not gap) if gap >= 0 else None


def _integer_ratio(x: object) -> tuple[int, int]:
    # x as p / r in integers; numpy ints have no as_integer_ratio
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return operator.index(x), 1


def entropy_q(q: int, x: float) -> float:
    """q-ary entropy  x*log_q(q-1) - x*log_q(x) - (1-x)*log_q(1-x).

    Defined on [0, (q-1)/q] with the endpoint conventions h(0) = 0 and
    h((q-1)/q) = 1 returned exactly.  The domain and the endpoints are
    decided exactly without building a Fraction: by comparisons with 0, 1/2
    and 1, and above 1/2 in integers on x's integer ratio.  Floats, numpy
    scalars, Fractions, Decimals and ints are read; a NaN is outside.

    Inside the domain x is read as a float, unless that float is 0.0 (x
    below 2^-1074) or 1.0 (x within 2^-53 of 1, so q > 2^52), where a log
    of it or of 1 - x would be a log of 0.  Then x and 1 - x come from x's
    integer ratio, whose logs math.log reads exactly; an x below 2^-1090
    has an entropy below 2^-1075, which rounds to 0.0, and is never turned
    into a ratio, as a Decimal such as 1E-999999999 would be.
    """
    if q < 2:
        raise DomainError(f"entropy_q needs q >= 2, got {q}")
    q = operator.index(q)
    place = _unit_place(q, x)
    if place is None:
        raise DomainError(f"entropy_q argument {x} outside [0, {q - 1}/{q}]")
    at_zero, at_top = place
    if at_zero:
        return 0.0
    if at_top:
        return 1.0
    xf = float(x)
    if xf == 0.0:
        if x * 2**1090 < 1:
            return 0.0
        # h = x (ln(1/x) + ln(q-1) + c) / ln q with c = -(1-x) ln(1-x) / x,
        # which is 1 to double precision, as one correctly rounded quotient
        p, r = _integer_ratio(x)
        scale = (math.log(r) - math.log(p) + math.log(q - 1) + 1.0) / math.log(q)
        a, b = scale.as_integer_ratio()
        return p * a / (r * b)
    if xf == 1.0:
        # x = 1 - y, y below 2^-53 and above 1/q: ln x = ln(1 - y), and
        # x = 1 to double precision in the other two terms
        p, r = _integer_ratio(x)
        y = (r - p) / r
        return (-math.log1p(-y) - y * math.log(y) + math.log(q - 1)) / math.log(q)
    value = -xf * math.log(xf, q) - (1.0 - xf) * math.log(1.0 - xf, q)
    if q > 2:
        value += xf * math.log(q - 1, q)
    return value
