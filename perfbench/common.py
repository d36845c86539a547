"""Helpers shared by the workloads' input generators and oracles.

Oracles here are written against the mathematics, not against the library's
code paths: integer identities, closed forms and high-precision numerics.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def normalized(obj):
    """The value a JSON round trip produces (tuples become lists, ...)."""
    return json.loads(json.dumps(obj))


def frac_str(value: Fraction | int) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def multinomial(parts) -> int:
    out = math.factorial(sum(parts))
    for c in parts:
        out //= math.factorial(c)
    return out


def compositions_colex(q: int, n: int) -> list[tuple[int, ...]]:
    """All compositions of n into q parts, ordered by the reversed tuple."""

    def rec(parts: int, total: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in rec(parts - 1, total - head):
                yield (head,) + tail

    return sorted(rec(q, n), key=lambda t: t[::-1])


def cycled(rng: random.Random, items):
    """Endless stream of seeded permutations of ``items``, one after another,
    so that every item appears equally often over each full cycle."""
    items = list(items)
    while True:
        for item in rng.sample(items, len(items)):
            yield item


def eigen_complex(value, digits: int = 60):
    """A spectrum JSON eigenvalue (an int, or the power-basis coefficients of
    a cyclotomic integer) evaluated at ``digits`` digits."""
    with mpmath.workdps(digits):
        if isinstance(value, int):
            return mpmath.mpc(value)
        m = value["order"]
        return mpmath.fsum(
            c * mpmath.expjpi(mpmath.mpf(2 * k) / m) for k, c in enumerate(value["coeffs"])
        )


def close(a, b, digits: int = 60) -> bool:
    """Equal up to rounding at ``digits`` digits, relative to the magnitude."""
    with mpmath.workdps(digits):
        scale = max(mpmath.mpf(1), abs(a), abs(b))
        return abs(a - b) <= scale * mpmath.mpf(10) ** (10 - digits)
