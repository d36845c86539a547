"""The ring of cyclotomic integers Z[zeta_m], loaded on first use.

``CycInt`` holds an element in a canonical normal form: its residue in the
power basis modulo the m-th cyclotomic polynomial, whose rows of reduced
powers of zeta are cached per m.  The fixed-point cosine tables here order
its real elements exactly (see ``schemes._extreme``).  Only composition
spectra, the alphabets' characters and the representation layer use the
ring, so Hamming spectra, reports and LP certificates never compile this
module; the package, and :mod:`.exactnum` for the names it held, read its
public names from here on first access, as the package's ``_HOMES`` table
lists them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, OrderMismatch



def _exact_poly_div(num: list[int], den: Sequence[int]) -> list[int]:
    # Long division by a monic integer polynomial; remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        out[top - dd] = c
        if c:
            for k in range(dd + 1):
                num[top - dd + k] -= c * den[k]
    if any(num):
        raise ArithmeticError("division is not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Computed by dividing x^m - 1 by the cyclotomic polynomials of the
    proper divisors of m; every quotient along the way is exact.
    """
    if m < 1:
        raise DomainError(f"cyclotomic polynomial needs m >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    # rows[e] = coefficients of zeta^e in the power basis, e < m: x^e
    # reduced modulo the m-th cyclotomic polynomial.  Row 0 gives the degree.
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    row = [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(tuple(row))
        carry = row[deg - 1]
        row = [0] + row[: deg - 1]
        if carry:
            row = [row[k] - carry * phi[k] for k in range(deg)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _fold_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # table[e] = the nonzero (k, coefficient) pairs of zeta^e in the power
    # basis, e < m: the rows of _reduction_rows(m) with their zeros dropped.
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in _reduction_rows(m))


class CycInt:
    """A cyclotomic integer: an element of Z[zeta_m] in canonical form.

    The canonical form is the residue in the power basis
    1, zeta, ..., zeta^(deg-1) modulo the m-th cyclotomic polynomial, so
    equality of coefficient vectors is equality in the ring.  Instances
    are immutable; arithmetic returns new values and mixes freely with
    plain ``int``.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()):  # noqa: D107
        if order < 1:
            raise DomainError(f"root order must be >= 1, got {order}")
        table = _fold_table(order)
        acc = [0] * len(_reduction_rows(order)[0])
        for e, c in enumerate(coeffs):
            if c:
                for k, r in table[e % order]:
                    acc[k] += c * r
        self._order = order
        self._coeffs = tuple(acc)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, order: int, value: int) -> CycInt:
        return cls(order, (value,))

    @classmethod
    def _canonical(cls, order: int, coeffs: tuple[int, ...]) -> CycInt:
        # Wrap coefficients that are already in canonical form, unfolded.
        out = cls.__new__(cls)
        out._order = order
        out._coeffs = coeffs
        return out

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CycInt:
        """zeta_m^power as a canonical ring element."""
        return cls._canonical(order, _reduction_rows(order)[power % order])

    @classmethod
    def from_root_powers(cls, order: int, counts: Sequence[int]) -> CycInt:
        """The sum  counts[e] * zeta_m^e  over all listed exponents."""
        return cls(order, counts)

    # -- structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def as_integer(self) -> int | None:
        """The value as a plain int when it lies in Z, else None."""
        if any(self._coeffs[1:]):
            return None
        return self._coeffs[0]

    def conjugate(self) -> CycInt:
        """Complex conjugate (the Galois map zeta -> zeta^(-1))."""
        # zeta^i maps to zeta^(m - i), whose power-basis row is table[-i]
        # (row 0 for i = 0)
        table = _fold_table(self._order)
        acc = [0] * len(self._coeffs)
        for i, c in enumerate(self._coeffs):
            if c:
                for k, r in table[-i]:
                    acc[k] += c * r
        return CycInt._canonical(self._order, tuple(acc))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: object) -> CycInt | None:
        if isinstance(other, CycInt):
            if other._order != self._order:
                raise OrderMismatch(
                    f"root orders differ: {self._order} vs {other._order}"
                )
            return other
        if isinstance(other, int):
            return CycInt.from_int(self._order, other)
        return None

    def __add__(self, other: CycInt | int) -> CycInt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        coeffs = tuple(a + b for a, b in zip(self._coeffs, rhs._coeffs))
        return CycInt._canonical(self._order, coeffs)

    __radd__ = __add__

    def __neg__(self) -> CycInt:
        return CycInt._canonical(self._order, tuple(-a for a in self._coeffs))

    def __sub__(self, other: CycInt | int) -> CycInt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: int) -> CycInt:
        return (-self) + other

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt._canonical(self._order, tuple(a * other for a in self._coeffs))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._coeffs, rhs._coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycInt(self._order, conv)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> CycInt:
        if exponent < 0:
            raise DomainError("negative powers leave the ring of integers")
        result = CycInt.from_int(self._order, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.as_integer() == other
        if isinstance(other, CycInt):
            if self._order == other._order:
                return self._coeffs == other._coeffs
            a, b = self.as_integer(), other.as_integer()
            return a is not None and a == b
        return NotImplemented

    def __hash__(self) -> int:
        n = self.as_integer()
        if n is not None:
            return hash(n)
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"CycInt(order={self._order}, coeffs={self._coeffs})"

    def to_term_string(self) -> str:
        """Canonical text form ``a0+a1*z+a2*z^2+...`` with every coefficient."""
        parts = [str(self._coeffs[0])]
        for i, c in enumerate(self._coeffs[1:], start=1):
            parts.append(f"{c:+d}*z" if i == 1 else f"{c:+d}*z^{i}")
        return "".join(parts)


@lru_cache(maxsize=None)
def _cos_table(m: int, bits: int) -> tuple[int, ...]:
    # T[k] with |T[k] - 2**bits cos(2 pi k/m)| < 2, k < deg, and T[0] = 2**bits
    # exactly: integer fixed point at w = bits + g bits, floored to bits (< 1).
    # In units of 2**-w, each acot in pi = 16 acot 5 - 4 acot 239 floors
    # N <= w/(2 log2 x) + 1/2 terms 2**w // x**(2i+1) and drops a tail < 1 (pi
    # is within 4w + 30), so the angle X = 2j pi // m, j = min(k, m - k) <= m/2,
    # is within 4w + 31, and so is cos X (cos is 1-Lipschitz).  The series runs
    # in s = Y/2**w, Y = X**2 >> w, a w-bit square whose floor moves s by under
    # 2**-w and cos(sqrt s) by under half of that (|d cos(sqrt s)/ds| <= 1/2).
    # Each Taylor term floors once, (term Y >> w) // ((n-1) n), and lags the
    # exact term in s by < 2 as s < 12; that term is below 1 from n = w + 10 on,
    # so at most w/2 + 4 terms are nonzero, and the rest leave a tail < 2.  The
    # total 4w + 31 + 1/2 + (w + 8) + 2 < 5w + 42 is below 2**g,
    # g = bitlen(bits) + 8.  At j = 0 every term after the first is 0.
    guard = bits.bit_length() + 8
    w = bits + guard
    pi = 0
    for weight, x in ((16, 5), (-4, 239)):
        term, odd = (1 << w) // x, 1
        while term:
            pi += weight * (-1) ** (odd // 2) * (term // odd)
            term, odd = term // (x * x), odd + 2
    deg = len(_reduction_rows(m)[0])
    cosines = []
    for j in range(min(deg, m // 2 + 1)):
        angle = 2 * j * pi // m
        square = angle * angle >> w
        term, total, n = 1 << w, 1 << w, 0
        while term:
            n += 2
            term = (term * square >> w) // ((n - 1) * n)
            total += (-1) ** (n // 2) * term
        cosines.append(total >> guard)
    return tuple(cosines[min(k, m - k)] for k in range(deg))


def _sign_bits(deg: int, size: int) -> int:
    # The precision B at which a fixed-point sum over _cos_table decides the
    # sign of every nonzero real alpha in Z[zeta_m] of degree deg with
    # sum |c_k| <= size: deg * bitlen(size) + 2 (the argument is written out
    # at schemes._extreme), rounded up to a multiple of 64 so that values of
    # similar size share one table.
    return -(-(deg * size.bit_length() + 2) // 64) * 64
