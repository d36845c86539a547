"""Finite abelian alphabets and their additive characters.

Two families are supported: integers modulo q and finite fields of prime
power order.  Elements are handled as indices 0..q-1 (field elements are
indexed by the base-p value of their coefficient vector), words over the
alphabet are plain tuples of indices, and a word's composition counts how
often each element occurs.  Characters take values in the cyclotomic
integers of order m = q (cyclic case) or of the characteristic m = p (field
case).  Indices add as base-m numerals, digit by digit mod m, by the one
digit routine that GroupSpec holds for both families; each family adds
only its character pairing and its multiplication.

The word layer (arithmetic and characters of whole words, and the shells
streamed one word at a time) serves only the independent routes, the
``verify`` suites and callers, so it lives in :mod:`.oracles`, loaded on
first use.  The names of it that this module held still resolve here, read
from there on first access as the package's ``_HOMES`` table lists them.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, reduce
from typing import Iterator, Sequence

from ._record import Record
from .errors import BadLabel, DivisibilityError, DomainError, RangeError, SpecMismatch


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


class Composition(Record):
    """How many times each of the q alphabet elements occurs in a word."""

    counts: tuple[int, ...]

    def __init__(self, counts: Sequence[int]) -> None:
        counts = tuple(map(operator.index, counts))
        if any(c < 0 for c in counts):
            raise BadLabel(f"negative count in {counts}")
        self._set(counts)

    @classmethod
    def _trusted(cls, counts: tuple[int, ...]) -> Composition:
        # Wrap a tuple of nonnegative ints without re-validating it.  Unlike
        # SpectrumEntry._trusted this sets its one field as Record._set does,
        # which keeps it inline: 88 bytes a label rather than 152 with an
        # instance dict, and no slower to build.  The spectra keep one label
        # per shell for the life of the process (composition._shell_labels).
        out = object.__new__(cls)
        object.__setattr__(out, "counts", counts)
        return out

    @classmethod
    def balanced(cls, q: int, n: int) -> Composition:
        """The composition (n/q, ..., n/q); requires q >= 1 dividing n."""
        if q < 1:
            raise DomainError(f"balanced composition needs q >= 1, got q={q}")
        if n % q:
            raise DivisibilityError(f"balanced composition needs q | n, got q={q}, n={n}")
        return cls((n // q,) * q)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, idx: int) -> int:
        return self.counts[idx]


class GroupSpec:
    """Shared interface of the supported alphabets.

    Every element index is a k-digit base-m numeral, m = ``char_order`` and
    q = m^k (k = 1 for Z_q), and letters add digit by digit mod m.  That
    digit arithmetic lives here, once for every alphabet: ``_vec`` and
    ``_idx`` map an index to its k digits, lowest first, and back, and
    ``add`` and ``neg`` read their letters through ``_check_element``, so a
    non-letter raises SpecMismatch.  An alphabet supplies k, ``mul`` and its
    character pairing ``char_exponent``, which read their letters the same
    way.  As letters add digit-wise, ``char_exponent(g, h)`` is the sum of
    ``char_exponent(g, m^i)`` weighted by the digits h_i of h, mod m, as
    the representation code relies on.
    The vertex index of a word of length n is then an n*k-digit base-m
    numeral, and words add digit by digit mod m too.  No alphabet keeps a
    table of size q: a character costs O(1) over Z_q, O(k^2) over GF(p^k)."""

    order: int
    char_order: int
    k: int

    def elements(self) -> range:
        return range(self.order)

    def _vec(self, a: int) -> tuple[int, ...]:
        m, digits = self.char_order, []
        for _ in range(self.k):
            digits.append(a % m)
            a //= m
        return tuple(digits)

    def _idx(self, vec: Sequence[int]) -> int:
        m = self.char_order
        return sum(c * m**i for i, c in enumerate(vec))

    def add(self, a: int, b: int) -> int:
        # digit i of a is a // m^i % m, read at each place m^i < q in turn
        # by a loop that allocates nothing
        a, b = self._check_element(a), self._check_element(b)
        q, m, out, place = self.order, self.char_order, 0, 1
        while place < q:
            out += (a // place + b // place) % m * place
            place *= m
        return out

    def neg(self, a: int) -> int:
        a = self._check_element(a)
        q, m, out, place = self.order, self.char_order, 0, 1
        while place < q:
            out += -(a // place) % m * place
            place *= m
        return out

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def char_exponent(self, g: int, h: int) -> int:
        """Exponent e with  phi_g(h) = zeta^e,  zeta of order ``char_order``."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def _check_element(self, g: int) -> int:
        # g as a plain int: a numpy letter is one, a float is none
        try:
            index = operator.index(g)
        except TypeError:
            index = -1
        if not 0 <= index < self.order:
            raise SpecMismatch(f"{g!r} is not an element index of {self!r}")
        return index

    def is_negation_closed(self, comp: Composition | Sequence[int]) -> bool:
        """Whether a generating composition is stable under negation; BadLabel
        unless it has one nonnegative count per element (:func:`_shell_label`)."""
        counts = _shell_label(self, None, tuple(comp))
        return all(counts[g] == counts[self.neg(g)] for g in self.elements())


class CyclicGroup(GroupSpec, Record):
    """Integers modulo q under addition: one base-q digit a letter."""

    q: int
    k = 1

    def __init__(self, q: int) -> None:
        q = operator.index(q)  # as for HammingGraphSpec
        if q < 2:
            raise DomainError(f"cyclic group needs q >= 2, got {q}")
        self._set(q)

    @property
    def order(self) -> int:
        return self.q

    @property
    def char_order(self) -> int:
        return self.q

    def mul(self, a: int, b: int) -> int:
        return self._check_element(a) * self._check_element(b) % self.q

    def char_exponent(self, g: int, h: int) -> int:
        return self._check_element(g) * self._check_element(h) % self.q

    def describe(self) -> dict:
        return {"kind": "cyclic", "q": self.q}


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    # The product of two length-k vectors over Z_p, reduced by the monic modulus
    # of degree k: its 2k - 1 >= k coefficients leave a remainder of exactly k.
    product = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                product[i + j] += ai * bj
    return _poly_rem(product, modulus, p)


def _poly_rem(f: Sequence[int], g: Sequence[int], p: int) -> tuple[int, ...]:
    # Remainder of f by monic g over Z_p.
    r = [c % p for c in f]
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        c = r[-1]
        if c:
            for t in range(dg + 1):
                r[len(r) - 1 - dg + t] = (r[len(r) - 1 - dg + t] - c * g[t]) % p
        r.pop()
    return tuple(r)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    k = len(f) - 1
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            g = (*tail, 1)
            if not any(_poly_rem(f, g, p)):
                return False
    return True


def _prime_power(v: int) -> tuple[int, int] | None:
    """(p, k) with v = p^k for a prime p, or None when v is not a prime power."""
    if v < 2:
        return None
    p = 2
    while p * p <= v and v % p:
        p += 1
    if v % p:
        p = v
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return (p, k) if v == 1 else None


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over Z_p.

    Candidates are compared coefficient-wise from the constant term up.
    """
    p, k = operator.index(p), operator.index(k)
    if _prime_power(p) != (p, 1):
        raise DomainError(f"field characteristic must be prime, got {p}")
    if k < 1:
        raise DomainError(f"field extension degree must be >= 1, got {k}")
    for tail in itertools.product(range(p), repeat=k):
        f = (*tail, 1)
        if _is_irreducible(f, p):
            return f
    raise DomainError(f"no irreducible polynomial of degree {k} over Z_{p}")


class FiniteField(GroupSpec, Record):
    """The additive group of GF(p^k), with field structure for characters.

    ``modulus`` is the monic irreducible polynomial defining the field,
    stored constant term first (length k+1).  Element i stands for the
    polynomial whose Z_p coefficient vector is the base-p expansion of i,
    so ``add``, ``neg`` and the digit vectors are GroupSpec's, in base p.
    What is field-specific is kept here: ``mul`` is one product reduced by
    the modulus, and as the trace is Z_p-linear,
    Tr(gh) = vec(g)^T B vec(h) mod p for the k x k trace form B[i][j] =
    Tr(x^(i+j)): O(k^2) a character, with no table of size q.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]) -> None:
        p, k = operator.index(p), operator.index(k)
        if _prime_power(p) != (p, 1):
            raise DomainError(f"field characteristic must be prime, got {p}")
        modulus = tuple(operator.index(c) for c in modulus)
        if not modulus or modulus[-1] % p != 1:
            raise SpecMismatch(f"modulus {modulus} is not monic over Z_{p}")
        modulus = tuple(c % p for c in modulus)
        if k < 1:
            raise DomainError(f"field extension degree must be >= 1, got {k}")
        if len(modulus) != k + 1:
            raise SpecMismatch(f"modulus degree {len(modulus) - 1} does not match k={k}")
        if not _is_irreducible(modulus, p):
            raise SpecMismatch(f"modulus {modulus} is reducible over Z_{p}")
        self._set(p, k, modulus)

    @property
    def order(self) -> int:
        return self.p**self.k

    @property
    def char_order(self) -> int:
        return self.p

    @cached_property
    def _trace_form(self) -> tuple[tuple[int, ...], ...]:
        # B[i][j] = Tr(x^(i+j)), each trace x^e + (x^e)^p + ... + (x^e)^(p^(k-1))
        # summed by Frobenius and checked to land in the prime subfield.
        p, k = self.p, self.k
        traces = []
        for e in range(2 * k - 1):
            acc = term = self._idx(_poly_rem([0] * e + [1], self.modulus, p))
            for _ in range(k - 1):
                term = reduce(self.mul, [term] * p)  # term^p
                acc = self.add(acc, term)
            if acc >= p:
                raise ArithmeticError(f"trace of x^{e} left the prime subfield")
            traces.append(acc)
        return tuple(tuple(traces[i : i + k]) for i in range(k))

    def mul(self, a: int, b: int) -> int:
        a, b = self._check_element(a), self._check_element(b)
        return self._idx(_poly_mul_mod(self._vec(a), self._vec(b), self.modulus, self.p))

    def trace(self, a: int) -> int:
        """Absolute trace down to Z_p, returned as an integer in 0..p-1."""
        return self.char_exponent(1, a)

    def char_exponent(self, g: int, h: int) -> int:
        g, h = self._check_element(g), self._check_element(h)
        vh = self._vec(h)
        e = 0
        for gi, row in zip(self._vec(g), self._trace_form):
            if gi:
                e += gi * sum(map(operator.mul, row, vh))
        return e % self.p

    def describe(self) -> dict:
        return {
            "kind": "field",
            "p": self.p,
            "k": self.k,
            "q": self.order,
            "modulus": list(self.modulus),
        }


def cyclic(q: int) -> CyclicGroup:
    return CyclicGroup(q)


def finite_field(q: int, modulus: Sequence[int] | None = None) -> FiniteField:
    """GF(q) for a prime power q; the modulus defaults to the canonical one."""
    q = operator.index(q)  # as for cyclic
    if q < 2:
        raise DomainError(f"field order must be >= 2, got {q}")
    base = _prime_power(q)
    if base is None:
        raise DomainError(f"{q} is not a prime power")
    p, k = base
    if modulus is None:
        modulus = default_modulus(p, k)
    return FiniteField(p, k, tuple(modulus))


# ---------------------------------------------------------------------------
# words and shell labels


def index_word(group: GroupSpec, index: int, n: int) -> tuple[int, ...]:
    """The word of length n whose canonical row index is ``index``."""
    index, n = operator.index(index), operator.index(n)
    if n < 0:
        raise DomainError(f"word length must be >= 0, got n={n}")
    rest = index
    digits = []
    for _ in range(n):
        digits.append(rest % group.order)
        rest //= group.order
    if index < 0 or rest:
        raise RangeError(f"index {index} is outside 0..q**n - 1 for q={group.order}, n={n}")
    return tuple(reversed(digits))


def _shell_label(group: GroupSpec, n: int | None, label: object) -> int | tuple[int, ...]:
    """A shell label as a weight in 0..n if it has an integer value, else as
    the counts of a composition of n into q parts; BadLabel if it is not.
    Every reader of a composition label passes it here as a tuple (so an int
    is a TypeError), with n None where any total will do."""
    try:
        w = operator.index(label)
    except TypeError:
        counts = tuple(map(operator.index, label))
    else:
        if not 0 <= w <= n:
            raise BadLabel(f"weight {w} outside 0..{n}")
        return w
    if len(counts) != group.order:
        raise BadLabel(f"composition has {len(counts)} parts, expected {group.order}")
    if any(c < 0 for c in counts):
        raise BadLabel(f"negative count in {counts}")
    if n is not None and sum(counts) != n:
        raise BadLabel(f"composition {counts} sums to {sum(counts)}, expected {n}")
    return counts


def _colex_walk(q: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # (counts of j, multinom(n, j)) for every composition j of n into q
    # parts, in colex order, by one walk from (n, 0, ..., 0): the next
    # composition empties the first nonzero part c_i = v into c_0 = v - 1
    # and c_(i+1) + 1, which multiplies the multinomial by v / (c_(i+1) + 1).
    # Each step touches one composition, so the walk costs q per shell.
    q, n = operator.index(q), operator.index(n)
    if n < 0 and q > 1:
        return  # no composition; the one part of q = 1 is n, left to the caller
    counts, size = [n] + [0] * (q - 1), 1
    yield tuple(counts), size
    while counts[-1] != n:
        i = 0
        while not counts[i]:
            i += 1
        v = counts[i]
        counts[i], counts[0] = 0, v - 1
        counts[i + 1] += 1
        size = size * v // counts[i + 1]
        yield tuple(counts), size


def enumerate_compositions(q: int, n: int) -> Iterator[Composition]:
    """All compositions of n into q ordered parts, colexicographically.

    Colexicographic order compares the last differing coordinate, so the
    stream starts at (n, 0, ..., 0) and ends at (0, ..., 0, n), walked one
    composition at a time by the same walk that sizes the spectra's shells.
    """
    if q < 1:
        raise BadLabel(f"need at least one part, got q={q}")
    # every part is a plain nonnegative int but the one of q = 1, n itself
    wrap = Composition if q == 1 else Composition._trusted
    return (wrap(counts) for counts, _ in _colex_walk(q, n))
