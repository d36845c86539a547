"""Distance and composition graphs on words, and their exact spectra.

A Hamming graph joins words differing in exactly d coordinates; its
composition refinement joins x to y when y - x has a prescribed
occurrence-count vector.  Both are Cayley graphs of the additive group,
so every character shell contributes one eigenvalue, computed here from
Krawtchouk formulas — the dense adjacency matrix is never formed except
inside the deliberately independent oracle checks at the bottom of this
module.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Record
from .errors import (
    DivisibilityError,
    DomainError,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    OrderMismatch,
    RangeError,
    SizeExceeded,
    SpecMismatch,
)
from .exactnum import CycInt, _cos_table, _sign_bits, binom, multinom
from .groups import (
    Composition,
    GroupSpec,
    _shell_label,
    comp as word_composition,
    cyclic,
    enumerate_shell,
    word_char_value,
)
from .krawtchouk import (
    _balanced_shells,
    _character_sum,
    _colex_shells,
    _read_out,
    _shell_sizes,
    gen_kraw,
    kraw,
)

#: Vertex-count cap for the dense projector check.
PROJECTOR_MAX_VERTICES = 81

#: Work cap for a composition spectrum: shells x n x q x (root order),
#: times the number of 512-bit chunks in one packed count (about n log2 q
#: bits, so one chunk for every input with q^n < 2^512).  That tracks the
#: run time of the generating-product expansion and its read-out at about
#: 16-32 ns per unit at a third to nine tenths of the cap on a 2-core
#: x86-64 host, one cold process each, over Z_2 (6 chunks), Z_3..Z_7, GF(4)
#: and GF(8), so the cap stands for about 4-8 s.  Each successor table the
#: expansion builds is charged too (see _check_expansion_work).  The default
#: route of :func:`~scheme_spectra.krawtchouk.gen_kraw` expands the same
#: product and is charged the same.
COMPOSITION_MAX_WORK = 250_000_000


class HammingGraphSpec(Record):
    """Words of length n over a q-letter alphabet, edges at Hamming distance d."""

    n: int
    q: int
    d: int

    def __init__(self, n: int, q: int, d: int) -> None:
        # a float or a bool would leak into the "exact" outputs; refuse the
        # first and store the second as the int it stands for
        index = operator.index
        n, q, d = index(n), index(q), index(d)
        if n < 1 or q < 2:
            raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
        if not 1 <= d <= n:
            raise RangeError(f"distance d={d} outside 1..{n}")
        self._set(n, q, d)

    @property
    def vertex_count(self) -> int:
        return self.q**self.n

    @property
    def degree(self) -> int:
        return (self.q - 1) ** self.d * binom(self.n, self.d)

    def describe(self) -> dict:
        return {"family": "hamming", "n": self.n, "q": self.q, "d": self.d}


class CompositionGraphSpec(Record):
    """Words over a group alphabet; x -> y is an edge when comp(y - x) = dcomp.

    The graph is undirected exactly when dcomp is negation-closed; the
    balanced case dcomp = (n/q, ..., n/q) is the generalized Hadamard
    graph of the alphabet.  BadLabel refuses a dcomp that is not a
    composition of n into one count per element.
    """

    group: GroupSpec
    n: int
    dcomp: Composition

    def __init__(self, group: GroupSpec, n: int, dcomp: Composition | Sequence[int]) -> None:
        # as for HammingGraphSpec: refuse a float n, store a bool as an int
        n = operator.index(n)
        if n < 1:
            raise DomainError(f"need n >= 1, got n={n}")
        self._set(group, n, Composition._trusted(_shell_label(group, n, tuple(dcomp))))

    @property
    def vertex_count(self) -> int:
        return self.group.order**self.n

    @property
    def degree(self) -> int:
        return multinom(self.n, self.dcomp)

    @property
    def undirected(self) -> bool:
        return self.group.is_negation_closed(self.dcomp)

    @property
    def balanced(self) -> bool:
        q = self.group.order
        return self.n % q == 0 and all(c == self.n // q for c in self.dcomp)

    def describe(self) -> dict:
        return {
            "family": "composition",
            "group": self.group.describe(),
            "n": self.n,
            "dcomp": list(self.dcomp),
        }


class SpectrumEntry(Record):
    """One character shell: its label, eigenvalue, and formal multiplicity."""

    label: int | Composition
    eigenvalue: int | CycInt
    multiplicity: int

    def __init__(
        self, label: int | Composition, eigenvalue: int | CycInt, multiplicity: int
    ) -> None:
        self._set(label, eigenvalue, multiplicity)

    @classmethod
    def _trusted(
        cls, label: int | Composition, eigenvalue: int | CycInt, multiplicity: int
    ) -> SpectrumEntry:
        # Skip __init__ and write the instance dict directly: later reads get
        # slower (CPython drops its inline values), the build faster, and that
        # pays.  With public constructors here and in Composition and LPSolution,
        # composition-spectra fell 455-534 -> 408-461 jobs/s (2-core x86-64).
        out = object.__new__(cls)
        fields = out.__dict__
        fields["label"] = label
        fields["eigenvalue"] = eigenvalue
        fields["multiplicity"] = multiplicity
        return out


class Spectrum(Record):
    """The full eigenvalue list of a graph, one entry per character shell."""

    graph: HammingGraphSpec | CompositionGraphSpec | None
    entries: tuple[SpectrumEntry, ...]
    regular_degree: int
    vertex_count: int

    def __init__(
        self,
        graph: HammingGraphSpec | CompositionGraphSpec | None,
        entries: tuple[SpectrumEntry, ...],
        regular_degree: int,
        vertex_count: int,
    ) -> None:
        self._set(graph, entries, regular_degree, vertex_count)

    def to_json(self) -> dict:
        return {
            "graph": None if self.graph is None else self.graph.describe(),
            "entries": [
                {
                    "shell": label if isinstance(label := e.label, int) else list(label.counts),
                    "eigenvalue": (
                        {"coeffs": list(value._coeffs), "order": value._order}
                        if isinstance(value := e.eigenvalue, CycInt)
                        else value
                    ),
                    "multiplicity": str(e.multiplicity),
                }
                for e in self.entries
            ],
            "degree": str(self.regular_degree),
            "vertices": str(self.vertex_count),
        }


def hamming_spectrum(spec: HammingGraphSpec) -> Spectrum:
    """Exact spectrum of a Hamming graph: K_d(j) on the weight-j shell.

    Shells are listed by ascending weight; multiplicities are the shell
    sizes m_j = (q-1)^j C(n,j).  The eigenvalues come from one pass of the
    difference equation in j, started at K_d(0) = m_d; every step divides
    by a small int, and each division is checked to be exact.
    """
    n, q, d, degree = spec.n, spec.q, spec.d, spec.degree
    values = _hamming_eigenvalues(n, q, d, degree)
    entry = SpectrumEntry._trusted  # the values passed the exactness checks
    entries = tuple(entry(j, v, m) for j, (v, m) in enumerate(zip(values, _shell_sizes(n, q))))
    return Spectrum(spec, entries, degree, spec.vertex_count)


def _hamming_eigenvalues(n: int, q: int, d: int, degree: int) -> list[int]:
    # K_d(j), j = 0..n, from K_d(0) = degree = m_d and the difference equation
    #   (q-1)(n-j) K_d(j+1) = ((q-1)(n-j) + j - qd) K_d(j) - j K_d(j-1)
    # (MacWilliams-Sloane ch. 5), every division checked to be exact.
    values = [degree]
    prev = 0
    for j in range(n):
        span = (q - 1) * (n - j)
        value, rem = divmod((span + j - q * d) * values[j] - j * prev, span)
        if rem:
            raise ArithmeticError(
                f"difference equation is not integral at n={n}, q={q}, d={d}, j={j}"
            )
        prev = values[j]
        values.append(value)
    return values


def composition_spectrum(spec: CompositionGraphSpec) -> Spectrum:
    """Exact spectrum of a composition graph, one entry per composition shell.

    Shell labels run in colexicographic order; the eigenvalue on shell j
    is the composition Krawtchouk value K_dcomp(j), a plain int when it
    is rational and a :class:`CycInt` otherwise, and the multiplicity is
    the shell size multinom(n, j).

    The generating product prod_h L_h^(dcomp_h), L_h = sum_g phi_h(g) z_g,
    is expanded once, as a list indexed by colex rank that each factor
    z_g advances through a cached successor table (for z_(q-1) one slice
    copy), and one pass reads it out into a flat column of eigenvalues:
    the list walks in step with the colex list of shells and their sizes
    multinom(n, j), each checked against the count total of the
    coefficient of z^j, which is K_j(dcomp).  The first shell carrying a
    given coefficient is folded, and in the same step reciprocity
    K_dcomp(j) = K_j(dcomp) multinom(n, dcomp) / multinom(n, j) turns it
    into the eigenvalue, every division checked; a later shell with the
    same coefficient, and so the same checked size, reuses that
    eigenvalue.  The entries pair that column with the sizes and labels
    of (q, n), built once and shared by every spectrum of that shape.
    Per-shell values from :func:`gen_kraw` are the oracle for it: the
    brute method for the whole route, the default method, which reads
    the same expansion, for the read-out.

    For an undirected dcomp (dcomp_h = dcomp_(-h)) the substitution
    z_g -> z_(-g) maps L_h to sum_g phi_h(-g) z_g = L_(-h), so it maps
    the product to prod_h L_h^(dcomp_(-h)), which is the product again:
    shell j and its mirror j o (-1) share one coefficient.  Every pair is
    checked at once, by comparing the list with itself permuted by the
    colex ranks of the mirrors, cached per (q, n, negation); if a pair
    differs, the shells before its later shell are read out and checked
    first, and then ArithmeticError names both shells.  The later shell
    of each pair reuses its eigenvalue.

    A balanced dcomp = (n/q, ..., n/q) takes the group-determinant route
    of :mod:`.krawtchouk` instead: its product is a power of the group
    determinant, whose nonzero shells give integer eigenvalues; every
    other shell gets 0, and shell sizes are products of binomials.  The
    packed expansion is the oracle for that route.

    Raises SizeExceeded, before expanding anything, when the work estimate
    C(n+q-1, q-1) n q m, times the 512-bit chunks in a count of up to
    q^n, plus 128 for each of the n q (q+1) / 2 successor tables, exceeds
    :data:`COMPOSITION_MAX_WORK`; this check runs for every dcomp.  The
    balanced route's own cap, :data:`~scheme_spectra.krawtchouk.BALANCED_MAX_WORK`,
    admits every balanced spectrum that this one admits.
    """
    n, q = spec.n, spec.group.order
    degree = _composition_degree(spec)
    if spec.balanced:
        # the shells the balanced route leaves out have eigenvalue 0
        nonzero = dict(_balanced_shells(spec.group, n))
        values = [nonzero.get(j, 0) for j in _colex_shells(q, n)[0]]
    else:
        values, _ = _read_out(spec.group, n, spec.dcomp, degree)
    _, sizes = _colex_shells(q, n)  # after the expansion, whose peak a cold table would raise
    entries = tuple(map(SpectrumEntry._trusted, _shell_labels(q, n), values, sizes))
    return Spectrum(spec, entries, degree, spec.vertex_count)


@functools.cache
def _shell_labels(q: int, n: int) -> tuple[Composition, ...]:
    # The count tuples of _colex_shells(q, n) wrapped as frozen Compositions,
    # built once per (q, n) and shared by every spectrum of that shape.
    return tuple(map(Composition._trusted, _colex_shells(q, n)[0]))


def _composition_degree(spec: CompositionGraphSpec) -> int:
    # The degree of a composition graph, once its spectrum has passed the
    # COMPOSITION_MAX_WORK check (SizeExceeded otherwise).
    _check_expansion_work(spec.group, spec.n)
    return spec.degree  # n! and its divisions: only after the cap


def _check_expansion_work(group: GroupSpec, n: int) -> None:
    # SizeExceeded when expanding a generating product of length n over the
    # group, as a composition spectrum and gen_kraw's default route do, costs
    # more than COMPOSITION_MAX_WORK.  The expansion also builds n q (q+1) / 2
    # successor tables, r for each r = 1..q parts at each of n lengths.  At
    # q = 729..2048 and n = 1 they outweigh the expansion, at about 0.6-0.8 us
    # and 92 bytes each, and they stay cached; at 128 units each the cap keeps
    # them to about 2*10^6, some 180 MB.
    q, m = group.order, group.char_order
    chunks = int(n * math.log2(q)) // 512 + 1
    work = binom(n + q - 1, q - 1) * n * q * m * chunks + 64 * n * q * (q + 1)
    if work > COMPOSITION_MAX_WORK:
        wide = f" x {chunks} chunks of 512 bits" if chunks > 1 else ""
        raise SizeExceeded(
            f"composition spectrum would cost {work} units (shells x n x q x root order{wide}, "
            f"plus 128 per successor table); cap is {COMPOSITION_MAX_WORK}"
        )


# ---------------------------------------------------------------------------
# ordering and bounds


def _require_real(value: CycInt) -> None:
    if value.conjugate() != value:
        raise NonRealEigenvalue(
            f"eigenvalue {value!r} is not real; "
            "extremes are only defined for undirected graphs"
        )


def _extreme(values: Sequence[int | CycInt], pick: Callable[[list[int]], int] = min) -> int:
    """The index of the first least value (``pick=min``) or the first
    largest one (``pick=max``) among real cyclotomic values.

    Each value gets one integer key, S(v) = sum_k c_k T_k over its
    power-basis coefficients c_k and the fixed-point table T of
    :func:`exactnum._cos_table` at B bits, where |T_k - 2**B cos(2 pi k/m)|
    < 2 and T_0 = 2**B exactly, so an int v has the key v 2**B.  With
    ||v|| = sum_k |c_k|, S(v) lies within 2||v|| of 2**B v, since a real v
    is sum_k c_k cos(2 pi k/m).

    One B decides every pair.  A nonzero alpha in Z[zeta_m] has a norm, the
    product of its deg Galois conjugates, that is a nonzero integer, and each
    conjugate has modulus at most ||alpha||; so |alpha| >= ||alpha||**-(deg-1).
    With B >= deg bitlen(L) + 2 and ||alpha|| <= L, 2**B > 4 L**deg, hence
    2**B |alpha| > 4||alpha|| and |S(alpha)| > 2||alpha||, with the sign of
    alpha.  The key is linear, S(a) - S(b) = S(a - b), and ||a - b|| is at
    most 2 max ||v||, so L = 2 max ||v|| (:func:`exactnum._sign_bits`) makes
    S(a) < S(b) exactly when a < b, and equal values get equal keys.  The
    first index of the least key is then the first exact minimiser, and
    likewise for the largest.

    Raises DomainError on no values, NonRealEigenvalue on a non-real value
    (checked first, over all of them) and OrderMismatch when two values have
    different root orders, naming them in the order of the pairwise scan
    this replaces: the later one first for the least, the earlier one first
    for the largest.
    """
    if not values:
        raise DomainError("empty spectrum")
    cyclotomic = [v for v in values if isinstance(v, CycInt)]
    if not cyclotomic:
        return values.index(pick(values))
    for v in cyclotomic:
        _require_real(v)
    m = cyclotomic[0].order
    for v in cyclotomic:
        if v.order != m:
            first, second = (v.order, m) if pick is min else (m, v.order)
            raise OrderMismatch(f"root orders differ: {first} vs {second}")
    size = max(abs(v) if isinstance(v, int) else sum(map(abs, v.coeffs)) for v in values)
    bits = _sign_bits(len(cyclotomic[0].coeffs), 2 * size)
    table = _cos_table(m, bits)
    keys = [
        v << bits if isinstance(v, int) else sum(map(operator.mul, v.coeffs, table))
        for v in values
    ]
    return keys.index(pick(keys))


def min_eigenvalue(spectrum: Spectrum) -> tuple[int | CycInt, int | Composition]:
    """The least eigenvalue and the first shell (in entry order) attaining it.

    Every comparison is exact: integer values compare as ints, and with an
    irrational real value each value is ranked by one integer key, a
    fixed-point sum at a precision fixed in advance by the norm bound, so
    no comparison can be left undecided.  Non-real values (directed-graph
    misuse) are refused.
    """
    return _extreme_entry(spectrum, min)


def max_eigenvalue(spectrum: Spectrum) -> tuple[int | CycInt, int | Composition]:
    """Largest eigenvalue, found the same way as :func:`min_eigenvalue`."""
    return _extreme_entry(spectrum, max)


def _extreme_entry(
    spectrum: Spectrum, pick: Callable[[list[int]], int]
) -> tuple[int | CycInt, int | Composition]:
    entry = spectrum.entries[_extreme([e.eigenvalue for e in spectrum.entries], pick)]
    return entry.eigenvalue, entry.label


def hoffman_bound(spectrum: Spectrum) -> Fraction:
    """Spectral lower bound  1 - lambda_max / lambda_min  as an exact rational.

    For the regular graphs built here lambda_max is the degree.  Requires
    a negative least eigenvalue, and that eigenvalue must be a rational
    integer for the result to be exact.
    """
    lam_min, _ = min_eigenvalue(spectrum)
    return _hoffman_value(lam_min, spectrum.regular_degree)


def _hoffman_value(lam_min: int | CycInt, degree: int) -> Fraction:
    # 1 - degree / lam_min as one Fraction, refused unless lam_min is a
    # negative integer.
    if isinstance(lam_min, CycInt):
        raise IrrationalEigenvalue(
            f"least eigenvalue {lam_min!r} is irrational; no exact rational bound"
        )
    if lam_min >= 0:
        raise NoNegativeEigenvalue(
            f"least eigenvalue {lam_min} is nonnegative; the bound needs lambda_min < 0"
        )
    return Fraction(lam_min - degree, lam_min)


def trace_identity_check(spectrum: Spectrum) -> bool:
    """Verify  sum_j m_j lambda_j^2 = (number of vertices) * degree.

    Counts closed walks of length two in two ways; exact in the
    cyclotomic ring, so any corrupted eigenvalue or multiplicity trips it.
    """
    total = sum(e.multiplicity * e.eigenvalue * e.eigenvalue for e in spectrum.entries)
    return total == spectrum.vertex_count * spectrum.regular_degree


def multiplicity_ratio(q: int, n: int) -> Fraction:
    """Weight-3 shell's share of the closed-walk budget at the balanced distance.

    At d = (q-1)n/q the least eigenvalue of the Hamming graph has modulus
    degree/((q-1)(n-1)).  If the weight-3 shell carried an eigenvalue of
    that modulus, its contribution to sum_j m_j lambda_j^2 would be
    (q-1)^3 C(n,3) * degree^2 / ((q-1)(n-1))^2, while the trace identity
    caps the whole sum at q^n * degree.  This returns the ratio of the
    two; a value above 1 is a certificate that the shell's formal
    multiplicity cannot fit inside the budget.
    """
    q, n = operator.index(q), operator.index(n)  # numpy ints would wrap q**n
    if q < 3:
        raise DomainError(f"the ratio is defined for q >= 3, got q={q}")
    if ((q - 1) * n) % q:
        raise DivisibilityError(f"needs q | (q-1)n, got q={q}, n={n}")
    d = (q - 1) * n // q
    num = (q - 1) ** 3 * binom(n, 3) * (q - 1) ** d * binom(n, d)
    den = q**n * (q - 1) ** 2 * (n - 1) ** 2
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# independent oracles


def eigenvector_check(
    spec: HammingGraphSpec | CompositionGraphSpec,
    x: Sequence[int],
    sample: Iterable[Sequence[int]],
) -> bool:
    """Verify the character of x is an eigenvector by direct adjacency action.

    For every sampled vertex y this sums phi_x over the actual neighbors
    y + s of y, s streamed from its shell, and compares, exactly in the
    cyclotomic ring, against lambda_x * phi_x(y), lambda_x from Krawtchouk.
    The two sides come from unrelated code paths on purpose.  A word of
    the wrong length or a non-letter in y raises SpecMismatch.
    """
    if isinstance(spec, HammingGraphSpec):
        group = cyclic(spec.q)
        shell_label: int | Composition = spec.d
        lam: int | CycInt = kraw(spec.n, spec.q, spec.d, sum(1 for g in x if g))
    else:
        group = spec.group
        shell_label = spec.dcomp
        lam = gen_kraw(group, spec.n, spec.dcomp, word_composition(group, x))
    x = tuple(x)
    for y in sample:
        y = tuple(y)
        neighbours = _translates(group, y, spec.n, enumerate_shell(group, spec.n, shell_label))
        if _character_sum(group, x, neighbours) != word_char_value(group, x, y) * lam:
            return False
    return True


def _translates(
    group: GroupSpec, y: tuple[int, ...], n: int, words: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    # The words y + s, streamed, for the words s of length n of letters that
    # enumerate_shell yields, which are not checked again.  y is read in one
    # pass, into one row of sums y_i + g per letter, g over the alphabet, by
    # group.add, which checks y_i: n q additions for y in place of n per
    # word s.  As a generator this raises, for a wrong length or a non-letter
    # in y, where word_add did, at the first word and with its messages.
    if len(y) != n:
        raise SpecMismatch(f"word lengths differ: {len(y)} vs {n}")
    rows = [[group.add(a, g) for g in group.elements()] for a in y]
    for s in words:
        yield tuple(map(list.__getitem__, rows, s))


def projector_identity_check(n: int, q: int) -> bool:
    """Dense check that the Krawtchouk projectors resolve the identity.

    Builds E_j with entries K_j(Hamming weight of x - y) / q^n for every
    shell j and verifies sum_j E_j = I and E_j E_l = [j = l] E_j, using
    integer matrices scaled by q^n so every comparison is exact.  The
    products must stay int64: numpy computes integer products in its own
    loops, while a float product would call BLAS (whose thread pool the CLI
    does not start) and give up exactness.  Raises DomainError unless
    n >= 1 and q >= 2, and SizeExceeded above the vertex cap.
    """
    import numpy as np

    n, q = operator.index(n), operator.index(q)  # numpy ints would wrap q**n under the cap
    if n < 1 or q < 2:
        raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if q**n > PROJECTOR_MAX_VERTICES:
        raise SizeExceeded(
            f"dense projector check is capped at q^n <= {PROJECTOR_MAX_VERTICES}, "
            f"got {q**n}"
        )
    size = q**n
    w = sum(d[:, None] != d[None, :] for d in np.unravel_index(np.arange(size), (q,) * n))
    ktab = np.array([[kraw(n, q, j, i) for i in range(n + 1)] for j in range(n + 1)], dtype=np.int64)
    scaled = [ktab[j][w] for j in range(n + 1)]
    ident = size * np.eye(size, dtype=np.int64)
    if not np.array_equal(sum(scaled), ident):
        return False
    for j in range(n + 1):
        for l in range(j, n + 1):
            prod = scaled[j] @ scaled[l]
            expect = size * scaled[j] if j == l else np.zeros_like(prod)
            if not np.array_equal(prod, expect):
                return False
    return True
