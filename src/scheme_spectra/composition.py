"""The composition scheme: composition Krawtchouk values, composition graphs
and their spectra, their bound reports and the balanced-minimum probe.

A composition graph joins x to y when y - x has a prescribed
occurrence-count vector.  It is a Cayley graph of the alphabet's additive
group, so each composition shell of characters carries one eigenvalue, the
composition Krawtchouk value: the classical value of :mod:`.krawtchouk`
with weights replaced by full occurrence-count vectors, in a cyclotomic
integer ring.  Whole columns (one argument, every index) come from one
expansion of a product of linear forms L_h = sum_g phi_h(g) z_g.  The
expansion holds its polynomial as a list indexed by the colexicographic
rank of each monomial's exponent vector, and multiplies by z_g through a
successor table, one per alphabet size and number of factors so far, that
maps each rank to the rank of the exponent vector plus e_g.  For z_(q-1)
that table is one contiguous range, so that move is one slice copy into
the fresh list, made before the scattered moves.  It rotates a coefficient
only for a character value other than 1, takes the trivial character's
factors last, and skips every h with x_h = 0, whose character it never
reads.  It is read out in one more pass into one flat column of values:
the list walks in step with the compositions in colexicographic order,
whose labels and sizes are cached together, and every shell's count total
is checked against the shell size.  The first shell carrying a given
coefficient folds it into the power basis and, for a spectrum, scales it
to the eigenvalue in the same step; every later shell with the same
coefficient, after its count-total check, reuses that value.  The default
per-value route expands the same whole product and reads one coefficient
off it, with the same count-total check.

For a negation-closed generator x (x_h = x_(-h)) every shell is also
checked against its mirror.  The substitution z_g -> z_(-g) turns L_h
into sum_g phi_h(-g) z_g = L_(-h), so it maps prod_h L_h^(x_h) to
prod_h L_h^(x_(-h)), the same product: shell j and its mirror j o (-1)
carry the same coefficient.  All pairs are checked in one comparison of
the list with itself permuted by a cached table of mirror ranks, and the
later shell of each pair then reuses its value like any repeated
coefficient.

For a balanced generator (n/q, ..., n/q) the product is D^(n/q), where D
is the group determinant of the alphabet (Dedekind-Frobenius).  D has
rational integer coefficients and is taken once per group from the
expansion of length q; its power runs over plain ints and keeps only the
shells whose counts sum to 0 in the group, the only ones with a nonzero
eigenvalue.

Independent routes stay as oracles: the expansion (which does not use D)
for the balanced route, and in :mod:`.oracles`, loaded only when a check
runs, direct character sums for the expansion, the circulant determinant
of Z_q, a sum over permutations, for D itself, and the direct adjacency
action for the eigenvalues.  That is what makes cross-checking possible.

This module, with :mod:`.groups`, is loaded on first use: the package
reads its public names on first access, and the older modules forward the
ones they used to hold, as the package's ``_HOMES`` table lists them, so
Hamming spectra, reports and LP certificates compile neither.  The oracles
that this module held resolve here in the same way.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .bounds import BoundReport, _finish_report
from .cyclotomic import CycInt, _fold_table, _reduction_rows
from .errors import (
    DivisibilityError,
    DomainError,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    SizeExceeded,
)
from .exactnum import binom, multinom
from .groups import (
    Composition,
    FiniteField,
    GroupSpec,
    _colex_walk,
    _prime_power,
    _shell_label,
    cyclic,
)
from .schemes import Spectrum, SpectrumEntry, _extreme, _hoffman_value


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


#: Work cap for the balanced route (:func:`_balanced_work`), in multiply-adds
#: of plain-int coefficients.  Near the cap these take about 400-800 ns each
#: on a 2-core x86-64 host, over Z_2..Z_10, GF(4), GF(8) and GF(9), so the
#: cap stands for about 10-20 s.
BALANCED_MAX_WORK = 25_000_000

#: Work cap for a composition spectrum: shells x n x q x (root order),
#: times the number of 512-bit chunks in one packed count (about n log2 q
#: bits, so one chunk for every input with q^n < 2^512).  That tracks the
#: run time of the generating-product expansion and its read-out at about
#: 16-32 ns per unit at a third to nine tenths of the cap on a 2-core
#: x86-64 host, one cold process each, over Z_2 (6 chunks), Z_3..Z_7, GF(4)
#: and GF(8), so the cap stands for about 4-8 s.  Each successor table the
#: expansion builds is charged too (see _check_expansion_work).  The default
#: route of :func:`.oracles.gen_kraw` expands the same product and is
#: charged the same.
COMPOSITION_MAX_WORK = 250_000_000


# ---------------------------------------------------------------------------
# composition Krawtchouk values


#: _successors(q, t) for t = 0, 1, ... in turn, per alphabet size q: a list
#: that grows, since table t is built from table t - 1 and a recursion
#: through every smaller t would run as deep as the longest expansion.
_SUCCESSORS: dict[int, list[tuple[Sequence[int], ...]]] = {}


def _successors(q: int, t: int) -> tuple[Sequence[int], ...]:
    # Table g maps the colex rank of each composition c of t into q parts
    # to the colex rank of c + e_g among the compositions of t + 1.  Colex
    # order takes the last part as most significant, so the compositions
    # of t fall into blocks by their last part s, and block s lists the
    # compositions of t - s into q - 1 parts in their own colex order.
    # Adding e_(q-1) moves block s to block s + 1 of t + 1 and keeps the
    # rank inside the block: one contiguous range shifted by the size
    # C(t+q-1, q-2) of block 0 of t + 1.  Adding e_g for g < q - 1 keeps
    # the block and moves inside it by the (q-1)-part table of t - s,
    # plus the block's offset in t + 1.  Blocks 1..t of t are the
    # compositions of t - 1 in their order, each with one more in its last
    # part, and their images in t + 1 lie C(t+q-1, q-2) further on than
    # the images in t that table g of t - 1 lists; so table g of t is the
    # (q-1)-part table g of t (block 0) followed by table g of t - 1
    # shifted by that much.  The tables depend only on (q, t), so one
    # cached set, built for t = 0, 1, ... in turn, serves every n > t and
    # every group of order q: 4-byte arrays, and a range for the
    # contiguous move.  Each part count r = 1..q is built up to t in
    # turn, from the one below it, so no call recurses through q.
    rows = _SUCCESSORS.get(q, ())
    if len(rows) > t:
        return rows[t]
    below: list[tuple[Sequence[int], ...]] = []
    for r in range(1, q + 1):
        rows = _SUCCESSORS.setdefault(r, [])
        while len(rows) <= t:
            u = len(rows)
            if r == 1:
                rows.append((range(1),))
                continue
            shift = math.comb(u + r - 1, r - 2)
            tables: list[Sequence[int]] = []
            for g, head in enumerate(below[u]):
                table = array("I", head)
                if u:
                    table.frombytes(_shifted(rows[u - 1][g], shift))
                tables.append(table)
            tables.append(range(shift, shift + math.comb(u + r - 1, r - 1)))
            rows.append(tuple(tables))
        below = rows
    return rows[t]


_ONE = array("I", [1]).tobytes()


def _shifted(table: array, shift: int) -> bytes:
    # The bytes of an array("I") with `shift` added to every entry, by one
    # big-int addition over all of them: each entry is one unsigned-int
    # field, and every rank that _expand can use stays below 2^32 (a larger
    # one indexes a list of 2^32 coefficients, 32 GB of pointers alone), so
    # no carry crosses into the next field.
    raw = table.tobytes()
    ones = int.from_bytes(_ONE * len(table), sys.byteorder)
    return (int.from_bytes(raw, sys.byteorder) + shift * ones).to_bytes(len(raw), sys.byteorder)


def _expand(group: GroupSpec, n: int, x: Sequence[int]) -> tuple[list[int], int]:
    # The generating product prod_h (sum_g phi_h(g) z_g)^(x_h), expanded
    # one linear factor at a time, as (coefficients, width).  After t
    # factors the coefficient of z^c sits at the colex rank of c among the
    # compositions of t, so multiplying by z_g sends rank r to
    # _successors(q, t)[g][r] and the last list is in colex order.  A
    # coefficient lives in the group ring Z[Z_m]: m nonnegative counts
    # packed into one int, `width` bits each, where multiplying by zeta^e
    # rotates the fields by e.  The counts of all monomials add up to
    # q^(factors so far) <= q^n, so no field ever carries into the next.
    # A move with e = 0 (z_g with phi_h(g) = 1) adds the coefficient
    # unrotated.  The product commutes, so the factors of h = 0, the
    # trivial character, whose moves all have e = 0, are taken last, where
    # the polynomial is largest.  A character phi_h with x_h = 0 gives no
    # factor, and is never read.  Table q - 1 of _successors is a range
    # over the whole list, so the z_(q-1) move is one slice assignment
    # into the fresh list, before the other moves add to it: a copy, or a
    # rotated copy from one list comprehension.
    m, q = group.char_order, group.order
    width = (q**n).bit_length()
    full = (1 << (m * width)) - 1
    steps = [(math.comb(t + q, q - 1), _successors(q, t)) for t in range(n)]
    counts = tuple(x)
    poly = [1]
    t = 0
    for h in [*range(1, q), 0]:
        if not counts[h]:
            continue
        moves = []
        for g in range(q):
            e = group.char_exponent(h, g) % m
            moves.append((g, e * width, (m - e) * width))
        # the z_(q-1) move's table is one range (see _successors): its
        # block is written first into the fresh list, as one slice
        _, lift, drop = moves.pop()
        for _ in range(counts[h]):
            size, tables = steps[t]
            nxt = [0] * size
            block = tables[q - 1]
            if lift:
                nxt[block.start : block.stop] = [
                    ((packed << lift) & full) | (packed >> drop) for packed in poly
                ]
            else:
                nxt[block.start : block.stop] = poly
            for g, up, down in moves:
                table = tables[g]
                if up:
                    for i, packed in zip(table, poly):
                        nxt[i] += ((packed << up) & full) | (packed >> down)
                else:
                    for i, packed in zip(table, poly):
                        nxt[i] += packed
            poly = nxt
            t += 1
    return poly, width


@functools.cache
def _colex_shells(q: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    # The counts of every composition j of n into q parts in colex order, and
    # their sizes multinom(n, j), in two columns: enumerate_compositions' walk.
    walk = tuple(_colex_walk(q, n))
    return tuple(j for j, _ in walk), tuple(size for _, size in walk)


@functools.cache
def _mirror_ranks(q: int, n: int, neg: tuple[int, ...]) -> array:
    # Entry r is the colex rank of the mirror of the r-th composition j of n
    # into q parts, the composition with counts j[neg[g]]: an involution on
    # the ranks of _colex_shells(q, n), 4 bytes a shell, kept per negation.
    labels, _ = _colex_shells(q, n)
    rank = {label: r for r, label in enumerate(labels)}
    twin = operator.itemgetter(*neg)
    return array("I", [rank[twin(label)] for label in labels])


def _read_out(
    group: GroupSpec, n: int, x: Sequence[int], degree: int | None = None
) -> tuple[list[int | CycInt], list[int]]:
    # The z^j coefficients of the product of _expand, one per composition j
    # of n, read out in one pass as (values, computed): the values in the
    # colex order of _colex_shells, whose size column the pass walks in step,
    # and the indices of the shells whose value was folded rather than
    # reused, the first shell of each distinct coefficient.  The value is
    # K_j(x), or with `degree` the eigenvalue K_j(x) degree / multinom(n, j)
    # by reciprocity, every division checked; it is an int when rational,
    # else a CycInt.  No per-shell record is built: the callers pair the
    # column with the cached labels and sizes.
    #
    # _expand lists the coefficients in colex order (its z_(q-1) move one
    # slice), so they walk in step with _colex_shells.  At zeta = 1 the
    # product is (sum_g z_g)^n, so the counts of z^j add up to its shell
    # size, which is checked on every shell; since no count can cancel, a
    # composition that the expansion never reached (count total 0) fails
    # that check.  The first shell carrying a packed coefficient unpacks it
    # and folds it into the power basis, where zeta^e is the e-th basis
    # element for e below the basis size and row e of _fold_table, the
    # table CycInt folds with, above it.
    # The memo maps each packed int to the index of that first shell, which
    # passed its check, so its size is its count total.  A later shell with
    # the same packed int has the same counts: its size is checked against
    # that total, and with an equal size it reuses the value.
    # For a negation-closed x (see the module docstring) every shell is
    # checked against its mirror at once, by comparing the list with itself
    # permuted by the cached _mirror_ranks.  Should a pair differ, the pass
    # runs up to the later shell of the first such pair and then names that
    # pair, so the fault raised is the one a check shell by shell would meet
    # first.
    m, q = group.char_order, group.order
    poly, width = _expand(group, n, x)
    labels, sizes = _colex_shells(q, n)
    if len(poly) != len(sizes):
        raise ArithmeticError(
            f"expansion has {len(poly)} monomials, expected one per composition of n={n}"
        )
    neg = tuple(group.neg(g) for g in range(q))
    mirrors = None
    if neg != tuple(range(q)) and group.is_negation_closed(x):
        perm = _mirror_ranks(q, n, neg)
        if list(map(poly.__getitem__, perm)) != poly:
            i = next(i for i, r in enumerate(perm) if r < i and poly[r] != poly[i])
            mirrors = (labels[perm[i]], labels[i])
            poly = poly[:i]
    basis = len(_reduction_rows(m)[0])
    table = _fold_table(m)
    high = [(e, table[e]) for e in range(basis, m)]
    mask = (1 << width) - 1
    shifts = range(0, m * width, width)
    first: dict[int, int] = {}
    get = first.get
    values: list[int | CycInt] = []
    computed: list[int] = []
    for packed, size in zip(poly, sizes):
        k = get(packed)
        if k is not None:
            total = sizes[k]
            if total == size:
                values.append(values[k])
                continue
            # else the check below raises
        else:
            # a plain loop: a list comprehension would be a call of its own
            counts = []
            for s in shifts:
                counts.append((packed >> s) & mask)
            total = sum(counts)
        if total != size:
            raise ArithmeticError(
                f"coefficient of z^{labels[len(values)]} has {total} terms, "
                f"expected multinom(n, j) = {size}"
            )
        coeffs = counts[:basis]
        for e, row in high:
            c = counts[e]
            if c:
                for k, r in row:
                    coeffs[k] += c * r
        if degree is not None:
            scaled = []
            for c in coeffs:
                num = c * degree
                quo = num // size
                if quo * size != num:
                    raise ArithmeticError(
                        f"{CycInt._canonical(m, tuple(coeffs))!r} * {degree} / {size} "
                        "is not a cyclotomic integer"
                    )
                scaled.append(quo)
            coeffs = scaled
        first[packed] = len(values)
        computed.append(len(values))
        values.append(CycInt._canonical(m, tuple(coeffs)) if any(coeffs[1:]) else coeffs[0])
    if mirrors is not None:
        raise ArithmeticError(
            f"shells {mirrors[0]} and {mirrors[1]} are mirrors under negation, "
            "but their coefficients differ"
        )
    return values, computed


@functools.cache
def _group_determinant(group: GroupSpec) -> tuple[tuple[tuple[int, ...], int], ...]:
    # The group determinant D = prod_h L_h, L_h = sum_g phi_h(g) z_g, as
    # (exponent vector, coefficient) pairs in colex order, zero terms
    # dropped: the generating product of the balanced generator of length
    # q.  Galois conjugation permutes the characters, so every coefficient
    # is a rational integer; anything else is an arithmetic fault.
    q = group.order
    terms = []
    values, _ = _read_out(group, q, Composition.balanced(q, q))
    for j, value in zip(_colex_shells(q, q)[0], values):
        if isinstance(value, CycInt):
            raise ArithmeticError(
                f"group determinant of {group!r} has coefficient {value!r} at z^{j}"
            )
        if value:
            terms.append((j, value))
    return tuple(terms)


def _balanced_work(group: GroupSpec, n: int) -> int:
    # The work estimate of _balanced_shells.  D has at most C(2q-1, q-1)
    # terms and the power after t factors at most C(tq+q-1, q-1) monomials;
    # a monomial sums to 0 in the group about once in q, so the power takes
    # about C(2q-1, q-1) sum_t C(tq+q-1, q-1) / q^2 multiply-adds, each
    # once per 2048-bit chunk of a coefficient of up to n log2 q bits.
    # Building D by the packed expansion of length q costs C(2q-1, q-1)
    # q q m of COMPOSITION_MAX_WORK's units, counted as 20 to a multiply-add;
    # they take about 6-19 ns each (Z_8..Z_11, GF(9), one cold process
    # each), so D's share is overestimated.
    q, m = group.order, group.char_order
    terms = math.comb(2 * q - 1, q - 1)
    monomials = sum(math.comb(t * q + q - 1, q - 1) for t in range(n // q))
    chunks = int(n * math.log2(q)) // 2048 + 1
    return terms * (20 * monomials * chunks + q**4 * m) // (20 * q * q)


def _balanced_shells(group: GroupSpec, n: int) -> list[tuple[tuple[int, ...], int]]:
    # (j, eigenvalue) on every shell j where the balanced composition graph
    # of length n has a nonzero eigenvalue, in colex order.  For
    # x = (n/q, ..., n/q) the generating product of _expand is D^(n/q), D
    # the group determinant, so it is raised one D factor at a time over
    # plain ints, in a dict keyed by the base-(n+1) numeral
    # sum_g c_g (n+1)^g of each exponent vector c (ascending keys are colex
    # order) and with zero coefficients dropped.  Every monomial of D sums
    # to 0 in the group, so only those shells survive.  Reciprocity turns
    # the z^j coefficient a_j into the eigenvalue a_j degree / multinom(n, j),
    # each division checked.
    # Raises SizeExceeded, before anything is expanded, above
    # BALANCED_MAX_WORK.
    work = _balanced_work(group, n)
    if work > BALANCED_MAX_WORK:
        raise SizeExceeded(
            f"balanced spectrum would cost {work} units "
            f"(multiply-adds of the group determinant route); cap is {BALANCED_MAX_WORK}"
        )
    q = group.order
    base = n + 1
    # D's key steps, grouped by coefficient so that each product is formed
    # once per monomial and coefficient
    factor: dict[int, list[int]] = {}
    for expo, coeff in _group_determinant(group):
        factor.setdefault(coeff, []).append(sum(c * base**g for g, c in enumerate(expo)))
    poly = {0: 1}
    for _ in range(n // q):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, a in poly.items():
            for coeff, steps in factor.items():
                ca = coeff * a
                for step in steps:
                    dest = key + step
                    nxt[dest] = get(dest, 0) + ca
        poly = {key: a for key, a in nxt.items() if a}
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    degree = fact[n] // fact[n // q] ** q
    out = []
    for key, a in sorted(poly.items()):
        label = []
        size = fact[n]
        for _ in range(q):
            key, c = divmod(key, base)
            label.append(c)
            size //= fact[c]
        value, rem = divmod(a * degree, size)
        if rem:
            raise ArithmeticError(f"{a} * {degree} / {size} is not an integer")
        out.append((tuple(label), value))
    return out


# ---------------------------------------------------------------------------
# composition graphs and their spectra


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
    Per-shell values from :func:`.oracles.gen_kraw` are the oracle for it: the
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
    instead: its product is a power of the group determinant, whose
    nonzero shells give integer eigenvalues; every other shell gets 0,
    and shell sizes are products of binomials.  The packed expansion is
    the oracle for that route.

    Raises SizeExceeded, before expanding anything, when the work estimate
    C(n+q-1, q-1) n q m, times the 512-bit chunks in a count of up to
    q^n, plus 128 for each of the n q (q+1) / 2 successor tables, exceeds
    :data:`COMPOSITION_MAX_WORK`; this check runs for every dcomp.  The
    balanced route's own cap, :data:`BALANCED_MAX_WORK`, admits every
    balanced spectrum that this one admits.
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
# reports


def _composition_report(spec: CompositionGraphSpec) -> BoundReport:
    group, n = spec.group, spec.n
    diagnostics: dict = {
        "balanced": spec.balanced,
        "undirected": spec.undirected,
    }
    lower: list[tuple[Fraction, str]] = []
    upper: list[tuple[Fraction, str]] = []
    if spec.balanced:
        # A balanced graph is undirected, and its eigenvalues are integers,
        # 0 on every shell the balanced route leaves out; there is always
        # such a shell, (n-1, 1, 0, ..., 0) for one.
        lam_min = min(0, *(value for _, value in _balanced_shells(group, n)))
        try:
            lower.append((_hoffman_value(lam_min, spec.degree), "hoffman"))
        except NoNegativeEigenvalue as exc:
            diagnostics["hoffman_unavailable"] = type(exc).__name__
    elif spec.undirected:
        # The read-out folds only the first shell of each distinct
        # coefficient, and every other shell reuses a folded value, so the
        # least over the folded shells is the least eigenvalue.  The first
        # minimiser is folded too: the first shell carrying its coefficient
        # has the same value and comes no later, so it is that shell.
        degree = _composition_degree(spec)
        column, computed = _read_out(group, n, spec.dcomp, degree)
        values = [column[i] for i in computed]
        try:
            lam_min = values[_extreme(values)]
            lower.append((_hoffman_value(lam_min, degree), "hoffman"))
        except (IrrationalEigenvalue, NoNegativeEigenvalue, NonRealEigenvalue) as exc:
            diagnostics["hoffman_unavailable"] = type(exc).__name__
    if spec.balanced:
        upper.append((Fraction(n), "hadamard-character"))
        if isinstance(group, FiniteField) and _prime_power(n) is not None:
            diagnostics["prime_power_pair"] = True
    return _finish_report(spec, lower, upper, diagnostics)


# ---------------------------------------------------------------------------
# the balanced-minimum probe


class ProbeVerdict(Record):
    """Outcome of probing the balanced-graph least-eigenvalue prediction."""

    verdict: str
    q: int
    n: int
    reason: str | None
    minimum: int | None
    conjectured: Fraction | None
    pattern: Composition | None
    achieving: tuple[Composition, ...]

    def __init__(
        self,
        verdict: str,
        q: int,
        n: int,
        reason: str | None = None,
        minimum: int | None = None,
        conjectured: Fraction | None = None,
        pattern: Composition | None = None,
        achieving: tuple[Composition, ...] = (),
    ) -> None:
        self._set(verdict, q, n, reason, minimum, conjectured, pattern, achieving)

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.verdict != "not-applicable":
            out["q"] = self.q
            out["n"] = self.n
            out["minimum"] = str(self.minimum)
            out["conjectured"] = str(self.conjectured)
            out["pattern_shell"] = list(self.pattern)
            out["achieving_shells"] = [list(a) for a in self.achieving]
        return out


def conjecture_probe(q: int, n: int) -> ProbeVerdict:
    """Test whether the balanced graph's least eigenvalue matches the
    predicted value -multinom(n; n/q,...,n/q)/(n-1).

    The prediction concerns alphabets Z_q with (q-1)n/q even; the shell
    (n-2, 1, 0, ..., 0, 1) always attains the predicted value, so the
    probe reports whether anything lies below it, and lists the shells
    attaining the least eigenvalue in colex order.  Odd (q-1)n/q is
    reported as not applicable.

    The eigenvalues come from the balanced route: the nonzero shells of
    the power n/q of the group determinant, with the work cap
    :data:`BALANCED_MAX_WORK` (SizeExceeded above it).  A zero shell cannot attain the minimum, because the
    pattern shell's value is negative; that is checked, not assumed.  A
    probe is evidence for the prediction at one (q, n), not a proof.
    """
    q, n = operator.index(q), operator.index(n)
    if q < 2:
        raise DomainError(f"need q >= 2, got q={q}")
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if n % q:
        raise DivisibilityError(f"needs q | n, got q={q}, n={n}")
    if ((q - 1) * n // q) % 2:
        return ProbeVerdict("not-applicable", q, n, reason="(q-1)n/q odd")
    shells = _balanced_shells(cyclic(q), n)
    target = Fraction(-multinom(n, Composition.balanced(q, n)), n - 1)
    counts = [0] * q
    counts[0] = n - 2
    counts[1] += 1
    counts[q - 1] += 1
    pattern = Composition(tuple(counts))
    at_pattern = next((value for j, value in shells if j == pattern.counts), 0)
    if at_pattern != target or target >= 0:
        raise ArithmeticError(
            f"pattern shell {tuple(pattern)} has eigenvalue {at_pattern}, expected {target} < 0"
        )
    minimum = min(value for _, value in shells)
    achieving = tuple(Composition._trusted(j) for j, value in shells if value == minimum)
    verdict = "holds" if Fraction(minimum) == target else "fails"
    return ProbeVerdict(
        verdict,
        q,
        n,
        minimum=minimum,
        conjectured=target,
        pattern=pattern,
        achieving=achieving,
    )
