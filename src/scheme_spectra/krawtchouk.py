"""Krawtchouk polynomials, classical and composition-refined.

The classical value K_i(j) is the eigenvalue of the distance-d Hamming
graph on the weight-j character shell.  Its composition refinement
replaces weights by full occurrence-count vectors and takes values in a
cyclotomic integer ring.  Whole columns (one argument, every index) come
from one pass each: the three-term recurrence for the classical values,
one expansion of a product of linear forms L_h = sum_g phi_h(g) z_g for
the refined ones.  The expansion holds its polynomial as a list indexed
by the colexicographic rank of each monomial's exponent vector, and
multiplies by z_g through a successor table, one per alphabet size and
number of factors so far, that maps each rank to the rank of the
exponent vector plus e_g.  For z_(q-1) that table is one contiguous
range, so that move is one slice copy into the fresh list, made before
the scattered moves.  It rotates a coefficient only for a character
value other than 1, takes the trivial character's factors last, and
skips every h with x_h = 0, whose character it never reads.  It is read
out in one more pass into one flat column of values: the list walks in
step with the compositions in colexicographic order, whose labels and
sizes are cached together, and every shell's count total is checked against
the shell size.  The first shell carrying a given coefficient folds it
into the power basis and, for a spectrum, scales it to the eigenvalue in
the same step; every later shell with the same coefficient, after its
count-total check, reuses that value.  The default per-value route
expands the same whole product and reads one coefficient off it, with
the same count-total check.

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

Independent routes stay as oracles: direct character sums for the
expansion, the expansion (which does not use D) for the balanced route,
the circulant determinant of Z_q, a sum over permutations, for D itself,
and the closed-form classical sum for the recurrence.  That is what
makes cross-checking possible.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from typing import Iterable, Sequence

from .errors import (
    DivisibilityError,
    DomainError,
    NotFound,
    RangeError,
    SizeExceeded,
    UnsupportedSize,
)
from .exactnum import CycInt, _fold_table, _reduction_rows, _unit_place, binom, multinom
from .groups import Composition, GroupSpec, _colex_walk, _shell_label, cyclic, enumerate_shell

#: Largest alphabet for which the circulant determinant is expanded exactly.
CIRCULANT_MAX_Q = 7

#: Work cap for the balanced route (:func:`_balanced_work`), in multiply-adds
#: of plain-int coefficients.  Near the cap these take about 400-800 ns each
#: on a 2-core x86-64 host, over Z_2..Z_10, GF(4), GF(8) and GF(9), so the
#: cap stands for about 10-20 s.
BALANCED_MAX_WORK = 25_000_000


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
    A NaN is outside it.
    """
    if q < 2:
        raise DomainError(f"need q >= 2, got {q}")
    if _unit_place(operator.index(q), delta) is None:
        raise DomainError(f"delta must lie in [0, {q - 1}/{q}], got {delta}")
    delta = float(delta)
    return (q - 1 - (q - 2) * delta - 2.0 * math.sqrt((q - 1) * delta * (1.0 - delta))) / q


def _character_sum(group: GroupSpec, x: Sequence[int], words: Iterable[Sequence[int]]) -> CycInt:
    # The sum of phi_x(y) over the words y, streamed, counted per power of
    # zeta from one row of exponents per letter of x: the oracles' brute sum.
    m = group.char_order
    rows = [[group.char_exponent(a, b) for b in group.elements()] for a in x]
    counts = [0] * m
    for y in words:
        counts[sum(map(list.__getitem__, rows, y)) % m] += 1
    return CycInt.from_root_powers(m, counts)


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


def gen_kraw(
    group: GroupSpec,
    n: int,
    i: Composition,
    j: Composition,
    method: str = "extraction",
) -> int | CycInt:
    """Composition Krawtchouk value K_i(j) over the given alphabet.

    This is the eigenvalue, on the character shell of composition j, of
    the graph whose edges shift a word by the composition-i sphere.
    Equivalently: the sum of phi_x(y) over all y of composition i, for
    any fixed x of composition j — independence from the choice of x is
    one of the tested invariants.

    ``method`` selects the route: "brute" walks the shell and sums
    characters; "extraction" (default) reads the coefficient of z^i off
    the product of linear forms for x = j, without touching the shell,
    and checks that its count total is multinom(n, i).  It expands the
    whole product, as a composition spectrum of the same (q, n) does, so
    one value costs as much as that spectrum's expansion, and it is
    refused as that spectrum is: SizeExceeded, before anything is
    expanded, above :data:`~scheme_spectra.schemes.COMPOSITION_MAX_WORK`.
    The brute method has no cap.

    The value is a plain int when it is rational, as for :func:`kraw`,
    and a :class:`CycInt` otherwise.  BadLabel refuses a label that is
    not a composition of n into q parts, whichever the method.
    """
    # a float n would pass the sum check, and the two routes then disagree
    n = operator.index(n)
    i, j = _shell_label(group, n, tuple(i)), _shell_label(group, n, tuple(j))
    if method == "brute":
        x = next(enumerate_shell(group, n, j))
        value = _character_sum(group, x, enumerate_shell(group, n, i))
    elif method == "extraction":
        # the cap of a composition spectrum of this (q, n), charged before the
        # same expansion; imported at call time, as schemes imports this module
        from .schemes import _check_expansion_work

        _check_expansion_work(group, n)
        # the z^i coefficient at i's colex rank, checked as _read_out checks
        # every shell, without _read_out's fold of all the others
        labels, sizes = _colex_shells(group.order, n)
        rank = labels.index(i)
        poly, width = _expand(group, n, j)
        m, mask = group.char_order, (1 << width) - 1
        counts = [(poly[rank] >> s) & mask for s in range(0, m * width, width)]
        if sum(counts) != sizes[rank]:
            raise ArithmeticError(
                f"coefficient of z^{i} has {sum(counts)} terms, "
                f"expected multinom(n, j) = {sizes[rank]}"
            )
        value = CycInt.from_root_powers(m, counts)
    else:
        raise DomainError(f"unknown method {method!r}")
    integer = value.as_integer()
    return value if integer is None else integer


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _circulant_determinant(q: int) -> dict[tuple[int, ...], int]:
    # det of the q x q circulant (z_(j-i mod q)) as a polynomial in
    # z_0..z_(q-1); exponent vectors map to integer coefficients.
    out: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(q)):
        expo = [0] * q
        for row, col in enumerate(perm):
            expo[(col - row) % q] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + _perm_sign(perm)
    return {k: v for k, v in out.items() if v}


def gen_kraw_circulant(q: int, n: int, r: Composition) -> int:
    """Balanced composition Krawtchouk value over Z_q via the circulant route.

    Computes K_(n/q,...,n/q)(r) by extracting the z^r coefficient of
    det(C)^(n/q) for the circulant C of the z variables and rescaling by
    the multinomial ratio.  det(C) is the group determinant of Z_q, which
    the balanced spectrum route takes from the character-sum expansion;
    here it is expanded as a sum over permutations instead, so this route
    is the oracle for that determinant, independent of the character
    sums.  The alphabet is capped because of the q! permutations.  After
    the checks of q and q | n, BadLabel refuses an r that is not a
    composition of n into q parts.
    """
    if q < 2:
        raise DomainError(f"need q >= 2, got {q}")
    if q > CIRCULANT_MAX_Q:
        raise UnsupportedSize(
            f"circulant determinant expansion is capped at q = {CIRCULANT_MAX_Q}, got q = {q}"
        )
    if n % q:
        raise DivisibilityError(f"balanced generator needs q | n, got q={q}, n={n}")
    target = _shell_label(cyclic(q), n, tuple(r))

    det = _circulant_determinant(q)
    states: dict[tuple[int, ...], int] = {(0,) * q: 1}
    for _ in range(n // q):
        nxt: dict[tuple[int, ...], int] = {}
        for part, coeff in states.items():
            for mono, c in det.items():
                npart = tuple(a + b for a, b in zip(part, mono))
                if any(a > t for a, t in zip(npart, target)):
                    continue
                nxt[npart] = nxt.get(npart, 0) + coeff * c
        states = {k: v for k, v in nxt.items() if v}
    extracted = states.get(target, 0)
    scale_num = multinom(n, Composition.balanced(q, n))
    scale_den = multinom(n, target)
    value = extracted * scale_num
    if value % scale_den:
        raise ArithmeticError(
            f"reciprocity scaling is not integral for q={q}, n={n}, r={target}"
        )
    return value // scale_den


def zero_shell_predicate(q: int, r: Composition | tuple) -> bool:
    """True when sum_g g*r_g is nonzero mod q, forcing a zero balanced value;
    BadLabel unless r has one nonnegative count per element of Z_q."""
    counts = _shell_label(cyclic(q), None, tuple(r))
    return sum(g * c for g, c in enumerate(counts)) % q != 0
