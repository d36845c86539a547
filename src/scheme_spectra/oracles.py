"""Independent routes, and the word layer that they stream.

The library's values come from the Krawtchouk recurrence, the generating-
product expansion of :mod:`.composition` and the group determinant.  The
routes here reach the same values by code those share nothing with, so that
a faster route can be checked against one that cannot make the same mistake:

- brute character sums over a shell, and the default route of
  :func:`gen_kraw`, which reads one coefficient off the expansion;
- the circulant determinant of Z_q, a sum over permutations, for the group
  determinant of the balanced route (:func:`gen_kraw_circulant`);
- the direct adjacency action for eigenvectors (:func:`eigenvector_check`);
- the dense projector check for the Hamming scheme
  (:func:`projector_identity_check`).

The word layer below (word arithmetic, characters of words, and the shells
streamed one word at a time) serves these routes, the ``verify`` suites and
callers; no spectrum, report, probe or representation reads it.

This module is loaded on first use.  The package and the modules that held
its public names before (:mod:`.groups`, :mod:`.composition`,
:mod:`.krawtchouk`, :mod:`.schemes`) read them from here on first access, as
the package's ``_HOMES`` table lists them.  At import it reads only modules
that every process has loaded; a route imports the alphabets, the cyclotomic
ring or the composition scheme when it runs, so the projector check compiles
none of them.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._numpy import load_numpy
from .errors import DivisibilityError, DomainError, SizeExceeded, SpecMismatch, UnsupportedSize
from .exactnum import binom, multinom
from .krawtchouk import kraw
from .schemes import HammingGraphSpec

if TYPE_CHECKING:
    from .composition import CompositionGraphSpec
    from .cyclotomic import CycInt
    from .groups import Composition, GroupSpec

#: Largest alphabet for which the circulant determinant is expanded exactly.
CIRCULANT_MAX_Q = 7

#: Vertex-count cap for the dense projector check.
PROJECTOR_MAX_VERTICES = 81


# ---------------------------------------------------------------------------
# words


def weight(word: Sequence[int]) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for g in word if g)


def comp(group: GroupSpec, word: Sequence[int]) -> Composition:
    """The composition of a word: per-element occurrence counts."""
    from .groups import Composition

    counts = [0] * group.order
    for g in word:
        counts[group._check_element(g)] += 1
    return Composition(tuple(counts))


def word_add(group: GroupSpec, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    if len(x) != len(y):
        raise SpecMismatch(f"word lengths differ: {len(x)} vs {len(y)}")
    return tuple(group.add(a, b) for a, b in zip(x, y))


def word_neg(group: GroupSpec, x: Sequence[int]) -> tuple[int, ...]:
    return tuple(group.neg(a) for a in x)


def word_sub(group: GroupSpec, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    return word_add(group, x, word_neg(group, y))


def word_index(group: GroupSpec, word: Sequence[int]) -> int:
    """Canonical row index: the base-q value of the word, first digit high."""
    out = 0
    for g in map(operator.index, word):
        out = out * group.order + group._check_element(g)
    return out


def all_words(group: GroupSpec, n: int) -> Iterator[tuple[int, ...]]:
    """Every word of length n in canonical (base-q ascending) order;
    DomainError for n < 0, as :func:`.groups.index_word` refuses it."""
    n = operator.index(n)
    if n < 0:
        raise DomainError(f"word length must be >= 0, got n={n}")
    return itertools.product(group.elements(), repeat=n)


# ---------------------------------------------------------------------------
# characters


def char_value(group: GroupSpec, g: int, h: int) -> CycInt:
    """The additive character of ``g`` evaluated at ``h``.

    For Z_q this is zeta_q^(g*h); for GF(p^k) it is zeta_p^Tr(g*h).  The
    value is symmetric in its two arguments and multiplicative in each.
    """
    from .cyclotomic import CycInt

    return CycInt.root_of_unity(group.char_order, group.char_exponent(g, h))


def word_char_exponent(group: GroupSpec, x: Sequence[int], y: Sequence[int]) -> int:
    """Exponent e with  phi_x(y) = zeta^e  for words x, y of equal length."""
    if len(x) != len(y):
        raise SpecMismatch(f"word lengths differ: {len(x)} vs {len(y)}")
    e = 0
    for a, b in zip(x, y):
        e += group.char_exponent(a, b)
    return e % group.char_order


def word_char_value(group: GroupSpec, x: Sequence[int], y: Sequence[int]) -> CycInt:
    from .cyclotomic import CycInt

    return CycInt.root_of_unity(group.char_order, word_char_exponent(group, x, y))


# ---------------------------------------------------------------------------
# shells, one word at a time


def _weight_words(q: int, n: int, w: int) -> Iterator[tuple[int, ...]]:
    # From the least word, n - w zeros then w ones, to the next: raise the last
    # letter i below q - 1 with a nonzero letter at or after it, and refill the
    # tail zeros first, one 1 per letter q - 1 it held, less one if i left 0.
    top = q - 1
    word = [0] * (n - w) + [1] * w
    last = n - 1 if w else -1  # the last nonzero letter
    while True:
        yield tuple(word)
        i = last
        while i >= 0 and word[i] == top:
            i -= 1
        if i < 0:
            return
        ones = last - i - (not word[i])
        word[i] += 1
        word[i + 1 :] = [0] * (n - 1 - i - ones) + [1] * ones
        last = n - 1 if ones else i


def _comp_words(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # From the least word, letter g counts[g] times in ascending order, to the
    # next multiset permutation (Knuth, TAOCP 7.2.1.2, Algorithm L): swap the last
    # ascent's left letter with the last letter above it, reverse the tail after it.
    word = [g for g, c in enumerate(counts) for _ in range(c)]
    while True:
        yield tuple(word)
        j = len(word) - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(word) - 1
        while word[j] >= word[k]:
            k -= 1
        word[j], word[k] = word[k], word[j]
        word[j + 1 :] = word[:j:-1]


def enumerate_shell(
    group: GroupSpec, n: int, label: int | Composition | Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Stream the words of a weight or composition shell in canonical order.

    An integer label selects the Hamming sphere of that weight; a
    composition label selects the words with exactly those occurrence
    counts; :func:`shell_size` accepts the same labels.  The words stream in
    ascending base-q order, each the successor of the last, never all held.
    """
    from .groups import _shell_label

    label = _shell_label(group, n, label)
    if isinstance(label, int):
        return _weight_words(group.order, operator.index(n), label)
    return _comp_words(label)


def shell_size(group: GroupSpec, n: int, label: int | Composition | Sequence[int]) -> int:
    """Cardinality of a shell by counting formulas, for the labels of :func:`enumerate_shell`."""
    from .groups import _shell_label

    label = _shell_label(group, n, label)
    if isinstance(label, int):
        return (group.order - 1) ** label * binom(n, label)
    return multinom(n, label)


# ---------------------------------------------------------------------------
# composition Krawtchouk values


def _character_sum(group: GroupSpec, x: Sequence[int], words: Iterable[Sequence[int]]) -> CycInt:
    # The sum of phi_x(y) over the words y, streamed, counted per power of
    # zeta from one row of exponents per letter of x: the oracles' brute sum.
    from .cyclotomic import CycInt

    m = group.char_order
    rows = [[group.char_exponent(a, b) for b in group.elements()] for a in x]
    counts = [0] * m
    for y in words:
        counts[sum(map(list.__getitem__, rows, y)) % m] += 1
    return CycInt.from_root_powers(m, counts)


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
    expanded, above :data:`.composition.COMPOSITION_MAX_WORK`.
    The brute method has no cap.

    The value is a plain int when it is rational, as for :func:`kraw`,
    and a :class:`CycInt` otherwise.  BadLabel refuses a label that is
    not a composition of n into q parts, whichever the method.
    """
    from .cyclotomic import CycInt
    from .groups import _shell_label

    # a float n would pass the sum check, and the two routes then disagree
    n = operator.index(n)
    i, j = _shell_label(group, n, tuple(i)), _shell_label(group, n, tuple(j))
    if method == "brute":
        x = next(enumerate_shell(group, n, j))
        value = _character_sum(group, x, enumerate_shell(group, n, i))
    elif method == "extraction":
        from .composition import _check_expansion_work, _colex_shells, _expand

        # the cap of a composition spectrum of this (q, n), charged before the
        # same expansion
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
                f"expected multinom(n, i) = {sizes[rank]}"
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
    from .groups import Composition, _shell_label, cyclic

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
    from .groups import _shell_label, cyclic

    counts = _shell_label(cyclic(q), None, tuple(r))
    return sum(g * c for g, c in enumerate(counts)) % q != 0


# ---------------------------------------------------------------------------
# eigenvectors by the adjacency action


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
    the wrong length or a non-letter in x or y raises SpecMismatch, x's
    before the eigenvalue is read off it, for either family.
    """
    from .groups import cyclic

    hamming = isinstance(spec, HammingGraphSpec)
    group = cyclic(spec.q) if hamming else spec.group
    # x read as word_add reads a word, before the eigenvalue reads it
    x = tuple(x)
    if len(x) != spec.n:
        raise SpecMismatch(f"word lengths differ: {len(x)} vs {spec.n}")
    for g in x:
        group._check_element(g)
    if hamming:
        shell_label: int | Composition = spec.d
        lam: int | CycInt = kraw(spec.n, spec.q, spec.d, weight(x))
    else:
        shell_label = spec.dcomp
        lam = gen_kraw(group, spec.n, spec.dcomp, comp(group, x))
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


# ---------------------------------------------------------------------------
# the dense projector check


def projector_identity_check(n: int, q: int) -> bool:
    """Dense check that the Krawtchouk projectors resolve the identity.

    Builds E_j with entries K_j(Hamming weight of x - y) / q^n for every
    shell j and verifies sum_j E_j = I and E_j E_l = [j = l] E_j, using
    integer matrices scaled by q^n so every comparison is exact.  The
    products must stay int64: numpy computes integer products in its own
    loops, while a float product would call BLAS (whose thread pool
    :func:`~scheme_spectra._numpy.load_numpy` does not start) and give up
    exactness.  Raises DomainError unless
    n >= 1 and q >= 2, and SizeExceeded above the vertex cap.
    """
    np = load_numpy()

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
