"""Orthogonal representations: build, verify and export.

An orthogonal representation of a graph assigns each vertex a complex
vector with unit-modulus entries so that adjacent vertices get orthogonal
vectors; its dimension upper-bounds the quantum chromatic number.  The
representations here are character matrices: an LP certificate of
:mod:`.bounds` prescribes the shells whose characters form the columns,
or the coordinatewise character gives the Hadamard representation.
Entries are stored by their exponents as roots of unity, so every entry
has modulus one by construction, and orthogonality is checked exactly in
the cyclotomic ring.  Every function here that needs numpy loads it when
called, through :func:`~scheme_spectra._numpy.load_numpy`, which keeps
numpy's OpenBLAS from starting a thread pool that no product here would
use; so ``represent --sample 0`` refuses before numpy loads.  The package
loads this module only on the first use of one of its names.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

from ._numpy import load_numpy
from .bounds import LPSolution, check_lp_solution
from .cyclotomic import CycInt, _fold_table, _reduction_rows
from .errors import (
    DivisibilityError,
    DomainError,
    NotOrthogonal,
    OrderMismatch,
    SizeExceeded,
    SpecMismatch,
)
from .groups import Composition, GroupSpec, _shell_label, index_word
from .schemes import HammingGraphSpec

if TYPE_CHECKING:
    from .composition import CompositionGraphSpec

#: Row-count cap for materializing a representation.
REPRESENTATION_MAX_ROWS = 1 << 20

#: Cell cap (rows x columns) for materializing a representation: 128 MiB of
#: one-byte exponents (root orders up to 128).
REPRESENTATION_MAX_CELLS = 1 << 27

# Working memory, in bytes, of one row block when a representation is built,
# verified or written out; each step sizes its blocks from its bytes per row.
_BLOCK_BYTES = 1 << 22

# Most entries in one table of CSV cell runs: a run takes the largest k
# with m^k at most this for root order m, and one cell for m above it.
_CHUNK_ENTRIES = 256


# ---------------------------------------------------------------------------
# representations


def _exponent_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 2m - 2, the largest sum of two
    exponents reduced mod m: uint8 for m <= 128."""
    np = load_numpy()

    return np.min_scalar_type(2 * m - 2)


def _block_rows(row_bytes: int) -> int:
    """Rows per block for a step that takes ``row_bytes`` of working memory
    per row, so that one block takes about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


@functools.lru_cache(maxsize=32)
def _cell_runs(m: int, length: int, newline: bool) -> np.ndarray:
    """Object array of the text of every run of ``length`` CSV cells
    ``,<term of zeta^e>`` for root order m, indexed by the run's exponents
    read as a base-m number, each ending in a newline if ``newline``."""
    np = load_numpy()

    cells = [f",{CycInt.root_of_unity(m, e).to_term_string()}" for e in range(m)]
    end = "\n" if newline else ""
    runs = np.empty(m**length, dtype=object)
    runs[:] = ["".join(run) + end for run in itertools.product(cells, repeat=length)]
    return runs


@functools.lru_cache(maxsize=1)
def _limbs() -> np.ndarray:
    """Object array of the 3-digit limbs of CSV vertex numbers: 0..999
    without leading zeros, then zero-padded."""
    np = load_numpy()

    limbs = np.empty(2000, dtype=object)
    limbs[:] = [str(i) for i in range(1000)] + [f"{i:03}" for i in range(1000)]
    return limbs


def _checked_rows(q: int, n: int) -> int:
    """The row count q^n, or SizeExceeded above the row cap."""
    rows = q**n
    if rows > REPRESENTATION_MAX_ROWS:
        raise SizeExceeded(
            f"representation would have {rows} rows; cap is {REPRESENTATION_MAX_ROWS}"
        )
    return rows


def _additive_matrix(blocks: Iterable[np.ndarray], cols: int, m: int) -> np.ndarray:
    """Row x, in canonical vertex order, is the sum mod m over k of row x_k of
    block blocks[k], whose exponents lie below m in the :func:`_exponent_dtype`
    of m.  Each coordinate adds one block to the rows for the coordinates
    before it, so a build costs rows x cols, and reduces at once:
    min(s, s - m) is s mod m for s < 2m, since s - m wraps around above s
    when s < m."""
    np = load_numpy()

    out = np.zeros((1, cols), dtype=_exponent_dtype(m))
    for block in blocks:
        out = (out[:, None, :] + block).reshape(len(out) * len(block), cols)
        np.minimum(out, out - m, out=out)
    return out


def _additive_blocks(
    blocks: Sequence[np.ndarray], cols: int, m: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The :func:`_additive_matrix` of ``blocks`` as (first row, row block)
    pairs in row order: the trailing blocks that fit in one row block are
    summed once, and each row of the leading blocks' sum is added to that.
    When every block fits, that sum is the only row block, yielded as it was
    built: a fresh, writable, C-ordered array."""
    np = load_numpy()

    # per row: the tail, the block, its wrapped-around copy and a comparison
    rows = _block_rows(4 * cols * _exponent_dtype(m).itemsize)
    split, size = len(blocks), 1
    while split and size * len(blocks[split - 1]) <= rows:
        split -= 1
        size *= len(blocks[split])
    tail = _additive_matrix(blocks[split:], cols, m)
    if not split:
        yield 0, tail
        return
    for h, head in enumerate(_additive_matrix(blocks[:split], cols, m)):
        block = head + tail
        np.minimum(block, block - m, out=block)
        yield h * len(tail), block


@functools.lru_cache(maxsize=32)
def _letter_counts(q: int, n: int, g: int) -> np.ndarray:
    """How often letter g occurs in each word of length n over an alphabet
    of q letters, in canonical vertex order, as a read-only vector in the
    :func:`_exponent_dtype` of n + 1.

    Cached per (q, n, g), so that building a representation and verifying it,
    at every d of one (q, n), read one pass over the vertices; Z_q and GF(q)
    share their entries.  Callers pass plain ints: a numpy n would be a hit
    for the equal int, and its narrow arithmetic could store the counts in
    a wrapped dtype.  An entry takes one byte a vertex, at most 1 MiB at the
    row cap, so the 32 entries retain at most 32 MiB; the representations
    benchmark fills 16 entries, none above 6561 bytes."""
    np = load_numpy()

    return _locked(_additive_matrix([np.arange(q)[:, None] == g] * n, 1, n + 1).ravel())


def _locked(array: np.ndarray) -> np.ndarray:
    """The array made read-only, with the array that owns its memory if it is a view."""
    if array.base is not None:
        array.base.flags.writeable = False
    array.flags.writeable = False
    return array


def _shell_indices(group: GroupSpec, n: int, label: int | Composition) -> np.ndarray:
    """The vertex indices of a shell's words, ascending, which is their
    canonical order, as a fresh array: a weight shell w is read off the
    count of letter 0, n - w, and a composition shell off the count of each
    letter it holds (the letters it holds none of then occur nowhere, since
    the counts sum to n).  The counts are the cached :func:`_letter_counts`."""
    np = load_numpy()

    label = _shell_label(group, n, label)
    q, n = group.order, operator.index(n)
    if isinstance(label, int):
        return np.flatnonzero(_letter_counts(q, n, 0) == n - label)
    match = np.ones(q**n, dtype=bool)
    for g, c in enumerate(label):
        if c:
            match &= _letter_counts(q, n, g) == c
    return np.flatnonzero(match)


def _linear_blocks(coeffs: np.ndarray, units: np.ndarray, m: int) -> np.ndarray:
    """The blocks coeffs @ units[j] mod m, n x q x cols for q x k coefficients
    and n x k x cols units, in the :func:`_exponent_dtype` of m, built in int64
    one block of q rows at a time."""
    np = load_numpy()

    n, _, cols = units.shape
    out = np.empty((n, len(coeffs), cols), dtype=_exponent_dtype(m))
    step = _block_rows(16 * n * cols)  # the int64 products and their residues
    for start in range(0, len(coeffs), step):
        out[:, start : start + step] = coeffs[start : start + step] @ units % m
    return out


def _character_matrix(group: GroupSpec, n: int, columns: Iterable[int]) -> np.ndarray:
    """The characters of the words whose vertex indices are ``columns``:
    entry (x, j) is the exponent of phi_y(x) for y the word of index
    columns[j], x in canonical vertex order, reduced mod the root order m,
    C-ordered in the :func:`_exponent_dtype` of m.  The row cap is checked
    before any column is read and the cell cap once they are listed.  An
    index is an N = n*k digit base-m numeral whose digit i, highest first,
    is index // m^(N-1-i) % m, so coordinate c holds digits c*k..c*k+k-1,
    the digits of y_c highest first (see
    :class:`~scheme_spectra.groups.GroupSpec`).  Block c of the
    :func:`_additive_matrix` holds phi_g(y_c): phi_g at the digit units
    m^(k-1), ..., 1 (q x k calls) weighted by those digits.  When every
    coordinate fits one row block, that block is the matrix, returned as it
    was built; otherwise the matrix is filled one row block at a time."""
    np = load_numpy()

    n = operator.index(n)  # a narrow numpy n would wrap q**n under the row cap
    if n < 0:
        raise DomainError(f"need n >= 0, got n={n}")
    q = group.order
    rows = _checked_rows(q, n)
    columns = np.asarray(columns if isinstance(columns, np.ndarray) else list(columns), dtype=np.intp)
    cols = len(columns)
    if rows * cols > REPRESENTATION_MAX_CELLS:
        raise SizeExceeded(
            f"representation would have {rows} x {cols} = {rows * cols} cells; "
            f"cap is {REPRESENTATION_MAX_CELLS}"
        )
    m, k = group.char_order, group.k
    units = np.array([[group.char_exponent(g, m**i) for i in range(k - 1, -1, -1)]
                      for g in range(q)], dtype=np.int64)
    digits = columns // m ** np.arange(n * k - 1, -1, -1)[:, None] % m
    blocks = _linear_blocks(units, digits.reshape(n, k, cols), m)
    pieces = _additive_blocks(blocks, cols, m)
    _, block = next(pieces)
    if len(block) == rows:
        return _locked(block)
    exponents = np.empty((rows, cols), dtype=_exponent_dtype(m))
    exponents[: len(block)] = block
    for start, block in pieces:
        exponents[start : start + len(block)] = block
    return _locked(exponents)


def _reduced_exponents(exponents: np.ndarray, m: int) -> np.ndarray:
    """The exponent matrix as :class:`Representation` holds it, :func:`_locked`;
    a copy takes each block mod m in a dtype that holds both its values and m."""
    np = load_numpy()

    exponents = np.asarray(exponents)
    if exponents.ndim != 2 or exponents.dtype.kind not in "iu":
        raise DomainError(
            f"exponents must be a 2-D integer array, got {exponents.ndim}-D {exponents.dtype}"
        )
    dtype = _exponent_dtype(m)
    owner = exponents if exponents.base is None else exponents.base
    if (isinstance(owner, np.ndarray) and not (owner.flags.writeable or exponents.flags.writeable)
            and exponents.dtype == dtype and exponents.flags.c_contiguous
            and (exponents.size == 0 or exponents.max() < m)):
        return exponents
    wide = np.promote_types(exponents.dtype, np.min_scalar_type(m))
    out = np.empty(exponents.shape, dtype=dtype)
    step = _block_rows(2 * exponents.shape[1] * wide.itemsize)  # a block and its residues
    for start in range(0, len(out), step):
        out[start : start + step] = exponents[start : start + step].astype(wide) % m
    return _locked(out)


class Representation:
    """A vertex-by-dimension matrix of roots of unity, stored by exponent.

    Rows follow the canonical base-q vertex order.  Entry (x, c) is
    zeta_m^e for e = ``exponents[x, c]`` and m the group's character order
    (``root_order``), so every entry has modulus one by construction.  The
    constructor reads n through operator.index, refusing one below 0 with
    DomainError, and takes any 2-D array of an integer dtype (bool is not
    one), refusing any other with DomainError; it holds the exponents reduced
    to 0..m-1, C-ordered in the :func:`_exponent_dtype` of m and read-only,
    copying them one row block at a time unless they are in that form and
    no write can reach them, they and any array they view being read-only.
    """

    def __init__(
        self,
        group: GroupSpec,
        n: int,
        exponents: np.ndarray,
        provenance: str,
        solution: LPSolution | None = None,
    ):
        n = operator.index(n)
        if n < 0:
            raise DomainError(f"need n >= 0, got n={n}")
        self.group = group
        self.n = n
        self.root_order = group.char_order
        self.exponents = _reduced_exponents(exponents, self.root_order)
        self.provenance = provenance
        self.solution = solution

    @property
    def rows(self) -> int:
        return self.exponents.shape[0]

    @property
    def cols(self) -> int:
        return self.exponents.shape[1]

    def _check_cell(self, row: int, col: int) -> None:
        if not 0 <= row < self.rows or not 0 <= col < self.cols:
            raise DomainError(f"entry ({row}, {col}) outside the matrix")

    def entry(self, row: int, col: int) -> CycInt:
        self._check_cell(row, col)
        return CycInt.root_of_unity(self.root_order, int(self.exponents[row, col]))

    def with_entry(self, row: int, col: int, value: CycInt) -> Representation:
        """A copy of the representation with entry (row, col) set to
        ``value``, which must be a power zeta_m^e of the representation's
        root order m; e is written into a copy of the exponent matrix.  A
        value of another root order raises OrderMismatch, any other value
        of order m DomainError."""
        self._check_cell(row, col)
        m = self.root_order
        if value.order != m:
            raise OrderMismatch(f"entry has root order {value.order}, representation has {m}")
        try:
            power = _reduction_rows(m).index(value.coeffs)
        except ValueError:
            raise DomainError(f"entry {value.to_term_string()} is not a power of zeta_{m}") from None
        exponents = self.exponents.copy()
        exponents[row, col] = power
        return Representation(self.group, self.n, _locked(exponents), self.provenance, self.solution)

    def write_csv(self, fp: IO[str]) -> None:
        """CSV export: a root-order header, a column header, then one row
        per vertex with entries in canonical ``a0+a1*z+...`` form.

        Rows are written one block at a time, each block as one join of
        text chunks gathered from small tables.  A row's chunks are its
        vertex number in 3-digit limbs, the first without leading zeros,
        then its cells ``,<term>`` in runs of k, with m^k <= _CHUNK_ENTRIES
        for root order m; the last run, of 1..k cells, ends in the newline.
        A run's entry in its table is the Horner sum of its exponents in
        base m.  Blocks are cut where the vertex number gains a limb, so
        every row of a block has as many chunks."""
        np = load_numpy()

        m, rows, cols = self.root_order, self.rows, self.cols
        exponents = self.exponents
        fp.write(f"root_order,{m}\n")
        fp.write("vertex," + ",".join(f"c{c}" for c in range(cols)) + "\n")
        terms = [CycInt.root_of_unity(m, e).to_term_string() for e in range(m)]
        k = 1
        while m ** (k + 1) <= _CHUNK_ENTRIES:
            k += 1
        runs = (cols - 1) // k if cols else 0  # full runs before the last one
        tail = cols - runs * k
        full = _cell_runs(m, k if runs else 0, False)  # one empty run if unused
        table = np.concatenate((full, _cell_runs(m, tail, True), _limbs()))
        tail_at, lead_at = len(full), len(full) + m**tail
        pad_at = lead_at + 1000
        # Horner sums stay below m^k, so they fit the exponents' own dtype
        # once it holds m^k - 1
        dtype = np.promote_types(exponents.dtype, np.min_scalar_type(m**k - 1))
        items = -(-len(str(rows - 1)) // 3) + runs + 1  # chunks per row, at most
        # per row: the chunk indices, the gathered chunks and their list (one
        # word per chunk each), the joined text, two words of vertex limbs and
        # the runs' Horner sums
        text = len(str(rows - 1)) + cols * (1 + max(map(len, terms))) + 1
        step = _block_rows(24 * items + text + 16 + (runs + 1) * dtype.itemsize)
        start = 0
        while start < rows:
            limbs = -(-len(str(start)) // 3)
            end = min(start + step, rows, 1000**limbs)
            index = np.empty((end - start, limbs + runs + 1), dtype=np.intp)
            high = np.arange(start, end, dtype=np.intp)
            for j in range(limbs - 1, 0, -1):
                high, low = np.divmod(high, 1000)
                index[:, j] = low + pad_at
            index[:, 0] = high + lead_at
            codes = exponents[start:end]
            run = codes[:, 0 : runs * k : k].astype(dtype)
            for i in range(1, k):
                run *= m
                run += codes[:, i : runs * k : k]
            index[:, limbs:-1] = run
            run = np.zeros(end - start, dtype)
            for c in range(runs * k, cols):
                run *= m
                run += codes[:, c]
            index[:, -1] = run
            index[:, -1] += tail_at
            fp.write("".join(table.take(index.ravel()).tolist()))
            start = end

    def to_csv_text(self) -> str:
        import io

        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def build_representation(solution: LPSolution, group: GroupSpec) -> Representation:
    """Assemble the character representation an LP solution prescribes.

    For every shell index i with c_i > 0 the block of columns indexed by
    the shell's words y carries the character vector of y, repeated c_i
    times; the entry in row x is phi_y(x).  The vanishing Krawtchouk
    constraint is exactly what makes rows at graph distance d orthogonal.
    """
    np = load_numpy()

    check_lp_solution(solution)
    if group.order != solution.q:
        raise SpecMismatch(
            f"group order {group.order} does not match solution alphabet q={solution.q}"
        )
    n = solution.n
    _checked_rows(group.order, n)  # before any shell is listed
    columns = np.concatenate([
        np.tile(_shell_indices(group, n, i), c)
        for i, c in enumerate(solution.coefficients) if c
    ])
    exponents = _character_matrix(group, n, columns)
    return Representation(group, n, exponents, "lp-orthogonal-representation", solution)


def hadamard_representation(group: GroupSpec, n: int) -> Representation:
    """The n-dimensional coordinatewise character representation.

    Row x is (phi(x_1), ..., phi(x_n)) for the fixed character phi of
    alphabet element 1, that is, column k is the character of the unit word
    e_k, of vertex index q^(n-1-k); the indices are listed lazily, so the
    row cap is checked before any is read.  Rows adjacent in the balanced
    composition graph are orthogonal because their inner product sums phi
    over every alphabet element equally often; hence the graph's quantum
    chromatic number is at most n.
    Requires the alphabet size to divide n.
    """
    n = operator.index(n)
    if n % group.order:
        raise DivisibilityError(f"needs q | n, got q={group.order}, n={n}")
    units = (group.order ** (n - 1 - k) for k in range(n))
    exponents = _character_matrix(group, n, units)
    return Representation(group, n, exponents, "hadamard-character")


# ---------------------------------------------------------------------------
# verification


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """Draws start..stop-1 of the splitmix64 stream seeded by ``seed``, as
    uint64: draw k is :func:`_mix64` of seed + k * gamma, all mod 2^64."""
    np = load_numpy()

    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> 30
    z *= np.uint64(_MIX1)
    z ^= z >> 27
    z *= np.uint64(_MIX2)
    z ^= z >> 31
    return z


def representation_seed(spec: HammingGraphSpec | CompositionGraphSpec) -> int:
    """Deterministic sampling seed derived from the graph parameters alone."""
    if isinstance(spec, HammingGraphSpec):
        values = (1, spec.n, spec.q, spec.d)
    else:
        values = (2, spec.n, spec.group.order, spec.group.char_order, *spec.dcomp)
    acc = 0x5851F42D4C957F2D
    for v in values:
        acc = _mix64(acc ^ (v & _MASK64))
    return acc


def _generating_labels(
    spec: HammingGraphSpec | CompositionGraphSpec, rep: Representation
) -> tuple[GroupSpec, int | Composition]:
    if isinstance(spec, HammingGraphSpec):
        if rep.group.order != spec.q:
            raise SpecMismatch(
                f"representation alphabet {rep.group.order} does not match q={spec.q}"
            )
        return rep.group, spec.d
    if rep.group != spec.group:
        raise SpecMismatch("representation and graph use different groups")
    return spec.group, spec.dcomp


def _neighbours(m: int, xs: np.ndarray, steps: Sequence[np.ndarray]) -> np.ndarray:
    """Vertex indices of x + s for the vertices xs and the generators whose
    base-m digits, highest first, are the ``steps``, in the :func:`_exponent_dtype`
    of m: vertices add as N-digit base-m numerals, digit by digit mod m (see
    :class:`~scheme_spectra.groups.GroupSpec`).  xs and the steps pair up
    entry by entry, or broadcast as a column of x against a row of s."""
    np = load_numpy()

    out = np.zeros(np.broadcast_shapes(xs.shape, steps[0].shape), dtype=np.intp)
    for digit, step in zip(np.unravel_index(xs, (m,) * len(steps)), steps):
        total = digit.astype(step.dtype) + step
        np.minimum(total, total - m, out=total)
        out *= m
        out += total
    return out


def _translation_invariant(expm: np.ndarray, group: GroupSpec, n: int) -> bool:
    """Whether expm[x + g*e_k] - expm[x] == expm[g*e_k] - expm[0] (mod m)
    for every row x, coordinate k and g, where expm holds exponents reduced
    mod the character order m: exactly when each delta_k[g] = expm[g*e_k] -
    expm[0] is additive in g and expm is expm[0] plus the
    :func:`_additive_matrix` of the delta_k.  The digit units m^i generate
    the alphabet, so delta_k is additive exactly when it is the sum of the
    u = delta_k[m^i] weighted by the k base-m digits of g, lowest first,
    g // m^i % m, the order in which the unit rows m^i * q^(n-1-j) are read.
    The sum is rebuilt and compared one row block at a time.
    Adding s to x then adds the same exponents to every row, so rows x and
    x + s have the inner product of rows 0 and s."""
    np = load_numpy()

    q, m, k = group.order, group.char_order, group.k
    cols = expm.shape[1]
    digits = np.arange(q)[:, None] // m ** np.arange(k) % m
    # row m^i * q^(n-1-j) is the word m^i * e_j
    rows = np.outer(q ** np.arange(n - 1, -1, -1), m ** np.arange(k))
    units = np.take(expm, rows.ravel(), axis=0).astype(np.int64)
    units -= expm[0]
    units %= m
    blocks = [expm[:1].astype(_exponent_dtype(m))]
    blocks += list(_linear_blocks(digits, units.reshape(n, k, cols), m))
    return all(
        np.array_equal(block, expm[start : start + len(block)])
        for start, block in _additive_blocks(blocks, cols, m)
    )


@functools.lru_cache(maxsize=32)
def _fold_entries(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (e, k, c) of the rows of :func:`_fold_table`,
    zeta_m^e = sum over its entries of c zeta_m^k, sorted by k, as three
    read-only int64 vectors: the exponents e, the coefficients c, and where
    each k's entries start.  Every k below the degree has entries, since row
    k < deg is zeta_m^k itself."""
    np = load_numpy()

    entries = sorted((k, e, c) for e, row in enumerate(_fold_table(m)) for k, c in row)
    ks, exps, coeffs = np.array(entries, dtype=np.int64).T
    starts = np.flatnonzero(np.diff(ks, prepend=-1))
    return _locked(exps.copy()), _locked(coeffs[:, None].copy()), _locked(starts)


def _failing_rows(ex: np.ndarray, ey: np.ndarray, m: int) -> np.ndarray:
    """Rows i where exponent rows ex[i], ey[i] in 0..m-1 are not orthogonal:
    ey - ex + m is counted in 2m bins per row, bin j standing for
    zeta_m^(j % m); bins j and j + m are folded together, and the m counts
    are reduced modulo the m-th cyclotomic polynomial by the sparse rows of
    :func:`_fold_table` that :class:`CycInt` reduces by, one term for each
    entry :func:`_fold_entries` lists.  The bins are laid out bin-major, so
    that each term gathers and sums whole rows of counts.  The differences
    and bin indices are widened to int64 here, one block at a time."""
    np = load_numpy()

    rows = len(ey)
    index = ey.astype(np.int64)
    index -= ex
    index *= rows
    index += np.arange(m * rows, (m + 1) * rows, dtype=np.int64)[:, None]
    counts = np.bincount(index.ravel(), minlength=2 * m * rows).reshape(2 * m, rows)
    folded = counts[:m]
    folded += counts[m:]
    exps, coeffs, starts = _fold_entries(m)
    terms = folded[exps]
    terms *= coeffs
    return np.flatnonzero(np.add.reduceat(terms, starts).any(axis=0))


def _check_sample(sample: int | None) -> int | None:
    """The sample count read as a plain int through operator.index, so that a
    narrow numpy int cannot wrap in the draw arithmetic; DomainError for a
    count below 1, which would check nothing."""
    if sample is None:
        return None
    sample = operator.index(sample)
    if sample < 1:
        raise DomainError(f"need sample >= 1, got {sample}")
    return sample


def verify_representation(
    rep: Representation,
    spec: HammingGraphSpec | CompositionGraphSpec,
    sample: int | None = None,
) -> bool:
    """Check orthogonality on adjacent pairs.

    Every entry is a power of zeta_m, so it has modulus one by construction,
    and the exponent matrix is read as it is, at its root order m.  Full
    mode (``sample=None``) checks the pair (x, x + s) for every vertex x and
    generator s, scanning the rows in blocks that grow from one row, each
    block against every generator in one call, so a failure at row x stops
    after at most (2x + 1)|S| pairs.  When the exponents are additive along
    each coordinate, as in every character-built representation
    (:func:`_translation_invariant`), each pair has the inner product of
    rows 0 and s, and the scan ends after its first block, row 0.  Sampled
    mode checks ``sample`` pairs drawn from the deterministic generator
    seeded by :func:`representation_seed`.  Every mode runs the same exact
    check one block at a time and counts a block in pairs, each taking two
    exponent rows, their int64 differences, 2m bins, one term per
    :func:`_fold_entries` entry and the reduced counts, its int64 indices, and
    the N = n*k intp digits of x and narrow digits of s from which
    :func:`_neighbours` sums x + s.  Beyond the shell's vertex indices,
    sampled mode and a scan past row 0 hold the generators' N x |S| digits.
    A failure raises NotOrthogonal carrying, in full mode, the smallest
    failing x and then the smallest failing x + s, and in sampled mode the
    first failing pair in draw order; a clean pass is True.  ``sample`` is
    read as an int through operator.index; one below 1 would check nothing
    and raises DomainError.
    """
    np = load_numpy()

    sample = _check_sample(sample)
    group, label = _generating_labels(spec, rep)
    n = spec.n
    q = group.order
    if rep.n != n:
        raise SpecMismatch(f"representation length {rep.n} does not match n={n}")
    if rep.rows != q**n:
        raise SpecMismatch(f"representation has {rep.rows} rows, expected {q**n}")
    expm, m = rep.exponents, rep.root_order
    ys = _shell_indices(group, n, label)
    digits = n * group.k  # N, with q^n = m^N
    # a pair's int64 words are its bins, its fold terms and reduced counts,
    # and its indices: a draw's two words, x, j and x + s
    exps, _, starts = _fold_entries(m)
    pairs = _block_rows(
        (2 * expm.itemsize + 8) * rep.cols + 8 * (2 * m + len(exps) + len(starts))
        + (8 + expm.itemsize) * digits + 40
    )
    rows = 1 if sample is None and _translation_invariant(expm, group, n) else rep.rows
    if sample is not None or rows > 1:
        steps = [d.astype(expm.dtype) for d in np.unravel_index(ys, (m,) * digits)]
    witness: tuple[int, int] | None = None
    if sample is not None:
        seed = representation_seed(spec)
        for start in range(0, sample, pairs):
            draws = _splitmix_draws(seed, 2 * start, 2 * min(start + pairs, sample))
            xs = (draws[0::2] % rep.rows).astype(np.intp)
            gens = (draws[1::2] % len(ys)).astype(np.intp)
            yv = _neighbours(m, xs, [s[gens] for s in steps])
            bad = _failing_rows(np.take(expm, xs, axis=0), np.take(expm, yv, axis=0), m)
            if bad.size:
                witness = (int(xs[bad[0]]), int(yv[bad[0]]))
                break
    else:
        # Block by block of rows x, each row against every generator s in one
        # kernel call, x-major, so the first failing pair of a block has its
        # smallest failing x.  The blocks grow from one row, so a failure at
        # row x stops after about log2(x + 2) calls.  Should one row's pairs
        # outgrow a block, the blocks stay one row and its generators are
        # split into slices instead.
        width = min(len(ys), pairs)
        most = max(1, pairs // len(ys))
        start, size = 0, 1
        while witness is None and start < rows:
            stop = min(start + size, rows)
            xs = np.arange(start, stop)[:, None]
            found = []
            for first in range(0, len(ys), width):
                part = slice(first, first + width)
                yv = _neighbours(m, xs, [s[part] for s in steps]) if start else ys[None, part]
                gens = yv.shape[1]
                ex = np.repeat(expm[start:stop], gens, axis=0)
                bad = _failing_rows(ex, np.take(expm, yv.ravel(), axis=0), m)
                if bad.size:
                    # shell order is not vertex order: the least failing x + s
                    x = bad[0] // gens
                    y = yv[x, bad[bad // gens == x] % gens].min()
                    found.append((start + int(x), int(y)))
                    if not start:
                        break  # row 0's neighbours ascend, as ys does
            if found:
                witness = min(found)
            start, size = stop, min(2 * size, most)
    if witness is not None:
        xi, yi = witness
        raise NotOrthogonal(xi, yi, index_word(group, xi, n), index_word(group, yi, n))
    return True
