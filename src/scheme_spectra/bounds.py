"""Orthogonal representations and the bounds they certify.

An orthogonal representation of a graph assigns each vertex a complex
vector with unit-modulus entries so that adjacent vertices get orthogonal
vectors; its dimension upper-bounds the quantum chromatic number, while
the Hoffman-type spectral quantity bounds it from below.  Everything here
is exact: representations store roots of unity by their exponents, inner
products are evaluated in the cyclotomic ring, and the only floats in
sight are clearly-labeled diagnostics.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

from ._record import Record
from .errors import (
    DivisibilityError,
    DomainError,
    Infeasible,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    NotOrthogonal,
    OrderMismatch,
    RangeError,
    SizeExceeded,
    SpecMismatch,
)
from .exactnum import CycInt, binom, entropy_q, multinom, _reduction_rows
from .groups import (
    Composition,
    FiniteField,
    GroupSpec,
    _prime_power,
    _shell_label,
    cyclic,
    index_word,
)
from .krawtchouk import (
    _balanced_shells,
    _read_out,
    _shell_sizes,
    first_root_ratio,
    kraw_column,
)
from .schemes import (
    CompositionGraphSpec,
    HammingGraphSpec,
    _composition_degree,
    _extreme,
    _hoffman_value,
)

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
# LP certificates


class LPSolution(Record):
    """Nonnegative integer weights c_0..c_n on the character shells.

    Feasibility means the weighted Krawtchouk column at the graph
    distance vanishes while the total weight is positive; the objective
    (the weighted sum of shell sizes) is then the dimension of the
    orthogonal representation the solution assembles.
    """

    n: int
    q: int
    d: int
    coefficients: tuple[int, ...]

    def __init__(self, n: int, q: int, d: int, coefficients: Iterable[int]) -> None:
        # a float n, q or d would leak into the objective and the JSON
        index = operator.index
        n, q, d = index(n), index(q), index(d)
        # the domain of kraw_column, which check_lp_solution reads
        if n < 1 or q < 2:
            raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
        if not 0 <= d <= n:
            raise RangeError(f"distance d={d} outside 0..{n}")
        coefficients = tuple(map(index, coefficients))
        if len(coefficients) != n + 1:
            raise DomainError(f"need n+1 = {n + 1} coefficients, got {len(coefficients)}")
        self._set(n, q, d, coefficients)

    @classmethod
    def _trusted(cls, n: int, q: int, d: int, coefficients: tuple[int, ...]) -> LPSolution:
        # Wrap ints and n + 1 int coefficients without re-validating them.
        out = object.__new__(cls)
        out._set(n, q, d, coefficients)
        return out

    @property
    def objective(self) -> int:
        return sum(
            c * (self.q - 1) ** i * binom(self.n, i)
            for i, c in enumerate(self.coefficients)
            if c
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "d": self.d,
            "coefficients": list(self.coefficients),
            "objective": str(self.objective),
        }


def check_lp_solution(solution: LPSolution) -> bool:
    """Re-verify every LP constraint; raises Infeasible naming the violation.

    Zero weights break no constraint and are skipped, which changes no
    verdict, message or witness.
    """
    return _check_solution(solution)


def _check_solution(solution: LPSolution, column: Sequence[int] | None = None) -> bool:
    # Sign, then positivity, then orthogonality against the column K_i(d),
    # i = 0..n, of the solution's own n, q and d, over the nonzero weights.
    # A column not passed in is read only after the weights pass, so a bad
    # weight is refused first.
    coefficients = solution.coefficients
    support = list(itertools.compress(range(len(coefficients)), coefficients))
    weights = list(map(coefficients.__getitem__, support))
    if min(weights, default=0) < 0:
        i = next(i for i in support if coefficients[i] < 0)
        raise Infeasible(
            f"coefficient c_{i} = {coefficients[i]} is negative", witness=("sign", i)
        )
    if sum(weights) <= 0:
        raise Infeasible("total weight is not positive", witness=("positivity",))
    if column is None:
        column = kraw_column(solution.n, solution.q, solution.d)
    acc = sum(map(operator.mul, weights, map(column.__getitem__, support)))
    if acc != 0:
        raise Infeasible(
            f"weighted Krawtchouk column at d={solution.d} sums to {acc}, expected 0",
            witness=("orthogonality", acc),
        )
    return True


def lp_two_support(n: int, q: int, d: int) -> LPSolution:
    """Best two-support feasible solution: c_0 = -K_i(d), c_i = 1.

    Reads the column K_i(d) in one recurrence pass, scans the shells i
    with K_i(d) <= 0 for the smallest objective m_i - K_i(d) (m_i the
    shell size), breaking ties toward the smaller shell index, and builds
    only the winner.  A nonpositive value always exists for d >= 1
    because the Krawtchouk column sums to zero.  The winner is checked
    exactly, as :func:`check_lp_solution` would, before it is returned.
    """
    spec = HammingGraphSpec(n, q, d)
    # the spec's plain ints, so that no numpy int reaches the sizes cache
    # or the trusted solution
    n, q, d = spec.n, spec.q, spec.d
    column = kraw_column(n, q, d)
    _, cheapest, _ = _scan_column(n, q, d, column, _shell_sizes(n, q))
    solution = _two_support(n, q, d, column, cheapest)
    _check_solution(solution, column)
    return solution


def _scan_column(
    n: int, q: int, d: int, column: Sequence[int], sizes: Sequence[int]
) -> tuple[int, int, int]:
    # One pass over the nonpositive K_i(d), i = 1..n: the first of them (the
    # first sign change), the cheapest certificate (least m_i - K_i(d)) and,
    # over the negative ones, the least ratio K_j(d) / m_j, which by
    # reciprocity K_d(j) = m_d K_j(d) / m_j is the least eigenvalue's shell;
    # the first minimiser wins each.  With a = K_j(d).bit_length() (which
    # ignores the sign) and c = m_j.bit_length() the ratio's size lies
    # strictly between 2^(a-c-1) and 2^(a-c+1), so a shell whose a - c is at
    # least 2 below the best's cannot win; the rest cross-multiply exactly.
    first = cheapest = least = 0
    cheapest_cost = least_gap = 0
    for i in range(1, n + 1):
        k = column[i]
        if k > 0:
            continue
        m = sizes[i]
        if not first:
            first = cheapest = i
            cheapest_cost = m - k
        elif m - k < cheapest_cost:
            cheapest, cheapest_cost = i, m - k
        if k:
            gap = k.bit_length() - m.bit_length()
            if not least or (gap + 2 > least_gap and k * sizes[least] < column[least] * m):
                least, least_gap = i, gap
    if not least:
        # sum_j m_j K_d(j) = 0 with K_d(0) = m_d > 0, so this cannot happen
        raise ArithmeticError(f"no negative Krawtchouk value K_j(d) at n={n}, q={q}, d={d}")
    return first, cheapest, least


def _two_support(n: int, q: int, d: int, column: Sequence[int], i: int) -> LPSolution:
    # The certificate c_0 = -K_i(d), c_i = 1 of the shell i that
    # _scan_column picked; it checks nothing.
    coeffs = [0] * (n + 1)
    coeffs[0] = -column[i]
    coeffs[i] = 1
    return LPSolution._trusted(n, q, d, tuple(coeffs))


# ---------------------------------------------------------------------------
# representations


def _exponent_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 2m - 2, the largest sum of two
    exponents reduced mod m: uint8 for m <= 128."""
    import numpy as np

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
    import numpy as np

    cells = [f",{CycInt.root_of_unity(m, e).to_term_string()}" for e in range(m)]
    end = "\n" if newline else ""
    runs = np.empty(m**length, dtype=object)
    runs[:] = ["".join(run) + end for run in itertools.product(cells, repeat=length)]
    return runs


@functools.lru_cache(maxsize=1)
def _limbs() -> np.ndarray:
    """Object array of the 3-digit limbs of CSV vertex numbers: 0..999
    without leading zeros, then zero-padded."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
        import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def _failing_rows(ex: np.ndarray, ey: np.ndarray, m: int) -> np.ndarray:
    """Rows i where exponent rows ex[i], ey[i] in 0..m-1 are not orthogonal:
    ey - ex + m is counted in 2m bins per row, bin j standing for zeta_m^(j % m),
    and the counts are reduced modulo the m-th cyclotomic polynomial.  The
    differences and bin offsets are widened to int64 here, one block at a time."""
    import numpy as np

    rows = len(ey)
    diff = ey.astype(np.int64)
    diff -= ex
    diff += m + 2 * m * np.arange(rows, dtype=np.int64)[:, None]
    counts = np.bincount(diff.ravel(), minlength=2 * m * rows).reshape(rows, 2 * m)
    red = np.array(_reduction_rows(m) * 2, dtype=np.int64)
    return np.nonzero((counts @ red).any(axis=1))[0]


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
    exponent rows, their int64 differences, 2m bins, its int64 indices, and
    the N = n*k intp digits of x and narrow digits of s from which
    :func:`_neighbours` sums x + s.  Beyond the shell's vertex indices,
    sampled mode and a scan past row 0 hold the generators' N x |S| digits.
    A failure raises NotOrthogonal carrying, in full mode, the smallest
    failing x and then the smallest failing x + s, and in sampled mode the
    first failing pair in draw order; a clean pass is True.  ``sample`` is
    read as an int through operator.index; one below 1 would check nothing
    and raises DomainError.
    """
    import numpy as np

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
    # a pair's int64 indices are a draw's two words, x, j and x + s
    pairs = _block_rows(
        (2 * expm.itemsize + 8) * rep.cols + 32 * m + (8 + expm.itemsize) * digits + 40
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


# ---------------------------------------------------------------------------
# reports


class BoundReport(Record):
    """Lower and upper bounds on the quantum chromatic number of one graph.

    Each bound carries a tag naming the method that produced
    it.  ``exact`` is set only when a computed lower bound meets a
    computed upper bound; the report never asserts exactness on the
    strength of outside knowledge.
    """

    graph: HammingGraphSpec | CompositionGraphSpec
    lower: tuple[tuple[Fraction, str], ...]
    upper: tuple[tuple[Fraction, str], ...]
    exact: Fraction | None
    diagnostics: dict

    def __init__(
        self,
        graph: HammingGraphSpec | CompositionGraphSpec,
        lower: tuple[tuple[Fraction, str], ...],
        upper: tuple[tuple[Fraction, str], ...],
        exact: Fraction | None,
        diagnostics: dict,
    ) -> None:
        self._set(graph, lower, upper, exact, diagnostics)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.describe(),
            "lower": [{"value": str(v), "method": tag} for v, tag in self.lower],
            "upper": [{"value": str(v), "method": tag} for v, tag in self.upper],
            "exact": None if self.exact is None else str(self.exact),
            "diagnostics": self.diagnostics,
        }


def _finish_report(
    spec: HammingGraphSpec | CompositionGraphSpec,
    lower: list[tuple[Fraction, str]],
    upper: list[tuple[Fraction, str]],
    diagnostics: dict,
) -> BoundReport:
    exact: Fraction | None = None
    if lower and upper:
        best_lower = max(v for v, _ in lower)
        best_upper = min(v for v, _ in upper)
        if best_lower == best_upper:
            exact = best_lower
    return BoundReport(spec, tuple(lower), tuple(upper), exact, diagnostics)


def bound_report(spec: HammingGraphSpec | CompositionGraphSpec) -> BoundReport:
    """Compute every applicable bound for a graph and reconcile them."""
    if isinstance(spec, HammingGraphSpec):
        return _hamming_report(spec)
    return _composition_report(spec)


def _hamming_report(spec: HammingGraphSpec) -> BoundReport:
    # One Krawtchouk column K_i(d) and one scan of it serve the least
    # eigenvalue, the Hoffman bound, the first sign change and the LP
    # certificate, which is still checked exactly against the column.
    n, q, d = spec.n, spec.q, spec.d
    column = kraw_column(n, q, d)
    sizes = _shell_sizes(n, q)
    first, cheapest, least = _scan_column(n, q, d, column, sizes)
    lam, rem = divmod(sizes[d] * column[least], sizes[least])
    if rem:
        raise ArithmeticError(f"reciprocity is not integral at n={n}, q={q}, d={d}, j={least}")
    lower: list[tuple[Fraction, str]] = [(_hoffman_value(lam, sizes[d]), "hoffman")]
    solution = _two_support(n, q, d, column, cheapest)
    _check_solution(solution, column)
    # the objective sum_i c_i m_i from the sizes at hand, over the two
    # shells where c_i is nonzero
    coeffs = solution.coefficients
    objective = sum(coeffs[i] * sizes[i] for i in itertools.compress(range(n + 1), coeffs))
    upper: list[tuple[Fraction, str]] = [(Fraction(objective), "lp-two-support")]
    diagnostics: dict = {
        "first_nonpositive_shell": first,
        "lp_coefficients": list(coeffs),
    }
    slack = (q - 1) * n - q * d
    if slack <= 0:
        diagnostics["regime"] = "balanced-or-above"
        diagnostics["degree_cap"] = str(q * d)
    elif slack * slack < (q - 1) * n:
        diagnostics["regime"] = "near-balanced-window"
        diagnostics["window_cap"] = str(2 * (q - 1) ** 2 * binom(n, 2))
    else:
        diagnostics["regime"] = "entropy"
        diagnostics["entropy_exponent"] = entropy_q(q, first_root_ratio(q, d / n))
    return _finish_report(spec, lower, upper, diagnostics)


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
    :data:`~scheme_spectra.krawtchouk.BALANCED_MAX_WORK` (SizeExceeded
    above it).  A zero shell cannot attain the minimum, because the
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
