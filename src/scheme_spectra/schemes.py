"""Hamming graphs on words, their exact spectra, and the ordering of
eigenvalues that every spectrum and report shares.

A Hamming graph joins words differing in exactly d coordinates.  It is a
Cayley graph of the additive group, so every weight shell of characters
contributes one eigenvalue, computed here from the Krawtchouk recurrence —
the dense adjacency matrix is never formed except inside the deliberately
independent projector check of :mod:`.oracles`.

Its composition refinement, which joins x to y when y - x has a prescribed
occurrence-count vector, is :mod:`.composition`, and the independent
routes are :mod:`.oracles`, each loaded on first use; the public names of
them that this module held still resolve here, read from there on first
access as the package's ``_HOMES`` table lists them.

The cyclotomic ring, :mod:`.cyclotomic`, is not imported here either.  The
type tests that tell a ``CycInt`` from an int read the class from the loaded
modules, and the ordering of irrational values imports its cosine tables
only when it meets one, so Hamming spectra, extremes and Hoffman bounds
compile none of the ring.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from ._record import Record
from .errors import (
    DivisibilityError,
    DomainError,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    OrderMismatch,
    RangeError,
)
from .exactnum import binom
from .krawtchouk import _shell_sizes, kraw  # kraw: no longer called here, still importable

if TYPE_CHECKING:
    from .composition import CompositionGraphSpec
    from .cyclotomic import CycInt
    from .groups import Composition


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


def _cyclotomic_type() -> type | tuple:
    # CycInt once its module is loaded, else the empty tuple, which isinstance
    # matches with nothing: no CycInt can exist before its module is loaded,
    # so a type test reads the same without loading it
    module = sys.modules.get(__package__ + ".cyclotomic")
    return () if module is None else module.CycInt


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
        ring = _cyclotomic_type()
        return {
            "graph": None if self.graph is None else self.graph.describe(),
            "entries": [
                {
                    "shell": label if isinstance(label := e.label, int) else list(label.counts),
                    "eigenvalue": (
                        {"coeffs": list(value._coeffs), "order": value._order}
                        if isinstance(value := e.eigenvalue, ring)
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
    :func:`cyclotomic._cos_table` at B bits, where |T_k - 2**B cos(2 pi k/m)|
    < 2 and T_0 = 2**B exactly, so an int v has the key v 2**B.  With
    ||v|| = sum_k |c_k|, S(v) lies within 2||v|| of 2**B v, since a real v
    is sum_k c_k cos(2 pi k/m).

    One B decides every pair.  A nonzero alpha in Z[zeta_m] has a norm, the
    product of its deg Galois conjugates, that is a nonzero integer, and each
    conjugate has modulus at most ||alpha||; so |alpha| >= ||alpha||**-(deg-1).
    With B >= deg bitlen(L) + 2 and ||alpha|| <= L, 2**B > 4 L**deg, hence
    2**B |alpha| > 4||alpha|| and |S(alpha)| > 2||alpha||, with the sign of
    alpha.  The key is linear, S(a) - S(b) = S(a - b), and ||a - b|| is at
    most 2 max ||v||, so L = 2 max ||v|| (:func:`cyclotomic._sign_bits`) makes
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
    ring = _cyclotomic_type()
    cyclotomic = [v for v in values if isinstance(v, ring)]
    if not cyclotomic:
        return values.index(pick(values))
    from .cyclotomic import _cos_table, _sign_bits

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
    if isinstance(lam_min, _cyclotomic_type()):
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
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if ((q - 1) * n) % q:
        raise DivisibilityError(f"needs q | (q-1)n, got q={q}, n={n}")
    d = (q - 1) * n // q
    num = (q - 1) ** 3 * binom(n, 3) * (q - 1) ** d * binom(n, d)
    den = q**n * (q - 1) ** 2 * (n - 1) ** 2
    return Fraction(num, den)
