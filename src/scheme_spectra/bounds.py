"""LP certificates and bound reports.

The quantum chromatic number of a graph is bounded from below by the
Hoffman-type spectral quantity of its least eigenvalue, and from above by
the dimension of an orthogonal representation.  Here the upper bounds come
as LP certificates: nonnegative weights on the character shells whose
weighted Krawtchouk column vanishes at the graph distance, checked
exactly.  :mod:`.representation` assembles and verifies the representation
a certificate prescribes, and :mod:`.composition` holds the report of a
composition graph and the balanced-minimum probe; each is loaded only when
one of its names is first read, here or from the package, as the package's
``_HOMES`` table lists them, and :func:`bound_report` imports the
composition report only for a graph that is not a Hamming graph.
Everything here is exact: the only floats in sight are clearly-labeled
diagnostics.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import Record
from .errors import DomainError, Infeasible, RangeError
from .exactnum import binom, entropy_q
from .krawtchouk import _shell_sizes, first_root_ratio, kraw_column
from .schemes import HammingGraphSpec, _hoffman_value

if TYPE_CHECKING:
    from .composition import CompositionGraphSpec


def __getattr__(name: str):
    from . import _resolve

    return _resolve(__name__, name)


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
    from .composition import _composition_report

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
