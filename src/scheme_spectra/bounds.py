"""LP certificates, bound reports and the balanced-minimum probe.

The quantum chromatic number of a graph is bounded from below by the
Hoffman-type spectral quantity of its least eigenvalue, and from above by
the dimension of an orthogonal representation.  Here the upper bounds come
as LP certificates: nonnegative weights on the character shells whose
weighted Krawtchouk column vanishes at the graph distance, checked
exactly.  :mod:`.representation` assembles and verifies the representation
a certificate prescribes; it is loaded only when one of its names is first
read, here or from the package.  Everything here is exact: the only floats
in sight are clearly-labeled diagnostics.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .errors import (
    DivisibilityError,
    DomainError,
    Infeasible,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    RangeError,
)
from .exactnum import binom, entropy_q, multinom
from .groups import Composition, FiniteField, _prime_power, cyclic
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

# The public names of the representation layer, read through this module on
# first access (PEP 562) so that importing it does not compile that layer.
# Its caps and private helpers are not forwarded: a patch here would change
# nothing that the layer reads.
_REPRESENTATION_NAMES = frozenset({
    "Representation",
    "build_representation",
    "hadamard_representation",
    "representation_seed",
    "verify_representation",
})


def __getattr__(name: str):
    if name not in _REPRESENTATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import representation

    return getattr(representation, name)


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
