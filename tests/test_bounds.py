"""Chromatic-bound machinery: LP certificates, representations, reports, probe."""

import io
import itertools
import json
import math
import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from scheme_spectra import (
    BoundReport,
    Composition,
    CompositionGraphSpec,
    CycInt,
    CyclicGroup,
    DivisibilityError,
    DomainError,
    FiniteField,
    HammingGraphSpec,
    Infeasible,
    IrrationalEigenvalue,
    LPSolution,
    NoNegativeEigenvalue,
    NotOrthogonal,
    OrderMismatch,
    ProbeVerdict,
    RangeError,
    Representation,
    SizeExceeded,
    SpecMismatch,
    Spectrum,
    SpectrumEntry,
    binom,
    bound_report,
    build_representation,
    check_lp_solution,
    composition_spectrum,
    conjecture_probe,
    cyclic,
    entropy_q,
    enumerate_compositions,
    enumerate_shell,
    finite_field,
    first_nonpositive,
    first_root_ratio,
    hadamard_representation,
    hamming_spectrum,
    hoffman_bound,
    index_word,
    kraw,
    lp_two_support,
    min_eigenvalue,
    representation_seed,
    verify_representation,
    word_add,
    word_index,
)
from scheme_spectra import bounds, krawtchouk, representation, schemes


def _splitmix_stream(seed):
    # the splitmix64 stream one draw at a time: the oracle for the sampled draws
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        yield representation._mix64(state)
        state = (state + 0x9E3779B97F4A7C15) & mask


# ---------------------------------------------------------------------------
# LP certificates


def test_two_support_frozen_solutions():
    sol = lp_two_support(4, 2, 2)
    assert sol.coefficients == (0, 1, 0, 0, 0)
    assert sol.objective == 4
    sol = lp_two_support(5, 2, 2)
    assert sol.coefficients == (2, 0, 1, 0, 0, 0)  # tie with i=3 broken downward
    assert sol.objective == 12
    sol = lp_two_support(3, 3, 3)
    assert sol.coefficients == (3, 1, 0, 0)
    assert sol.objective == 9
    sol = lp_two_support(6, 2, 4)
    assert sol.coefficients == (2, 1, 0, 0, 0, 0, 0)
    assert sol.objective == 8


def test_two_support_is_optimal_on_small_supports():
    # oracle: every certificate with at most two shells in 1..n, weights 1..4,
    # and c_0 solved from the vanishing constraint, priced from closed forms
    for q in (2, 3, 4):
        for n in range(1, 9):
            sizes = [(q - 1) ** i * binom(n, i) for i in range(n + 1)]
            for d in range(1, n + 1):
                column = [kraw(n, q, i, d) for i in range(n + 1)]
                best = None
                for size in (1, 2):
                    for support in itertools.combinations(range(1, n + 1), size):
                        for weights in itertools.product(range(1, 5), repeat=size):
                            pairs = list(zip(support, weights))
                            c0 = -sum(w * column[i] for i, w in pairs)
                            if c0 < 0:
                                continue
                            obj = c0 + sum(w * sizes[i] for i, w in pairs)
                            best = obj if best is None else min(best, obj)
                assert best == lp_two_support(n, q, d).objective, (n, q, d)


def test_two_support_solutions_check_out_on_a_grid():
    for q in (2, 3, 4):
        for n in range(1, 8):
            for d in range(1, n + 1):
                sol = lp_two_support(n, q, d)
                check_lp_solution(sol)
                assert sol.objective == sum(
                    c * (q - 1) ** i * binom(n, i) for i, c in enumerate(sol.coefficients)
                )


def test_two_support_matches_a_closed_form_scan():
    # the per-shell scan the column replaced: price every candidate from
    # closed-form values and keep the first cheapest
    for q in range(2, 7):
        for n in range(1, 21):
            sizes = [(q - 1) ** i * binom(n, i) for i in range(n + 1)]
            for d in range(1, n + 1):
                best = None
                for i in range(1, n + 1):
                    k = kraw(n, q, i, d)
                    if k <= 0 and (best is None or sizes[i] - k < best[0]):
                        best = (sizes[i] - k, i, k)
                expected = [0] * (n + 1)
                expected[0], expected[best[1]] = -best[2], 1
                sol = lp_two_support(n, q, d)
                assert sol.coefficients == tuple(expected), (n, q, d)
                assert sol.objective == best[0]


def test_check_reports_the_closed_form_weighted_sum():
    rng = random.Random(41)
    for _ in range(300):
        q, n = rng.randint(2, 6), rng.randint(1, 30)
        d = rng.randint(0, n)
        coeffs = [rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(n + 1)]
        coeffs[0] += 1
        acc = sum(c * kraw(n, q, i, d) for i, c in enumerate(coeffs))
        sol = LPSolution(n, q, d, tuple(coeffs))
        if acc == 0:
            assert check_lp_solution(sol)
        else:
            with pytest.raises(Infeasible) as err:
                check_lp_solution(sol)
            assert err.value.witness == ("orthogonality", acc)


def test_lp_errors_keep_their_types():
    ones = (1, 0, 0, 0, 0)
    for d in (5, -1):
        with pytest.raises(RangeError):
            check_lp_solution(LPSolution(4, 2, d, ones))
    with pytest.raises(DomainError):
        check_lp_solution(LPSolution(4, 1, 2, ones))
    with pytest.raises(DomainError):
        check_lp_solution(LPSolution(0, 2, 0, (1,)))
    for d in (0, 5):
        with pytest.raises(RangeError):
            lp_two_support(4, 2, d)
    with pytest.raises(DomainError):
        lp_two_support(4, 1, 2)


def test_lp_solution_refuses_graphs_its_check_cannot_read():
    # the domain of kraw_column: n >= 1, q >= 2 and d in 0..n, refused at
    # construction rather than by the later check
    with pytest.raises(DomainError, match=r"^need n >= 1 and q >= 2, got n=2, q=1$"):
        LPSolution(2, 1, 1, (1, 1, 1))
    with pytest.raises(DomainError, match=r"^need n >= 1 and q >= 2, got n=-1, q=2$"):
        LPSolution(-1, 2, 1, ())
    with pytest.raises(RangeError, match=r"^distance d=5 outside 0..2$"):
        LPSolution(2, 2, 5, (0, 0, 1))
    assert LPSolution(2, 2, 0, (1, 0, 0)).d == 0


def test_check_rejects_negative_coefficient():
    sol = LPSolution(4, 2, 2, (1, -1, 1, 0, 0))
    with pytest.raises(Infeasible) as err:
        check_lp_solution(sol)
    assert err.value.witness == ("sign", 1)


def test_check_rejects_zero_vector():
    with pytest.raises(Infeasible) as err:
        check_lp_solution(LPSolution(4, 2, 2, (0, 0, 0, 0, 0)))
    assert err.value.witness == ("positivity",)


def test_check_rejects_broken_orthogonality():
    # bump one coefficient of a valid certificate
    good = lp_two_support(4, 2, 2)
    bad = LPSolution(4, 2, 2, (good.coefficients[0] + 1,) + good.coefficients[1:])
    with pytest.raises(Infeasible) as err:
        check_lp_solution(bad)
    assert err.value.witness[0] == "orthogonality"
    assert err.value.witness[1] != 0


def _full_length_check(solution, column):
    # check_lp_solution's three checks over all n + 1 weights, zeros
    # included: the reference for the checks on the support
    coefficients = solution.coefficients
    if min(coefficients, default=0) < 0:
        i = next(i for i, c in enumerate(coefficients) if c < 0)
        raise Infeasible(
            f"coefficient c_{i} = {coefficients[i]} is negative", witness=("sign", i)
        )
    if sum(coefficients) <= 0:
        raise Infeasible("total weight is not positive", witness=("positivity",))
    acc = sum(map(operator.mul, coefficients, column))
    if acc != 0:
        raise Infeasible(
            f"weighted Krawtchouk column at d={solution.d} sums to {acc}, expected 0",
            witness=("orthogonality", acc),
        )
    return True


def _lp_verdict(check, *args):
    try:
        return check(*args)
    except Infeasible as exc:
        return type(exc), str(exc), exc.witness


def _weight_vectors(rng, n, q, d):
    size = n + 1
    certificate = list(lp_two_support(n, q, d).coefficients)
    yield certificate
    for delta in (-1, 1):
        yield [certificate[0] + delta] + certificate[1:]
        off = certificate[:]
        off[off.index(1, 1)] += delta
        yield off
    yield [0] * size
    for _ in range(6):
        yield [rng.randint(-3, 6) for _ in range(size)]  # dense
        yield [rng.randint(0, 6) for _ in range(size)]
        sparse = [0] * size
        for i in rng.sample(range(size), min(size, 3)):
            sparse[i] = rng.randint(-2, 4)
        yield sparse
        big = [0] * size
        for i in rng.sample(range(size), min(size, 4)):
            big[i] = rng.choice((1, -1)) * rng.getrandbits(300)
        yield big
        yield [abs(c) for c in big]
    for i in (0, size // 2, size - 1):
        negative = certificate[:]
        negative[i] = -rng.randint(1, 5)
        yield negative
        dense = [rng.randint(1, 9) for _ in range(size)]
        dense[i] = -1
        yield dense


def test_checks_on_the_support_match_the_full_length_check():
    rng = random.Random(20251020)
    for n, q, d in ((1, 2, 1), (4, 2, 2), (6, 3, 4), (12, 5, 7), (40, 3, 13), (150, 4, 60)):
        column = krawtchouk.kraw_column(n, q, d)
        kinds = set()
        for weights in _weight_vectors(rng, n, q, d):
            solution = LPSolution(n, q, d, weights)
            want = _lp_verdict(_full_length_check, solution, column)
            assert _lp_verdict(check_lp_solution, solution) == want, (n, q, d, weights)
            assert _lp_verdict(bounds._check_solution, solution, column) == want, (n, q, d, weights)
            kinds.add(want if want is True else want[2][0])
        assert kinds == {True, "sign", "positivity", "orthogonality"}, (n, q, d)


def test_lp_two_support_is_the_validated_solution():
    # the solution built without re-validation equals the one the public
    # constructor validates, field by field and in its JSON
    for q in (2, 3, 5):
        for n in (1, 2, 7, 40, 299):
            for d in range(1, n + 1):
                sol = lp_two_support(n, q, d)
                checked = LPSolution(sol.n, sol.q, sol.d, sol.coefficients)
                assert sol == checked, (n, q, d)
                assert json.dumps(sol.to_json()) == json.dumps(checked.to_json()), (n, q, d)
    sol = lp_two_support(np.int64(4), np.int8(2), np.uint8(2))
    assert sol == lp_two_support(4, 2, 2)
    assert all(type(v) is int for v in (sol.n, sol.q, sol.d, *sol.coefficients))
    # numpy ints must not reach the shell sizes: int64 sizes wrapped, which
    # picked the objective 1832624140942590534 for H(64,2,1) (the optimum is
    # 2) and raised OverflowError for H(300,3,150)
    for n, q, d in ((64, 2, 1), (300, 3, 150)):
        assert lp_two_support(np.int64(n), q, d) == lp_two_support(n, q, d)


def test_reports_spectra_and_lp_share_the_sizes_of_one_pair():
    krawtchouk._shell_sizes.cache_clear()
    for d in (1, 20, 40):
        bound_report(HammingGraphSpec(40, 3, d))
        lp_two_support(40, 3, d)
        hamming_spectrum(HammingGraphSpec(40, 3, d))
    assert krawtchouk._shell_sizes.cache_info().misses == 1


def test_lp_solution_json():
    assert lp_two_support(4, 2, 2).to_json() == {
        "n": 4,
        "q": 2,
        "d": 2,
        "coefficients": [0, 1, 0, 0, 0],
        "objective": "4",
    }


def test_lp_solution_length_validation():
    with pytest.raises(DomainError):
        LPSolution(4, 2, 2, (1, 1))


def test_lp_solution_takes_only_integral_coefficients():
    # truncating 0.9 to 0 would turn an infeasible certificate into a feasible one
    for bad in (0.9, 1.0, Fraction(1)):
        with pytest.raises(TypeError):
            LPSolution(4, 2, 2, (bad, 1, 0, 0, 0))
    sol = LPSolution(4, 2, 2, (False, np.int64(1), True, 0, np.uint8(0)))
    assert sol.coefficients == (0, 1, 1, 0, 0)
    assert all(type(c) is int for c in sol.coefficients)


def test_lp_solution_takes_only_integral_parameters():
    # a float q gave "q": 2.0 and "objective": "4.0" in the JSON
    for args in ((4.0, 2, 2), (4, 2.0, 2), (4, 2, 2.0), (4, 2, Fraction(2))):
        with pytest.raises(TypeError):
            LPSolution(*args, (0, 1, 0, 0, 0))
    sol = LPSolution(np.int64(4), np.int8(2), np.uint8(2), (0, 1, 0, 0, 0))
    assert sol.to_json() == LPSolution(4, 2, 2, (0, 1, 0, 0, 0)).to_json()
    assert all(type(v) is int for v in (sol.n, sol.q, sol.d))


# ---------------------------------------------------------------------------
# representations


def test_lp_representation_shape_and_entries():
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    assert (rep.rows, rep.cols) == (16, 4)
    assert rep.root_order == 2
    seen = {rep.entry(x, c).as_integer() for x in range(16) for c in range(4)}
    assert seen == {1, -1}
    assert verify_representation(rep, HammingGraphSpec(4, 2, 2)) is True


def test_lp_representation_block_structure():
    rep = build_representation(lp_two_support(3, 3, 3), cyclic(3))
    assert (rep.rows, rep.cols) == (27, 9)
    assert rep.root_order == 3
    # c0 = 3 all-ones columns, then one column per weight-1 word (6 of them)
    for c in range(3):
        assert all(rep.entry(x, c) == 1 for x in range(27))
    assert verify_representation(rep, HammingGraphSpec(3, 3, 3)) is True


def test_representation_verifies_on_a_small_grid():
    for n, q, d in ((2, 2, 1), (3, 2, 2), (4, 2, 3), (3, 3, 2), (2, 4, 2)):
        rep = build_representation(lp_two_support(n, q, d), cyclic(q))
        assert verify_representation(rep, HammingGraphSpec(n, q, d)) is True


def test_representation_group_order_must_match():
    with pytest.raises(SpecMismatch):
        build_representation(lp_two_support(4, 2, 2), cyclic(3))


def test_negated_entry_is_caught_with_a_witness():
    spec = HammingGraphSpec(4, 2, 2)
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    bad = rep.with_entry(0, 0, CycInt.from_int(2, -1))
    with pytest.raises(NotOrthogonal) as err:
        verify_representation(bad, spec)
    assert err.value.row_x == 0
    assert err.value.row_y == 3  # smallest distance-2 partner of the zero word
    assert err.value.word_x == (0, 0, 0, 0)
    assert err.value.word_y == (0, 0, 1, 1)


def test_with_entry_refuses_a_value_that_is_not_a_power_of_zeta():
    # an entry is an exponent, so a value of modulus other than one, or a
    # unit that is not an m-th root of unity (-1 at odd m), has no place
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    with pytest.raises(DomainError, match=r"^entry 3 is not a power of zeta_2$"):
        rep.with_entry(1, 1, CycInt.from_int(2, 3))
    odd = build_representation(lp_two_support(3, 3, 2), cyclic(3))
    with pytest.raises(DomainError, match=r"^entry -1\+0\*z is not a power of zeta_3$"):
        odd.with_entry(1, 1, CycInt.from_int(3, -1))
    # every power of zeta is taken, and lands as its exponent
    for k in range(-3, 4):
        changed = odd.with_entry(1, 1, CycInt.root_of_unity(3, k))
        assert changed.exponents[1, 1] == k % 3
        assert changed.entry(1, 1) == CycInt.root_of_unity(3, k)


def test_with_entry_does_not_mutate_the_original():
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    changed = rep.with_entry(0, 0, CycInt.from_int(2, -1))
    assert rep.entry(0, 0) == 1
    assert rep.to_csv_text().splitlines()[2].split(",")[1] == "1"
    assert changed.to_csv_text().splitlines()[2].split(",")[1] == "-1"
    with pytest.raises(DomainError):
        rep.with_entry(99, 0, CycInt.from_int(2, 1))


def test_with_entry_rejects_another_root_order():
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    before = rep.exponents.copy()
    for value in (CycInt.root_of_unity(4, 1), CycInt.from_int(3, 1)):
        with pytest.raises(OrderMismatch):
            rep.with_entry(0, 0, value)
    assert np.array_equal(rep.exponents, before)


def test_entry_and_with_entry_share_the_bounds_check():
    rep = build_representation(lp_two_support(4, 2, 2), cyclic(2))
    assert (rep.rows, rep.cols) == (16, 4)
    assert rep.entry(15, 3) == CycInt.root_of_unity(2, int(rep.exponents[15, 3]))
    one = CycInt.from_int(2, 1)
    for row, col in ((-1, 0), (16, 0), (0, -1), (0, 4)):
        message = f"^entry \\({row}, {col}\\) outside the matrix$"
        with pytest.raises(DomainError, match=message):
            rep.entry(row, col)
        with pytest.raises(DomainError, match=message):
            rep.with_entry(row, col, one)


def _oracle_orthogonal(rep, x, y):
    # the inner product summed entry by entry in the cyclotomic ring
    total = CycInt.from_int(rep.root_order, 0)
    for c in range(rep.cols):
        total = total + rep.entry(x, c).conjugate() * rep.entry(y, c)
    return total == 0


def _verdict(rep, spec, sample=None):
    try:
        return verify_representation(rep, spec, sample=sample)
    except NotOrthogonal as exc:
        return (exc.row_x, exc.row_y, exc.word_x, exc.word_y)


def _differential_cases():
    rng = random.Random(20261018)
    reps = [
        (build_representation(lp_two_support(n, q, d), group), HammingGraphSpec(n, q, d))
        for n, q, d, group in (
            (4, 2, 2, cyclic(2)),
            (3, 3, 2, cyclic(3)),
            (2, 4, 2, cyclic(4)),
            (2, 4, 2, finite_field(4)),
            (2, 5, 2, cyclic(5)),
            (3, 3, 3, cyclic(3)),
        )
    ]
    spec = CompositionGraphSpec(cyclic(3), 3, Composition.balanced(3, 3))
    reps.append((hadamard_representation(cyclic(3), 3), spec))
    # Row 1 of H(2,3,2) has only larger neighbours, met in generator order as
    # rows 5, 3, 8, 6, and entry (1, 0) times zeta fails all four: the witness
    # is not the first failure found for x = 1.
    rep = build_representation(lp_two_support(2, 3, 2), cyclic(3))
    yield rep.with_entry(1, 0, CycInt.root_of_unity(3, 1)), HammingGraphSpec(2, 3, 2)
    for rep, spec in reps:
        m = rep.root_order
        yield rep, spec
        for _ in range(4):
            mutated = rep
            for _ in range(rng.randint(1, 3)):
                value = CycInt.root_of_unity(m, rng.randrange(m))
                row, col = rng.randrange(rep.rows), rng.randrange(rep.cols)
                mutated = mutated.with_entry(row, col, value)
            yield mutated, spec


def _generators(spec, group):
    label = spec.d if isinstance(spec, HammingGraphSpec) else spec.dcomp
    return list(enumerate_shell(group, spec.n, label))


def _plus(group, n, x, s):
    return word_index(group, word_add(group, index_word(group, x, n), s))


def _smallest_failing_pair(rep, spec):
    group = rep.group
    members = _generators(spec, group)
    failing = [
        (x, y)
        for x in range(rep.rows)
        for y in (_plus(group, spec.n, x, s) for s in members)
        if not _oracle_orthogonal(rep, x, y)
    ]
    if not failing:
        return True
    x, y = min(failing)
    return (x, y, index_word(group, x, spec.n), index_word(group, y, spec.n))


def test_full_verification_reports_the_smallest_failing_pair():
    for rep, spec in _differential_cases():
        assert _verdict(rep, spec) == _smallest_failing_pair(rep, spec)


@pytest.mark.parametrize("block_bytes", [1, 200, 5000])
def test_full_verification_keeps_its_witness_in_small_blocks(monkeypatch, block_bytes):
    # 1 byte checks one pair per kernel call, so the scan splits each row's
    # generators; 200 and 5000 bytes cap the growing row blocks early and
    # move the block boundaries
    monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    for rep, spec in _differential_cases():
        assert _verdict(rep, spec) == _smallest_failing_pair(rep, spec)


def test_sampled_verification_reports_the_first_failing_draw():
    late_failures = 0
    for rep, spec in _differential_cases():
        group = rep.group
        members = _generators(spec, group)
        for sample in (7, 3 * rep.rows + 1):
            stream = _splitmix_stream(representation_seed(spec))
            expected = True
            for draw in range(sample):
                x = next(stream) % rep.rows
                s = members[next(stream) % len(members)]
                y = _plus(group, spec.n, x, s)
                if not _oracle_orthogonal(rep, x, y):
                    expected = (x, y, index_word(group, x, spec.n), index_word(group, y, spec.n))
                    late_failures += draw >= rep.rows
                    break
            assert _verdict(rep, spec, sample) == expected
    assert late_failures  # some first failures lie beyond the first rep.rows draws


@pytest.mark.parametrize("block_bytes", [1, 200, 5000])
def test_sampled_verification_keeps_its_first_failing_draw_in_small_blocks(
    monkeypatch, block_bytes
):
    # 1 byte checks one draw per kernel call; 200 and 5000 bytes put the
    # block edges between other draws
    monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    test_sampled_verification_reports_the_first_failing_draw()


def test_sampled_verification_is_deterministic():
    spec = HammingGraphSpec(5, 2, 2)
    rep = build_representation(lp_two_support(5, 2, 2), cyclic(2))
    assert verify_representation(rep, spec, sample=64) is True
    assert verify_representation(rep, spec, sample=64) is True
    assert representation_seed(spec) == representation_seed(HammingGraphSpec(5, 2, 2))
    assert representation_seed(spec) != representation_seed(HammingGraphSpec(5, 2, 3))


def test_a_sample_below_one_is_rejected_before_any_check():
    # an empty sample would pass a broken representation having checked nothing
    spec = HammingGraphSpec(4, 2, 2)
    broken = build_representation(lp_two_support(4, 2, 2), cyclic(2)).with_entry(
        0, 0, CycInt.from_int(2, -1)
    )
    with pytest.raises(NotOrthogonal):
        verify_representation(broken, spec)
    for sample in (0, -3):
        with pytest.raises(DomainError, match=f"need sample >= 1, got {sample}"):
            verify_representation(broken, spec, sample=sample)
    # the guard comes first: a mismatched spec is not looked at
    with pytest.raises(DomainError):
        verify_representation(broken, HammingGraphSpec(5, 2, 2), sample=0)


def test_seed_is_frozen():
    assert representation_seed(HammingGraphSpec(4, 2, 2)) == 15132536781063983816


def test_hadamard_representations_verify():
    for group, n in ((cyclic(2), 2), (cyclic(2), 4), (finite_field(3), 3)):
        rep = hadamard_representation(group, n)
        assert rep.cols == n
        spec = CompositionGraphSpec(group, n, Composition.balanced(group.order, n))
        assert verify_representation(rep, spec) is True


def test_verification_does_not_depend_on_the_exponent_dtype():
    group, n = cyclic(3), 6
    rep = hadamard_representation(group, n)
    spec = CompositionGraphSpec(group, n, Composition.balanced(3, n))
    for dtype in (np.int8, np.uint8, np.int16):
        narrow = Representation(group, n, rep.exponents.astype(dtype), rep.provenance)
        assert verify_representation(narrow, spec) is True
        assert verify_representation(narrow, spec, sample=100) is True
    # a column-major copy is held, and verified, as a C-ordered one
    fortran = Representation(group, n, np.asfortranarray(rep.exponents), rep.provenance)
    assert fortran.exponents.flags.c_contiguous
    assert verify_representation(fortran, spec) is True
    assert verify_representation(fortran, spec, sample=100) is True
    zeta = CycInt.root_of_unity(3, 1)
    flipped = fortran.with_entry(5, 2, fortran.entry(5, 2) * zeta)
    assert flipped.exponents.flags.c_contiguous
    assert _verdict(flipped, spec) == _verdict(rep.with_entry(5, 2, rep.entry(5, 2) * zeta), spec)


# -- the translation-invariant fast path -------------------------------------
#
# A character-built matrix passes the additivity check, and full verification
# then makes one kernel call, row 0 against the rows of all generators; any
# other matrix is scanned in row blocks that grow from one row, each block
# against every generator in one kernel call.


def _characters_by_cell(group, n, words):
    # column j is the character of words[j]: exponent sum over the coordinates
    m = group.char_order
    return np.array(
        [
            [sum(group.char_exponent(a, b) for a, b in zip(index_word(group, x, n), y)) % m
             for y in words]
            for x in range(group.order**n)
        ],
        dtype=np.int64,
    )


def test_character_matrix_matches_the_per_cell_oracle():
    # columns are vertex indices, with repeats, index 0 and index q^n - 1,
    # from n = 0 and over fields of k >= 2 digits a letter, m = 2, 3 and 5
    rng = random.Random(271828)
    groups = [cyclic(q) for q in range(2, 7)] + [finite_field(q) for q in (4, 8, 9, 16, 25, 27)]
    cases = 0
    for group in groups:
        q = group.order
        for n in range(6):
            if q**n > 5000:
                break
            for _ in range(2):
                words = [tuple(rng.randrange(q) for _ in range(n))
                         for _ in range(rng.randint(1, 4))]
                words += [(0,) * n, (q - 1,) * n] + rng.sample(words, min(2, len(words)))
                rng.shuffle(words)
                columns = [word_index(group, y) for y in words]
                got = representation._character_matrix(group, n, iter(columns))
                assert got.dtype == np.uint8 and got.flags.c_contiguous
                assert np.array_equal(got, _characters_by_cell(group, n, words))
                cases += 1
    assert cases >= 100
    assert representation._character_matrix(cyclic(3), 2, []).shape == (9, 0)


def test_builders_return_c_ordered_narrow_unsigned():
    # exponents below the root order m, in the narrowest unsigned dtype that
    # holds 2m - 2: one byte up to m = 128, two bytes from m = 129
    reps = [build_representation(lp_two_support(n, q, d), group)
            for n, q, d, group in ((4, 2, 2, cyclic(2)), (3, 3, 3, cyclic(3)),
                                   (3, 4, 2, finite_field(4)), (2, 5, 1, cyclic(5)))]
    reps += [hadamard_representation(group, n)
             for group, n in ((cyclic(2), 6), (cyclic(3), 3), (finite_field(4), 4))]
    for rep in reps:
        assert rep.exponents.dtype == np.uint8
        assert rep.exponents.flags.c_contiguous
    for q in (128, 129):
        rep = build_representation(lp_two_support(1, q, 1), cyclic(q))
        assert rep.exponents.dtype == (np.uint8 if q == 128 else np.uint16)
        assert rep.exponents.flags.c_contiguous
        assert rep.exponents.max() == q - 1
        assert verify_representation(rep, HammingGraphSpec(1, q, 1)) is True


def test_the_row_cap_fires_before_any_word_is_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a shell was enumerated")

    monkeypatch.setattr(representation, "_shell_indices", refuse)
    message = "representation would have 2097152 rows; cap is 1048576"
    with pytest.raises(SizeExceeded, match=f"^{message}$"):
        build_representation(lp_two_support(21, 2, 11), cyclic(2))
    with pytest.raises(SizeExceeded, match=f"^{message}$"):
        representation._character_matrix(cyclic(2), 21, (refuse() for _ in range(1)))
    with pytest.raises(SizeExceeded, match="^representation would have 4194304 rows"):
        hadamard_representation(cyclic(2), 22)


def test_the_cell_cap_fires_once_the_words_are_listed(monkeypatch):
    # H(4, 2, 2) and the Hadamard representation of Z_2, n = 4, are 16 x 4
    monkeypatch.setattr(representation, "REPRESENTATION_MAX_CELLS", 64)
    assert build_representation(lp_two_support(4, 2, 2), cyclic(2)).exponents.size == 64
    assert hadamard_representation(cyclic(2), 4).exponents.size == 64
    monkeypatch.setattr(representation, "REPRESENTATION_MAX_CELLS", 63)
    message = "^representation would have 16 x 4 = 64 cells; cap is 63$"
    with pytest.raises(SizeExceeded, match=message):
        build_representation(lp_two_support(4, 2, 2), cyclic(2))
    with pytest.raises(SizeExceeded, match=message):
        hadamard_representation(cyclic(2), 4)
    with pytest.raises(SizeExceeded, match=message):
        representation._character_matrix(cyclic(2), 4, iter([word_index(cyclic(2), (0, 0, 0, 1))] * 4))


def _invariant_oracle(expm, group, n):
    """The definition, pair by pair: expm[x + g*e_k] - expm[x] equals
    expm[g*e_k] - expm[0] (mod m) for every row x, coordinate k and g."""
    order = group.char_order
    rows = expm.tolist()
    for k in range(n):
        for g in range(1, group.order):
            unit = (0,) * k + (g,) + (0,) * (n - 1 - k)
            step = [(b - a) % order for a, b in zip(rows[0], rows[word_index(group, unit)])]
            for x in range(len(rows)):
                y = _plus(group, n, x, unit)
                if [(b - a) % order for a, b in zip(rows[x], rows[y])] != step:
                    return False
    return True


def _invariance_cases():
    """(kind, exponents, group, n) over Z_2..Z_6 and GF(4, 8, 9): character
    matrices, constant row offsets, point mutations and sums of
    per-coordinate blocks that are not characters, each also with a negated
    column and with a negated row."""
    rng = random.Random(161803)
    cells = [(cyclic(q), n) for q in range(2, 7) for n in (1, 2, 3) if q**n <= 125]
    cells += [(cyclic(2), 5), (finite_field(4), 2), (finite_field(4), 3),
              (finite_field(8), 2), (finite_field(9), 2)]
    for group, n in cells:
        q, m = group.order, group.char_order
        for _ in range(3):
            cols = rng.randint(1, 4)
            words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(cols)]
            chars = representation._character_matrix(group, n, [word_index(group, y) for y in words])
            offset = (chars + np.array([rng.randrange(m) for _ in range(cols)])) % m
            mutated = offset.copy()
            mutated[rng.randrange(q**n), rng.randrange(cols)] += rng.randrange(1, m)
            blocks = [rng.choices(range(m), k=q * cols) for _ in range(n)]
            blocked = representation._additive_matrix(
                (np.array(b, dtype=np.uint8).reshape(q, cols) for b in blocks), cols, m
            )
            kinds = {"chars": chars, "offset": offset, "mutated": mutated % m, "blocked": blocked % m}
            for kind, expm in kinds.items():
                yield kind, expm, group, n
                # a negated column keeps the invariance, and a negated row
                # (generically, for m > 2) breaks it
                negated = expm.astype(np.int64)
                negated[:, 0] *= -1
                yield kind, negated % m, group, n
                negated = expm.astype(np.int64)
                negated[rng.randrange(q**n)] *= -1
                yield kind, negated % m, group, n


def test_translation_invariance_agrees_with_its_definition():
    verdicts = {}
    for kind, expm, group, n in _invariance_cases():
        expected = _invariant_oracle(expm, group, n)
        assert representation._translation_invariant(expm, group, n) is expected
        verdicts[kind, expected] = verdicts.get((kind, expected), 0) + 1
    assert verdicts["chars", True] >= 100 and verdicts["offset", True] >= 100
    assert verdicts["mutated", False] >= 50 and verdicts["blocked", False] >= 50


def _pair_oracle(rep, spec):
    """Full verification pair by pair: the smallest failing x, then the
    smallest failing x + s, each inner product summed in the cyclotomic ring
    (cached by the multiset of exponent differences)."""
    group, n, m = rep.group, spec.n, rep.root_order
    members = _generators(spec, group)
    rows = rep.exponents.tolist()
    zero = CycInt.from_int(m, 0)
    values = {}
    for x in range(rep.rows):
        for y in sorted(_plus(group, n, x, s) for s in members):
            key = tuple(sorted((b - a) % m for a, b in zip(rows[x], rows[y])))
            if key not in values:
                values[key] = sum((CycInt.root_of_unity(m, k) for k in key), zero) == 0
            if not values[key]:
                return (x, y, index_word(group, x, n), index_word(group, y, n))
    return True


def _counted_verdict(monkeypatch, rep, spec):
    calls = []
    kernel = representation._failing_rows

    def counted(ex, ey, m):
        calls.append(len(ey))
        return kernel(ex, ey, m)

    monkeypatch.setattr(representation, "_failing_rows", counted)
    verdict = _verdict(rep, spec)
    monkeypatch.undo()
    return verdict, calls


def _fast_path_cases():
    rng = random.Random(314159)
    cells = [
        (cyclic(2), 4), (cyclic(2), 6), (cyclic(3), 3), (cyclic(3), 4), (cyclic(4), 3),
        (cyclic(4), 4), (cyclic(5), 3), (cyclic(6), 2), (cyclic(6), 3), (finite_field(4), 4),
    ]
    for group, n in cells:
        q = group.order
        specs = [HammingGraphSpec(n, q, rng.randint(1, n))]
        if n % q == 0:
            specs.append(CompositionGraphSpec(group, n, Composition.balanced(q, n)))
        # a random shell pattern, directed unless negation fixes it
        cuts = sorted(rng.randint(0, n) for _ in range(q - 1))
        counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        specs.append(CompositionGraphSpec(group, n, Composition(counts)))
        for spec in specs:
            if isinstance(spec, HammingGraphSpec):
                rep = build_representation(lp_two_support(n, q, spec.d), group)
                order = rng.sample(range(rep.cols), rep.cols)
                yield Representation(group, n, rep.exponents[:, order], "shuffled"), spec
            elif spec.balanced:
                yield hadamard_representation(group, n), spec
            for _ in range(2):
                words = [tuple(rng.randrange(q) for _ in range(n))
                         for _ in range(rng.randint(1, 6))]
                yield Representation(group, n, _characters_by_cell(group, n, words), "random"), spec


def test_fast_path_agrees_with_the_pair_oracle(monkeypatch):
    verdicts = {True: 0, False: 0}
    directed = 0
    for rep, spec in _fast_path_cases():
        verdict, calls = _counted_verdict(monkeypatch, rep, spec)
        assert calls == [len(_generators(spec, rep.group))]  # the fast path ran
        assert verdict == _pair_oracle(rep, spec)
        if verdict is not True:
            assert verdict[0] == 0
        verdicts[verdict is True] += 1
        directed += isinstance(spec, CompositionGraphSpec) and not spec.undirected
    assert verdicts[True] >= 10 and verdicts[False] >= 10 and directed >= 4


def test_an_override_equal_to_the_entry_keeps_the_fast_path(monkeypatch):
    # writing an entry's own value leaves the exponents additive
    spec = HammingGraphSpec(3, 3, 2)
    rep = build_representation(lp_two_support(3, 3, 2), cyclic(3))
    same = rep.with_entry(13, 2, rep.entry(13, 2))
    assert same.root_order == 3
    assert _counted_verdict(monkeypatch, same, spec) == (True, [len(_generators(spec, rep.group))])


def test_a_negated_row_falls_back_to_the_scan_and_passes(monkeypatch):
    spec = HammingGraphSpec(3, 3, 2)
    rep = build_representation(lp_two_support(3, 3, 2), cyclic(3))
    # row 13 times zeta: a sign flip at odd m is not a power of zeta_m, and a
    # unit factor on one row keeps every inner product zero
    zeta = CycInt.root_of_unity(3, 1)
    for c in range(rep.cols):
        rep = rep.with_entry(13, c, rep.entry(13, c) * zeta)
    members = _generators(spec, rep.group)
    verdict, calls = _counted_verdict(monkeypatch, rep, spec)
    assert verdict is True
    assert sum(calls) == rep.rows * len(members) and len(calls) > 1  # every pair, in blocks
    assert all(
        _oracle_orthogonal(rep, x, _plus(rep.group, 3, x, s))
        for x in range(rep.rows)
        for s in members
    )


@pytest.mark.parametrize("n, q, d", [(12, 2, 6), (8, 3, 8), (5, 5, 5)])
def test_an_early_failure_costs_a_few_kernel_calls(monkeypatch, n, q, d):
    # |S| = 924, 256 and 1024 generators: a failure in rows 0-2 is found in
    # the blocks of rows {0} and {1, 2}, not in one pass per generator
    spec = HammingGraphSpec(n, q, d)
    rep = build_representation(lp_two_support(n, q, d), cyclic(q))
    members = len(_generators(spec, rep.group))
    m, col = rep.root_order, rep.cols // 2
    for row in range(3):
        changed = rep.with_entry(row, col, rep.entry(row, col) * CycInt.root_of_unity(m, 1))
        verdict, calls = _counted_verdict(monkeypatch, changed, spec)
        assert len(calls) <= 2 and sum(calls) <= 3 * members
        # the same matrix with the exponent moved by hand
        exponents = rep.exponents.copy()
        exponents[row, col] = (exponents[row, col] + 1) % m
        plain = Representation(rep.group, n, exponents, "test")
        assert verdict == _pair_oracle(plain, spec) == _verdict(plain, spec)
        if (n, row) == (12, 1):
            assert verdict[:2] == (1, 62)


def test_a_flipped_entry_keeps_its_witness():
    rep = build_representation(lp_two_support(3, 3, 2), cyclic(3))
    bad = rep.with_entry(13, 2, rep.entry(13, 2) * CycInt.root_of_unity(3, 1))
    assert _verdict(bad, HammingGraphSpec(3, 3, 2)) == (1, 13, (0, 0, 1), (1, 1, 1))


def test_an_infeasible_character_matrix_fails_at_row_zero(monkeypatch):
    # c_0 bumped by one: check_lp_solution would refuse it, so the columns
    # are assembled here, bypassing build_representation
    good = lp_two_support(4, 2, 2)
    bad = LPSolution(4, 2, 2, (good.coefficients[0] + 1,) + good.coefficients[1:])
    words = [
        y
        for i, c in enumerate(bad.coefficients)
        for y in list(enumerate_shell(cyclic(2), 4, i)) * c
    ]
    rep = Representation(cyclic(2), 4, _characters_by_cell(cyclic(2), 4, words), "test", bad)
    spec = HammingGraphSpec(4, 2, 2)
    # every adjacent pair has inner product 1, so the witness is row 0 and
    # the smallest word of weight 2
    assert _verdict(rep, spec) == (0, 3, (0, 0, 0, 0), (0, 0, 1, 1)) == _pair_oracle(rep, spec)
    # with one pair per block, row 0 stops at its first generator
    monkeypatch.setattr(representation, "_BLOCK_BYTES", 1)
    assert _counted_verdict(monkeypatch, rep, spec) == (_verdict(rep, spec), [1])


def test_hadamard_needs_q_dividing_n():
    with pytest.raises(DivisibilityError):
        hadamard_representation(cyclic(2), 3)


def test_hadamard_rejects_a_negative_length():
    with pytest.raises(DomainError, match=r"^need n >= 0, got n=-2$"):
        hadamard_representation(cyclic(2), -2)
    assert hadamard_representation(cyclic(2), 0).exponents.shape == (1, 0)


def test_csv_format():
    rep = build_representation(lp_two_support(2, 2, 1), cyclic(2))
    buf = io.StringIO()
    rep.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "root_order,2"
    assert lines[1] == "vertex,c0,c1"
    assert lines[2].startswith("0,")
    assert len(lines) == 2 + rep.rows
    assert rep.to_csv_text() == buf.getvalue()
    # every entry is a full polynomial in z, even when constant
    first_entry = lines[2].split(",")[1]
    assert "+" in first_entry or first_entry.lstrip("-").isdigit()


def test_csv_polynomial_entries_for_odd_roots():
    rep = hadamard_representation(cyclic(3), 3)
    text = rep.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "root_order,3"
    assert any("z" in line for line in lines[2:])


# -- the streamed CSV writer and the block-bounded memory ---------------------


def _csv_by_cell(rep):
    # the per-cell writer: a rows x cols object array of term strings,
    # joined row by row
    m = rep.root_order
    terms = np.array([CycInt.root_of_unity(m, k).to_term_string() for k in range(m)], dtype=object)
    cells = terms[rep.exponents % m]
    text = f"root_order,{m}\nvertex," + ",".join(f"c{c}" for c in range(rep.cols)) + "\n"
    return text + "".join(",".join((str(r), *row)) + "\n" for r, row in enumerate(cells.tolist()))


def _csv_cases():
    reps = [
        build_representation(lp_two_support(n, q, d), group)
        for n, q, d, group in (
            (4, 2, 2, cyclic(2)), (7, 2, 3, cyclic(2)), (10, 2, 6, cyclic(2)),
            (3, 3, 2, cyclic(3)), (5, 3, 4, cyclic(3)), (3, 4, 2, cyclic(4)),
            (4, 4, 3, cyclic(4)), (3, 4, 2, finite_field(4)), (2, 5, 1, cyclic(5)),
            (4, 5, 4, cyclic(5)),
        )
    ]
    reps += [hadamard_representation(group, n) for group, n in (
        (cyclic(2), 0), (cyclic(2), 4), (cyclic(3), 6), (cyclic(4), 4), (finite_field(4), 4),
        (cyclic(5), 5), (cyclic(2), 14),
    )]
    # row counts on both sides of each power of ten, up to 10^5
    rng = np.random.default_rng(1018)
    for rows in (9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 100001):
        reps.append(Representation(cyclic(7), 1, rng.integers(0, 7, (rows, 2)), "rows"))
    # edits on odd orders in the first and last rows
    for rep in (build_representation(lp_two_support(3, 3, 2), cyclic(3)),
                hadamard_representation(cyclic(5), 5)):
        m, last = rep.root_order, rep.rows - 1
        zeta = CycInt.root_of_unity(m, 1)
        changed = rep.with_entry(0, 0, rep.entry(0, 0) * zeta)
        changed = changed.with_entry(last, rep.cols - 1, changed.entry(last, rep.cols - 1) * zeta)
        reps += [changed, changed.with_entry(0, rep.cols - 1, CycInt.root_of_unity(m, m - 1))
                 .with_entry(1, 1, CycInt.root_of_unity(m, 2))]
    # exponents outside 0..m-1 and a column-major copy
    rep = hadamard_representation(cyclic(3), 3)
    reps.append(Representation(rep.group, 3, rep.exponents.astype(np.int64) - 7, "negative"))
    reps.append(Representation(rep.group, 3, np.asfortranarray(rep.exponents), "fortran"))
    # one column on both sides of 10^6 rows, where a vertex gains a third
    # 3-digit limb, with edits just before and after
    big = Representation(cyclic(3), 1, rng.integers(0, 3, (1_000_002, 1), dtype=np.uint8), "1e6")
    zeta = CycInt.root_of_unity(3, 1)
    big = big.with_entry(999_998, 0, big.entry(999_998, 0) * zeta)
    reps.append(big.with_entry(1_000_001, 0, big.entry(1_000_001, 0) * zeta * zeta))
    # k cells per chunk with m^k <= 256 (k = 8, 5, 4, 3 for m = 2..5): every
    # column count short of a multiple of k, with and without a full run
    for m, k in ((2, 8), (3, 5), (4, 4), (5, 3)):
        for r in range(1, k):
            for cols in (r, 2 * k + r):
                codes = rng.integers(0, m, (37, cols), dtype=np.uint8)
                reps.append(Representation(cyclic(m), 1, codes, "runs"))
    # one cell per chunk: m = 17, and m = 129 with uint16 exponents
    reps.append(Representation(cyclic(17), 1, rng.integers(0, 17, (40, 5)), "m17"))
    reps.append(build_representation(lp_two_support(1, 129, 1), cyclic(129)))
    # edits on both sides of the 1000-row limb cut, so that blocks end on an
    # edited row and on rows 999 and 1000 at any block size
    rep = Representation(cyclic(4), 1, rng.integers(0, 4, (1003, 6), dtype=np.uint8), "edges")
    for rows in ((998,), (999,), (1000,), (998, 1000), (997, 1001, 1002)):
        changed = rep
        for r in rows:
            step = CycInt.root_of_unity(4, 1 + r % 3)  # never the entry itself
            changed = changed.with_entry(r, r % 6, changed.entry(r, r % 6) * step)
        reps.append(changed)
    return reps


@pytest.mark.parametrize("block_bytes", [None, 1, 200, 5000])
def test_streamed_csv_matches_the_per_cell_writer(monkeypatch, block_bytes):
    # a block size of 1 byte writes one row per block
    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    for rep in _csv_cases():
        if block_bytes is not None and rep.rows > 20000:
            continue
        assert rep.to_csv_text() == _csv_by_cell(rep)
    assert hadamard_representation(cyclic(2), 0).to_csv_text() == "root_order,2\nvertex,\n0\n"


def test_the_constructor_refuses_exponents_that_are_not_a_2d_integer_array():
    # Shifted by 0.3 or 0.5 as floats, or cast to bool, object or complex,
    # the Hadamard matrix of Z_2 would read as the same roots once cast to
    # int, and verify against the balanced graph; it is refused up front.
    group, n = cyclic(2), 2
    rep = hadamard_representation(group, n)
    exponents = rep.exponents
    bad = [exponents + 0.3, exponents + 0.5, exponents.astype(bool), exponents.astype(object),
           exponents.astype(complex), exponents[0], exponents[None]]
    for array in bad:
        message = (f"^exponents must be a 2-D integer array, "
                   f"got {array.ndim}-D {array.dtype}$")
        with pytest.raises(DomainError, match=message):
            Representation(group, n, array, "bad")


def test_any_2d_integer_array_is_held_as_the_builders_exponents():
    # int8, int16 and int64 copies, offsets by -7m and +m, and a column-major
    # copy give the builder's bytes, verdict and CSV
    cases = [
        (build_representation(lp_two_support(3, 3, 2), cyclic(3)), HammingGraphSpec(3, 3, 2)),
        (hadamard_representation(finite_field(4), 4),
         CompositionGraphSpec(finite_field(4), 4, Composition.balanced(4, 4))),
        (build_representation(lp_two_support(1, 129, 1), cyclic(129)), HammingGraphSpec(1, 129, 1)),
    ]
    for rep, spec in cases:
        m, exponents = rep.root_order, rep.exponents
        wide = exponents.astype(np.int64)
        arrays = [exponents.astype(dtype) for dtype in (np.int8, np.int16, np.int64)]
        arrays += [wide - 7 * m, wide + m, np.asfortranarray(exponents)]
        if m > 127:
            arrays[0] = wide.astype(np.int16)  # int8 cannot hold every exponent
        broken = rep.with_entry(1, 0, rep.entry(1, 0) * CycInt.root_of_unity(m, 1))
        expected = (_verdict(rep, spec), _verdict(broken, spec), rep.to_csv_text())
        for array in arrays:
            held = Representation(rep.group, rep.n, array, rep.provenance)
            assert held.exponents.dtype == exponents.dtype and held.exponents.flags.c_contiguous
            assert held.exponents.tobytes() == exponents.tobytes()
            changed = held.with_entry(1, 0, held.entry(1, 0) * CycInt.root_of_unity(m, 1))
            assert (_verdict(held, spec), _verdict(changed, spec), held.to_csv_text()) == expected
        # an offset by -7 is reduced to the residues of its entries
        held = Representation(rep.group, rep.n, wide - 7, rep.provenance)
        assert np.array_equal(held.exponents, (wide - 7) % m)
    # builder output is held as it is, without a copy
    rep = cases[0][0]
    assert Representation(rep.group, rep.n, rep.exponents, "same").exponents is rep.exponents


def test_held_exponents_are_read_only():
    # a write into the held matrix raises, whichever route built it, and a
    # caller's writable array is copied, so a later write to it does not
    # reach the held matrix
    group, spec = cyclic(3), HammingGraphSpec(4, 3, 2)
    rep = build_representation(lp_two_support(4, 3, 2), group)
    text = rep.to_csv_text()
    changed = rep.with_entry(0, 0, rep.entry(0, 0) * CycInt.root_of_unity(3, 1))
    reps = [rep, changed, hadamard_representation(group, 3),
            Representation(group, 4, rep.exponents.astype(np.int64), "copy")]
    for held in reps:
        with pytest.raises(ValueError, match="read-only"):
            held.exponents[0, 0] = 4
        base = held.exponents.base
        assert base is None or not base.flags.writeable
    assert rep.to_csv_text() == text and _verdict(rep, spec) is True
    mine = rep.exponents.copy()  # writable, and already in the held form
    view = mine[:]
    view.flags.writeable = False  # read-only, over a writable base
    for array in (mine, view):
        held = Representation(group, 4, array, "caller")
        assert held.exponents is not array and not np.shares_memory(held.exponents, mine)
        mine[0, 0] = (mine[0, 0] + 1) % 3
        assert held.to_csv_text() == text and _verdict(held, spec) is True
        mine[0, 0] = rep.exponents[0, 0]


class _NullSink:
    def write(self, text):
        return len(text)


def _clear_shell_caches():
    representation._letter_counts.cache_clear()


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block_bytes", [None, 1 << 18])
def test_verification_and_csv_take_the_matrix_and_one_block(monkeypatch, block_bytes):
    # Full verification and the CSV export allocate at most one block of
    # working memory beyond a narrow copy of the matrix.
    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    cases = [
        (hadamard_representation(cyclic(3), 12),
         CompositionGraphSpec(cyclic(3), 12, Composition.balanced(3, 12))),
        (build_representation(lp_two_support(8, 3, 2), cyclic(3)), HammingGraphSpec(8, 3, 2)),
    ]
    for rep, spec in cases:
        assert rep.exponents.dtype == np.uint8 and rep.exponents.nbytes > 6 << 20
        bound = 2 * rep.exponents.nbytes + representation._BLOCK_BYTES
        assert _traced_peak(lambda: verify_representation(rep, spec)) < bound
        assert _traced_peak(lambda: rep.write_csv(_NullSink())) < bound


@pytest.mark.parametrize("block_bytes", [None, 1 << 18])
def test_builds_take_the_matrix_and_one_block(monkeypatch, block_bytes):
    # Building allocates at most one block of working memory beyond the
    # matrix and one copy of it, with the letter counts cold.
    # A build whose coordinates all fit one row block returns that block as
    # the matrix: C-ordered, read-only, and beside it only the wrapped-around
    # copy it was reduced with.
    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    builds = [lambda: build_representation(lp_two_support(8, 3, 2), cyclic(3)),
              lambda: hadamard_representation(cyclic(3), 12)]
    for build in builds:
        matrix = build().exponents.nbytes
        assert matrix > 6 << 20
        _clear_shell_caches()
        assert _traced_peak(build) < 2 * matrix + representation._BLOCK_BYTES
    builds = [lambda: build_representation(lp_two_support(8, 3, 8), cyclic(3)),
              lambda: build_representation(lp_two_support(12, 2, 12), cyclic(2)),
              lambda: build_representation(lp_two_support(5, 5, 5), cyclic(5)),
              lambda: hadamard_representation(cyclic(2), 12)]
    one_block = 0
    for build in builds:
        rep = build()
        exponents = rep.exponents
        assert exponents.dtype == representation._exponent_dtype(rep.root_order)
        assert exponents.flags.c_contiguous and not exponents.flags.writeable
        if 4 * exponents.nbytes <= representation._BLOCK_BYTES:
            _clear_shell_caches()
            assert _traced_peak(build) < 3 * exponents.nbytes
            one_block += 1
    assert one_block == (4 if block_bytes is None else 1)


@pytest.mark.parametrize("block_bytes", [None, 1 << 18])
def test_csv_takes_one_block_beyond_its_tables(monkeypatch, block_bytes):
    # The CSV export alone: one block of working memory, plus the chunk
    # tables it builds on a cold cache and keeps, which is what the call
    # leaves allocated.  At 256 KiB each of these writes several blocks.
    import tracemalloc

    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    for n, q, d in ((8, 3, 8), (5, 5, 5), (12, 2, 12)):
        rep = build_representation(lp_two_support(n, q, d), cyclic(q))
        tracemalloc.start()
        try:
            representation._cell_runs.cache_clear()
            representation._limbs.cache_clear()
            rep.write_csv(_NullSink())
            tables, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < tables < 1 << 18
        assert peak < representation._BLOCK_BYTES + tables
        assert _traced_peak(lambda: rep.write_csv(_NullSink())) < representation._BLOCK_BYTES


@pytest.mark.parametrize("block_bytes", [None, 1 << 18])
def test_a_failing_scan_takes_the_matrix_and_one_block(monkeypatch, block_bytes):
    # One entry of row 40 changed: the matrix is no longer character-built,
    # so full verification scans several row blocks.
    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    spec = HammingGraphSpec(8, 3, 2)
    rep = build_representation(lp_two_support(8, 3, 2), cyclic(3))
    assert rep.exponents.dtype == np.uint8 and rep.exponents.nbytes > 6 << 20
    col = rep.cols // 2
    changed = rep.with_entry(40, col, rep.entry(40, col) * CycInt.root_of_unity(3, 1))
    exponents = rep.exponents.copy()
    exponents[40, col] = (exponents[40, col] + 1) % 3
    expected = _pair_oracle(Representation(rep.group, 8, exponents, "test"), spec)
    del exponents
    assert expected is not True and _verdict(changed, spec) == expected
    bound = 2 * rep.exponents.nbytes + representation._BLOCK_BYTES
    assert _traced_peak(lambda: _verdict(changed, spec)) < bound


@pytest.mark.parametrize("block_bytes", [None, 1 << 18])
def test_sampled_verification_takes_the_matrix_the_generators_digits_and_one_block(
    monkeypatch, block_bytes
):
    # Each draw's indices and digits count in its block, so that many draws
    # over a long word take one block beyond the generators' n x k x |S|
    # digits in the exponents' dtype.  At 256 KiB each of these checks many
    # blocks.
    if block_bytes is not None:
        monkeypatch.setattr(representation, "_BLOCK_BYTES", block_bytes)
    cells = [(12, 2, 11, cyclic(2), 400_000), (16, 2, 15, cyclic(2), 400_000),
             (8, 3, 8, cyclic(3), 100_000), (5, 5, 5, cyclic(5), 100_000),
             (4, 8, 3, finite_field(8), 100_000)]
    for n, q, d, group, sample in cells:
        spec = HammingGraphSpec(n, q, d)
        rep = build_representation(lp_two_support(n, q, d), group)
        k = round(math.log(q, rep.root_order))
        steps = n * k * len(_generators(spec, group)) * rep.exponents.itemsize
        bound = 2 * rep.exponents.nbytes + steps + representation._BLOCK_BYTES
        assert _traced_peak(lambda: verify_representation(rep, spec, sample=sample)) < bound


def test_a_large_alphabet_verifies_in_the_matrix_and_one_block():
    # H(1, 512, 1): one coordinate of 512 letters, a 512 x 512 two-byte
    # matrix.  The additivity check reads the unit row and rebuilds the
    # matrix in blocks, with no q x q x columns array.  The first call fills
    # the cached reduction rows of zeta_512 that the exact check reads.
    rep = build_representation(lp_two_support(1, 512, 1), cyclic(512))
    spec = HammingGraphSpec(1, 512, 1)
    assert rep.exponents.dtype == np.uint16 and verify_representation(rep, spec) is True
    bound = 2 * rep.exponents.nbytes + representation._BLOCK_BYTES
    assert _traced_peak(lambda: verify_representation(rep, spec)) < bound


def test_build_and_verify_read_characters_at_the_digit_units_only(monkeypatch):
    # q x k char_exponent calls (k = 1 for Z_q) and no table of group sums
    calls = {"char_exponent": 0, "add": 0}
    for name in calls:
        def counted(self, a, b, name=name, method=getattr(CyclicGroup, name)):
            calls[name] += 1
            return method(self, a, b)

        monkeypatch.setattr(CyclicGroup, name, counted)
    group, spec = cyclic(512), HammingGraphSpec(1, 512, 1)
    rep = build_representation(lp_two_support(1, 512, 1), group)
    assert verify_representation(rep, spec) is True
    assert verify_representation(rep, spec, sample=100) is True
    changed = rep.with_entry(3, 5, rep.entry(3, 5) * CycInt.root_of_unity(512, 1))
    with pytest.raises(NotOrthogonal):
        verify_representation(changed, spec)
    assert calls == {"char_exponent": 512, "add": 0}


def test_sampled_verification_of_a_million_generators_reports_the_first_draw():
    # H(2, 1024, 2) has 1023^2 generators: sampled mode holds their 2 x 1023^2
    # base-1024 digits, and the all-zero matrix fails at the first draw.
    group, spec = cyclic(1024), HammingGraphSpec(2, 1024, 2)
    rep = Representation(group, 2, np.zeros((1 << 20, 1), dtype=np.uint16), "zeros")
    start = time.perf_counter()
    with pytest.raises(NotOrthogonal) as failure:
        verify_representation(rep, spec, sample=1)
    assert time.perf_counter() - start < 1
    draws = representation._splitmix_draws(representation_seed(spec), 0, 2)
    x = int(draws[0]) % rep.rows
    s = next(itertools.islice(enumerate_shell(group, 2, 2), int(draws[1]) % 1023**2, None))
    y = word_add(group, index_word(group, x, 2), s)
    found = failure.value
    assert (found.row_x, found.word_x) == (x, index_word(group, x, 2))
    assert (found.row_y, found.word_y) == (word_index(group, y), y)
    # full mode holds no digits: the matrix is additive, and row 0 fails
    # against the least word of weight 2
    with pytest.raises(NotOrthogonal) as failure:
        verify_representation(rep, spec)
    assert (failure.value.row_x, failure.value.row_y, failure.value.word_y) == (0, 1025, (1, 1))


_NEIGHBOUR_GROUPS = [cyclic(q) for q in range(2, 8)] + [finite_field(q) for q in (4, 8, 9, 16)]


@pytest.mark.parametrize(
    "group", _NEIGHBOUR_GROUPS, ids=lambda g: f"{type(g).__name__}{g.order}"
)
def test_neighbours_agree_with_word_add(group):
    # every x against every s, for q^n <= 512, as the scan passes them (a
    # column of x against a row of s) and as sampled mode does (paired
    # arrays, in a shuffled order)
    rng = np.random.default_rng(group.order)
    q, m = group.order, group.char_order
    k = round(math.log(q, m))
    n = 1
    while q**n <= 512:
        words = [index_word(group, x, n) for x in range(q**n)]
        index = {word: word_index(group, word) for word in words}
        expected = np.array([[index[word_add(group, x, s)] for s in words] for x in words])
        # the base-m digits of each letter, highest first, letter by letter
        steps = [np.array([s[j] // m**i % m for s in words], dtype=representation._exponent_dtype(m))
                 for j in range(n) for i in reversed(range(k))]
        xs = np.arange(q**n)
        assert np.array_equal(representation._neighbours(m, xs[:, None], steps), expected)
        px, ps = np.divmod(rng.permutation(q ** (2 * n)), q**n)
        assert np.array_equal(representation._neighbours(m, px, [step[ps] for step in steps]),
                              expected[px, ps])
        # the scan's row 0 takes the generators as their own neighbours
        assert np.array_equal(representation._neighbours(m, xs[:1, None], steps)[0], xs)
        n += 1


def test_index_shells_match_enumerate_shell():
    # Labels interleave across every (group, n), so the cached letter counts
    # are read cold (caches cleared), warm (just filled) and after other
    # cells have evicted them; Z_4 and GF(4) share their counts.
    groups = [cyclic(q) for q in range(2, 6)] + [finite_field(4), finite_field(8)]
    cells = []
    for group in groups:
        q = group.order
        for n in range(1, 13):
            if q**n > 5000:
                break
            cells.append([
                (group, n, label, [word_index(group, y) for y in enumerate_shell(group, n, label)])
                for label in (*range(n + 1), *enumerate_compositions(q, n))
            ])
    shells = [case for row in itertools.zip_longest(*cells) for case in row if case]
    assert len(shells) >= 1500
    for group, n, label, expected in shells:
        _clear_shell_caches()
        assert representation._shell_indices(group, n, label).tolist() == expected
        assert representation._shell_indices(group, n, label).tolist() == expected
    for group, n, label, expected in shells:
        assert representation._shell_indices(group, n, label).tolist() == expected


def test_cached_tables_are_read_only_and_indices_are_fresh():
    _clear_shell_caches()
    for n in (0, 1, 4):
        counts = representation._letter_counts(3, n, 1)
        for array in (counts, counts.base):
            with pytest.raises(ValueError):
                array[0] = 1
    # a caller that writes into the indices it got changes nobody else's
    for label in (2, (1, 2, 1)):
        ys = representation._shell_indices(cyclic(3), 4, label)
        expected = ys.tolist()
        ys[:] = 0
        assert representation._shell_indices(cyclic(3), 4, label).tolist() == expected
        assert representation._shell_indices(finite_field(3), 4, label).tolist() == expected


@pytest.mark.parametrize("narrow", [np.int8, np.int64])
def test_numpy_n_reads_the_shells_of_the_plain_int(narrow):
    # A numpy n on a cold cache must store the counts of the plain int, for
    # itself and for a plain-int call after it.
    for group, n, labels in ((cyclic(2), 12, (0, 6, 12, (7, 5))),
                             (cyclic(3), 7, (7, (3, 2, 2))),
                             (finite_field(4), 5, (4, (1, 1, 1, 2)))):
        expected = {label: [word_index(group, y) for y in enumerate_shell(group, n, label)]
                    for label in labels}
        _clear_shell_caches()
        for label in labels:
            assert representation._shell_indices(group, narrow(n), label).tolist() == expected[label]
            assert representation._shell_indices(group, n, label).tolist() == expected[label]


def test_vectorised_draws_match_the_stream():
    for seed in (0, 1, representation_seed(HammingGraphSpec(4, 2, 2)), (1 << 64) - 1):
        stream = _splitmix_stream(seed)
        expected = [next(stream) for _ in range(300)]
        assert representation._splitmix_draws(seed, 0, 300).tolist() == expected
        assert representation._splitmix_draws(seed, 117, 300).tolist() == expected[117:]


def _lp_rep(n):
    return build_representation(lp_two_support(n, 2, 2), cyclic(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_representation(_lp_rep(4), HammingGraphSpec(4, 3, 2)),
         "representation alphabet 2 does not match q=3"),
        (lambda: verify_representation(_lp_rep(4), CompositionGraphSpec(cyclic(3), 4, (2, 1, 1))),
         "representation and graph use different groups"),
        (lambda: verify_representation(_lp_rep(3), HammingGraphSpec(4, 2, 2)),
         "representation length 3 does not match n=4"),
        (lambda: verify_representation(
            Representation(cyclic(2), 3, np.zeros((4, 2), dtype=np.uint8), "short"),
            HammingGraphSpec(3, 2, 2),
        ), "representation has 4 rows, expected 8"),
    ],
    ids=["alphabet", "group", "length", "rows"],
)
def test_verification_refuses_a_representation_of_another_graph(call, message):
    with pytest.raises(SpecMismatch) as exc:
        call()
    assert type(exc.value) is SpecMismatch and str(exc.value) == message


# ---------------------------------------------------------------------------
# bound reports


def test_plotkin_report_frozen():
    report = bound_report(HammingGraphSpec(3, 3, 3))
    data = report.to_json()
    assert data["lower"] == [{"value": "3", "method": "hoffman"}]
    assert data["upper"] == [{"value": "9", "method": "lp-two-support"}]
    assert data["exact"] is None
    assert data["diagnostics"]["regime"] == "balanced-or-above"
    assert data["diagnostics"]["first_nonpositive_shell"] == 1
    assert data["diagnostics"]["lp_coefficients"] == [3, 1, 0, 0]


def test_report_first_sign_change_matches_first_nonpositive():
    for q in range(2, 8):
        for n in range(1, 41):
            for d in range(1, n + 1):
                report = bound_report(HammingGraphSpec(n, q, d))
                assert report.diagnostics["first_nonpositive_shell"] == first_nonpositive(n, q, d)


def test_report_regime_classification():
    assert bound_report(HammingGraphSpec(10, 2, 4)).diagnostics["regime"] == "near-balanced-window"
    assert bound_report(HammingGraphSpec(10, 2, 4)).diagnostics["window_cap"] == "90"
    entropy = bound_report(HammingGraphSpec(10, 2, 2)).diagnostics
    assert entropy["regime"] == "entropy"
    assert 0.0 < entropy["entropy_exponent"] < 1.0


def test_lower_and_upper_bracket_each_other():
    for n, q, d in ((3, 3, 2), (4, 3, 3), (5, 2, 3), (6, 2, 4)):
        report = bound_report(HammingGraphSpec(n, q, d))
        lo = max(v for v, _ in report.lower)
        hi = min(v for v, _ in report.upper)
        assert lo <= hi


def test_balanced_reports_close_exactly():
    report = bound_report(
        CompositionGraphSpec(finite_field(3), 3, Composition.balanced(3, 3))
    )
    assert report.exact == 3
    assert report.diagnostics["prime_power_pair"] is True
    report = bound_report(
        CompositionGraphSpec(cyclic(2), 4, Composition.balanced(2, 4))
    )
    assert report.exact == 4
    report = bound_report(
        CompositionGraphSpec(finite_field(3), 9, Composition.balanced(3, 9))
    )
    assert report.exact == 9


def test_odd_balanced_case_stays_open():
    # (q-1)n/q odd: the spectral floor sits below the character upper bound
    report = bound_report(
        CompositionGraphSpec(cyclic(2), 6, Composition.balanced(2, 6))
    )
    assert report.exact is None
    assert max(v for v, _ in report.lower) == 2
    assert min(v for v, _ in report.upper) == 6


def test_directed_report_skips_spectral_lower_bound():
    report = bound_report(
        CompositionGraphSpec(cyclic(3), 3, Composition((1, 2, 0)))
    )
    assert report.diagnostics["undirected"] is False
    assert report.lower == ()


def test_irrational_minimum_is_reported_not_raised():
    report = bound_report(
        CompositionGraphSpec(cyclic(5), 2, Composition((0, 1, 0, 0, 1)))
    )
    assert report.lower == ()
    assert "hoffman_unavailable" in report.diagnostics


# the grid of the read-out tests: Z_2..Z_5 with n <= 6, and Z_6, Z_7,
# GF(4), GF(8) and GF(9) with n <= 3
ORBIT_GRID = [(cyclic(q), 6) for q in (2, 3, 4, 5)] + [
    (group, 3)
    for group in (cyclic(6), cyclic(7), finite_field(4), finite_field(8), finite_field(9))
]


@pytest.mark.parametrize(
    "group,top", ORBIT_GRID, ids=[f"{type(g).__name__}{g.order}" for g, _ in ORBIT_GRID]
)
def test_report_least_eigenvalue_over_folded_shells_is_the_full_minimum(monkeypatch, group, top):
    # The composition report compares only the folded shells, the first
    # shell carrying each distinct coefficient.  The value and shell it
    # picks must be min_eigenvalue's on the full spectrum, and its Hoffman
    # entry must be the full spectrum's.
    seen = {}

    def recording(name):
        original = getattr(bounds, name)

        def wrapper(*args):
            seen[name] = out = original(*args)
            return out

        return wrapper

    monkeypatch.setattr(bounds, "_read_out", recording("_read_out"))
    monkeypatch.setattr(bounds, "_extreme", recording("_extreme"))
    checked = 0
    for n in range(1, top + 1):
        for x in enumerate_compositions(group.order, n):
            spec = CompositionGraphSpec(group, n, x)
            if not spec.undirected or spec.balanced:
                continue
            seen.clear()
            report = bound_report(spec).to_json()
            values, computed = seen["_read_out"]
            labels, sizes = krawtchouk._colex_shells(group.order, n)
            column = list(zip(labels, values, sizes))
            assert len(computed) <= len(column)
            shell = column[computed[seen["_extreme"]]]
            spectrum = composition_spectrum(spec)
            assert (shell[1], Composition(shell[0])) == min_eigenvalue(spectrum), (n, x)
            try:
                lower = [{"value": str(hoffman_bound(spectrum)), "method": "hoffman"}]
            except (IrrationalEigenvalue, NoNegativeEigenvalue) as exc:
                lower = []
                assert report["diagnostics"]["hoffman_unavailable"] == type(exc).__name__
            assert report["lower"] == lower, (n, x)
            checked += 1
    assert checked > 0


def _report_from_public_routes(spec):
    # The Hamming report as the public functions give it, each running its
    # own Krawtchouk pass: the reference for the one-column report.
    n, q, d = spec.n, spec.q, spec.d
    spectrum = hamming_spectrum(spec)
    lam_min, _ = min_eigenvalue(spectrum)
    hoffman = hoffman_bound(spectrum)
    assert hoffman == 1 - Fraction(spec.degree, lam_min)
    solution = lp_two_support(n, q, d)
    assert check_lp_solution(solution) is True
    upper = Fraction(solution.objective)
    diagnostics = {
        "first_nonpositive_shell": first_nonpositive(n, q, d),
        "lp_coefficients": list(solution.coefficients),
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
    exact = hoffman if hoffman == upper else None
    return BoundReport(
        spec, ((hoffman, "hoffman"),), ((upper, "lp-two-support"),), exact, diagnostics
    ).to_json()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hamming_report_matches_the_public_routes_byte_for_byte(q):
    # the 312-graph grid q = 2..5, n <= 12, every d, plus large n in each regime
    specs = [HammingGraphSpec(n, q, d) for n in range(1, 13) for d in range(1, n + 1)]
    specs += [HammingGraphSpec(n, q, d) for n in (299, 301) for d in (40, 150, 240, n)]
    for spec in specs:
        got = json.dumps(bound_report(spec).to_json())
        assert got == json.dumps(_report_from_public_routes(spec)), spec


def test_hamming_report_makes_one_krawtchouk_pass(monkeypatch):
    calls = {"kraw_column": 0, "_shell_sizes": 0}

    def counting(name):
        original = getattr(bounds, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("the Hamming report took a second route")

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    for name in ("lp_two_support", "check_lp_solution", "_extreme"):
        monkeypatch.setattr(bounds, name, forbidden)
    monkeypatch.setattr(schemes, "min_eigenvalue", forbidden)
    monkeypatch.setattr(schemes, "SpectrumEntry", forbidden)
    monkeypatch.setattr(schemes, "Spectrum", forbidden)
    for spec in (HammingGraphSpec(6, 2, 4), HammingGraphSpec(300, 3, 150)):
        calls.update(dict.fromkeys(calls, 0))
        bound_report(spec)
        assert calls == {"kraw_column": 1, "_shell_sizes": 1}, spec
    # a sweep over every d at one (n, q) computes the sizes once, and still
    # one column per report
    n, q = 31, 3
    krawtchouk._shell_sizes.cache_clear()
    calls.update(dict.fromkeys(calls, 0))
    for d in range(1, n + 1):
        bound_report(HammingGraphSpec(n, q, d))
    assert calls == {"kraw_column": n, "_shell_sizes": n}
    info = krawtchouk._shell_sizes.cache_info()
    assert (info.misses, info.hits) == (1, n - 1)


def test_hamming_report_still_checks_its_certificate(monkeypatch):
    pick = bounds._two_support

    def short_by_one(*args):
        good = pick(*args)
        return LPSolution(good.n, good.q, good.d, (good.coefficients[0] - 1,) + good.coefficients[1:])

    monkeypatch.setattr(bounds, "_two_support", short_by_one)
    with pytest.raises(Infeasible) as err:
        bound_report(HammingGraphSpec(6, 2, 4))
    assert err.value.witness == ("orthogonality", -1)


def test_hamming_report_raises_the_witnesses_of_check_lp_solution(monkeypatch):
    # the mutated certificates of the LP tests above, handed to the report
    good = lp_two_support(4, 2, 2)
    for coeffs, kind in (
        ((1, -1, 1, 0, 0), "sign"),
        ((0, 0, 0, 0, 0), "positivity"),
        ((good.coefficients[0] + 1,) + good.coefficients[1:], "orthogonality"),
    ):
        bad = LPSolution(4, 2, 2, coeffs)
        with pytest.raises(Infeasible) as direct:
            check_lp_solution(bad)
        monkeypatch.setattr(bounds, "_two_support", lambda *args: bad)
        with pytest.raises(Infeasible) as in_report:
            bound_report(HammingGraphSpec(4, 2, 2))
        assert direct.value.witness[0] == kind
        assert in_report.value.witness == direct.value.witness
        assert str(in_report.value) == str(direct.value)


def test_lp_checks_refuse_the_sign_before_orthogonality(monkeypatch):
    # c_0 = -1 is negative, and -1 + 5 K_2(2) = -11 breaks orthogonality too
    bad = LPSolution(4, 2, 2, (-1, 0, 5, 0, 0))
    with pytest.raises(Infeasible) as direct:
        check_lp_solution(bad)
    assert direct.value.witness == ("sign", 0)
    monkeypatch.setattr(bounds, "_two_support", lambda *args: bad)
    with pytest.raises(Infeasible) as in_report:
        bound_report(HammingGraphSpec(4, 2, 2))
    assert in_report.value.witness == ("sign", 0)
    assert str(in_report.value) == str(direct.value)


def _reciprocity_hoffman(eigenvalues, n, q, d):
    # the Hoffman bound 1 - m_d / lambda_min off the oracle's eigenvalues
    return 1 - Fraction((q - 1) ** d * binom(n, d), min(eigenvalues[n, q, d]))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hamming_report_hoffman_matches_the_reciprocity_oracle(q, reciprocity_eigenvalues):
    cases = [(n, d) for n in range(1, 41) for d in range(1, n + 1)]
    regimes = set()
    for n in (299, 301, 1000, 2000):
        top = -(-(q - 1) * n // q)  # the least d with (q-1)n - qd <= 0
        cases += [(n, n // 10), (n, top - 1), (n, top), (n, n)]
    for n, d in cases:
        report = bound_report(HammingGraphSpec(n, q, d))
        assert report.lower == (
            (_reciprocity_hoffman(reciprocity_eigenvalues, n, q, d), "hoffman"),
        ), (n, q, d)
        if n >= 299:
            regimes.add(report.diagnostics["regime"])
    assert regimes == {"entropy", "near-balanced-window", "balanced-or-above"}


@pytest.mark.parametrize(
    "n,q,d,winner,runner_up",
    [(6, 2, 1, 6, 5), (36, 3, 8, 13, 12), (301, 3, 24, 129, 128), (299, 5, 82, 93, 92)],
)
def test_least_hamming_eigenvalue_is_decided_exactly_on_near_ties(
    n, q, d, winner, runner_up, reciprocity_eigenvalues
):
    # The two least ratios K_j(d) / m_j lie within a factor of 2 and the
    # runner-up comes first, with a bit-length gap at least as large, so
    # neither the scan order nor the bit lengths can pick the winner.
    column = krawtchouk.kraw_column(n, q, d)
    sizes = krawtchouk._shell_sizes(n, q)
    ratios = sorted(
        (Fraction(column[j], sizes[j]), j) for j in range(1, n + 1) if column[j] < 0
    )
    (least, j1), (second, j2) = ratios[:2]
    assert (j1, j2) == (winner, runner_up)
    assert least < second and least / second < 2
    gap = [(-column[j]).bit_length() - sizes[j].bit_length() for j in (winner, runner_up)]
    assert gap[1] >= gap[0]
    _, _, picked = bounds._scan_column(n, q, d, column, sizes)
    assert picked == winner
    value = sizes[d] * column[winner] // sizes[winner]
    report = bound_report(HammingGraphSpec(n, q, d))
    assert report.lower == ((1 - Fraction(sizes[d], value), "hoffman"),)
    assert 1 - Fraction(sizes[d], value) == _reciprocity_hoffman(reciprocity_eigenvalues, n, q, d)


def test_least_hamming_eigenvalue_refuses_a_column_without_a_negative_entry():
    sizes = krawtchouk._shell_sizes(3, 2)
    with pytest.raises(ArithmeticError, match=r"n=3, q=2, d=1"):
        bounds._scan_column(3, 2, 1, [3, 1, 0, 0], sizes)


def test_large_hamming_report_is_fast():
    # one bigint division for the least eigenvalue: about 0.04 s on a 2-core
    # x86-64 host, where one division per shell took 0.8 s
    spec = HammingGraphSpec(5000, 5, 2500)
    start = time.perf_counter()
    report = bound_report(spec)
    assert time.perf_counter() - start < 0.4
    least = min(e.eigenvalue for e in hamming_spectrum(spec).entries)
    assert report.lower == ((1 - Fraction(spec.degree, least), "hoffman"),)


# ---------------------------------------------------------------------------
# the balanced least-eigenvalue probe


def test_probe_frozen_outcomes():
    v = conjecture_probe(2, 8)
    assert v.verdict == "holds"
    assert v.minimum == -10 and v.conjectured == Fraction(-10)
    assert tuple(v.pattern) == (6, 2)
    assert (6, 2) in {tuple(c) for c in v.achieving}
    v = conjecture_probe(3, 6)
    assert v.verdict == "holds" and v.minimum == -18
    v = conjecture_probe(4, 4)
    assert v.verdict == "not-applicable"
    assert v.reason == "(q-1)n/q odd"


def test_probe_holds_wherever_we_can_afford_to_look():
    for q, n in ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (4, 8), (5, 5), (6, 6)):
        if ((q - 1) * n // q) % 2 == 1:
            continue
        verdict = conjecture_probe(q, n)
        assert verdict.verdict == "holds", (q, n)
        pattern = verdict.pattern
        shifts = {pattern[s:] + pattern[:s] for s in range(q)}
        assert shifts & {tuple(c) for c in verdict.achieving}


def test_probe_json_shapes():
    na = conjecture_probe(4, 4).to_json()
    assert na == {"verdict": "not-applicable", "reason": "(q-1)n/q odd"}
    held = conjecture_probe(2, 4).to_json()
    assert held["verdict"] == "holds"
    assert held["minimum"] == "-2"
    assert held["pattern_shell"] == [2, 2]


def test_probe_validation():
    with pytest.raises(DivisibilityError):
        conjecture_probe(3, 7)
    with pytest.raises(DomainError):
        conjecture_probe(1, 4)
    # n = -3 failed with IndexError deep in the balanced route, and n = 0
    # with "negative count in composition (-2, 1, 1)"
    for n in (0, -3):
        with pytest.raises(DomainError, match=f"need n >= 1, got n={n}"):
            conjecture_probe(3, n)
    # a float q failed deep inside with "can't multiply sequence by
    # non-int of type 'float'"
    for q, n in ((5.0, 10), (3, 6.0)):
        with pytest.raises(TypeError):
            conjecture_probe(q, n)
    probe = conjecture_probe(np.int64(3), np.int64(6))
    assert json.dumps(probe.to_json()) == json.dumps(conjecture_probe(3, 6).to_json())


def _packed_spectrum(spec, column):
    # the full spectrum from the packed column, every shell listed: the
    # reference for the balanced route
    entries = tuple(SpectrumEntry(j, value, size) for j, value, size in column)
    return Spectrum(spec, entries, spec.degree, spec.vertex_count)


def _probe_from_packed_spectrum(spectrum):
    q, n = spectrum.graph.group.order, spectrum.graph.n
    minimum, _ = min_eigenvalue(spectrum)
    target = Fraction(-spectrum.regular_degree, n - 1)
    pattern = [n - 2] + [0] * (q - 1)
    pattern[1] += 1
    pattern[q - 1] += 1
    return ProbeVerdict(
        "holds" if minimum == target else "fails",
        q,
        n,
        minimum=minimum,
        conjectured=target,
        pattern=Composition(tuple(pattern)),
        achieving=tuple(e.label for e in spectrum.entries if e.eigenvalue == minimum),
    ).to_json()


def _balanced_report_from_packed_spectrum(spectrum):
    spec = spectrum.graph
    diagnostics = {"balanced": True, "undirected": True}
    lower = []
    try:
        lower.append((hoffman_bound(spectrum), "hoffman"))
    except NoNegativeEigenvalue:
        diagnostics["hoffman_unavailable"] = "NoNegativeEigenvalue"
    upper = [(Fraction(spec.n), "hadamard-character")]
    p = min(f for f in range(2, spec.n + 1) if spec.n % f == 0)
    if isinstance(spec.group, FiniteField) and p ** round(math.log(spec.n, p)) == spec.n:
        diagnostics["prime_power_pair"] = True
    exact = lower[0][0] if lower and lower[0][0] == upper[0][0] else None
    return BoundReport(spec, tuple(lower), tuple(upper), exact, diagnostics).to_json()


def test_balanced_probe_and_report_match_the_packed_spectrum(
    balanced_grid, packed_balanced_columns
):
    group, top = balanced_grid
    q = group.order
    several = 0
    for n in range(q, top + 1, q):
        spec = CompositionGraphSpec(group, n, Composition.balanced(q, n))
        spectrum = _packed_spectrum(spec, packed_balanced_columns[group, n])
        got = json.dumps(bound_report(spec).to_json())
        assert got == json.dumps(_balanced_report_from_packed_spectrum(spectrum)), n
        if isinstance(group, FiniteField) or ((q - 1) * n // q) % 2:
            continue
        probe = conjecture_probe(q, n).to_json()
        assert json.dumps(probe) == json.dumps(_probe_from_packed_spectrum(spectrum)), n
        several += len(probe["achieving_shells"]) > 1
    if isinstance(group, FiniteField) or q == 2:
        return
    assert several  # some probe has more than one shell at the minimum


# Measured at 0.4-2.7 s each on a 2-core x86-64 host; the budget is generous
# so that timing noise cannot fail it.
PROBE_BUDGET_S = 10.0


def test_probe_runs_past_the_composition_work_cap():
    # composition_spectrum refuses all three (Z_7 with n = 21 costs
    # 304594290 of its units); the balanced route reads their nonzero shells
    for q, n, minimum, achieving in (
        (7, 21, -9125468352000, 21),
        (8, 16, -5448643200, 32),
        (6, 36, -76290792475347121351680, 18),
    ):
        start = time.perf_counter()
        verdict = conjecture_probe(q, n)
        assert time.perf_counter() - start < PROBE_BUDGET_S, (q, n)
        assert verdict.verdict == "holds"
        assert verdict.minimum == minimum == verdict.conjectured
        assert len(verdict.achieving) == achieving
        assert verdict.pattern in verdict.achieving


def test_balanced_route_refuses_work_over_its_cap_up_front(monkeypatch):
    message = (
        r"^balanced spectrum would cost 89956772 units "
        r"\(multiply-adds of the group determinant route\); cap is 25000000$"
    )
    start = time.perf_counter()
    with pytest.raises(SizeExceeded, match=message):
        conjecture_probe(10, 20)
    with pytest.raises(SizeExceeded, match=message):
        bound_report(CompositionGraphSpec(cyclic(10), 20, Composition.balanced(10, 20)))
    assert time.perf_counter() - start < 1.0
    # the cap is inclusive
    work = krawtchouk._balanced_work(cyclic(3), 6)
    monkeypatch.setattr(krawtchouk, "BALANCED_MAX_WORK", work)
    assert conjecture_probe(3, 6).verdict == "holds"
    monkeypatch.setattr(krawtchouk, "BALANCED_MAX_WORK", work - 1)
    with pytest.raises(SizeExceeded, match=f"cost {work} units .* cap is {work - 1}$"):
        conjecture_probe(3, 6)


def test_probe_checks_that_the_pattern_shell_is_negative(monkeypatch):
    # the zero shells are left out, which is sound only while the minimum
    # is negative; a route that lost the pattern shell must not pass
    shells = krawtchouk._balanced_shells(cyclic(3), 6)
    pattern = (4, 1, 1)
    monkeypatch.setattr(
        bounds, "_balanced_shells", lambda *args: [e for e in shells if e[0] != pattern]
    )
    with pytest.raises(ArithmeticError, match=r"pattern shell \(4, 1, 1\) has eigenvalue 0"):
        conjecture_probe(3, 6)


def test_probe_verdict_is_a_plain_record():
    v = ProbeVerdict(
        verdict="holds",
        q=2,
        n=4,
        reason=None,
        minimum=-2,
        conjectured=Fraction(-2),
        pattern=Composition((2, 2)),
        achieving=(Composition((2, 2)),),
    )
    assert v.to_json()["conjectured"] == "-2"
