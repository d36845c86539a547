"""Fixtures shared by the test modules."""

import pytest

from scheme_spectra import (
    Composition,
    binom,
    composition,
    cyclic,
    cyclotomic,
    finite_field,
    krawtchouk,
    multinom,
)


class _ReciprocityEigenvalues(dict):
    # (n, q, d) -> the eigenvalues K_d(j), j = 0..n, of H(n, q, d) by the
    # former route, kept as the oracle: K_d(j) = m_d K_j(d) / m_j from the
    # column K_j(d), one bigint division per shell, each checked exact.
    # A case is computed on its first lookup and kept for the session.
    def __missing__(self, key):
        n, q, d = key
        column = krawtchouk.kraw_column(n, q, d)
        sizes = [(q - 1) ** j * binom(n, j) for j in range(n + 1)]
        values = []
        for j, dual in enumerate(column):
            value, rem = divmod(sizes[d] * dual, sizes[j])
            assert not rem, (n, q, d, j)
            values.append(value)
        self[key] = values
        return values


@pytest.fixture(scope="session")
def reciprocity_eigenvalues():
    """The Hamming eigenvalues by reciprocity, shared by the spectrum and
    bound-report tests that run over the same grid."""
    return _ReciprocityEigenvalues()


# The balanced generators (n/q, ..., n/q) checked against the packed
# expansion: each group with the largest n, a multiple of q, on its grid.
BALANCED_GRIDS = [
    (cyclic(2), 40),
    (cyclic(3), 24),
    (cyclic(4), 16),
    (cyclic(5), 15),
    (cyclic(6), 12),
    (cyclic(7), 14),
    (finite_field(4), 12),
    (finite_field(8), 8),
]


@pytest.fixture(
    params=BALANCED_GRIDS, ids=[f"{type(g).__name__}{g.order}" for g, _ in BALANCED_GRIDS]
)
def balanced_grid(request):
    """One (group, top) of BALANCED_GRIDS per test case."""
    return request.param


class _PackedBalancedColumns(dict):
    # (group, n) -> (j, eigenvalue, multinom(n, j)) on every shell of the
    # balanced generator, from the packed expansion (character sums,
    # independent of the group determinant) and reciprocity.
    def __missing__(self, key):
        group, n = key
        balanced = Composition.balanced(group.order, n)
        values, _ = composition._read_out(group, n, balanced, multinom(n, balanced))
        labels, sizes = composition._colex_shells(group.order, n)
        self[key] = [(Composition(j), value, size) for j, value, size in zip(labels, values, sizes)]
        return self[key]


@pytest.fixture(scope="session")
def packed_balanced_columns():
    """The packed balanced columns, shared by the balanced-route and
    balanced-report tests that run over BALANCED_GRIDS."""
    return _PackedBalancedColumns()


class SignUndecided(ArithmeticError):
    """The fixed-point sum of _real_sign failed to decide a nonzero real
    value, which the precision bound below proves cannot happen."""


def _real_sign(value):
    """The exact sign (-1, 0 or 1) of a real cyclotomic integer, one value
    at a time: the pairwise oracle for the extremes' key ranking.

    With power-basis coefficients c_k, deg = len(c) and L = sum |c_k|, the
    value is sum c_k cos(2*pi*k/m).  One integer sum S = sum c_k T_k over
    the fixed-point table of ``cyclotomic._cos_table`` at B bits satisfies
    |S - 2**B * value| < 2L.  A nonzero alpha in Z[zeta_m] has a norm, the
    product of its deg Galois conjugates, that is a nonzero integer, and
    each conjugate has modulus at most L, so |alpha| >= L**-(deg - 1).  With
    B = ``cyclotomic._sign_bits(deg, L)`` >= deg * bitlen(L) + 2, 2**B > 4 L**deg,
    hence 2**B * |alpha| > 4L and |S| > 2L with the sign of alpha.  So
    |S| <= 2L cannot happen for a nonzero real value: the oracle raises
    SignUndecided rather than guess.
    """
    coeffs = value.coeffs
    size = sum(abs(c) for c in coeffs)
    if not size:
        return 0
    bits = cyclotomic._sign_bits(len(coeffs), size)
    table = cyclotomic._cos_table(value.order, bits)
    total = sum(c * t for c, t in zip(coeffs, table) if c)
    if abs(total) <= 2 * size:
        raise SignUndecided(
            f"fixed-point sum {total} at {bits} bits does not decide the sign of {value!r}"
        )
    return 1 if total > 0 else -1


@pytest.fixture(scope="session")
def real_sign():
    """The exact sign of one real cyclotomic integer (see _real_sign)."""
    return _real_sign
