"""Fixtures shared by the test modules."""

import pytest

from scheme_spectra import binom, krawtchouk


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
