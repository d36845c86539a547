"""Exception types shared across the library."""

from __future__ import annotations


class SchemeSpectraError(Exception):
    """Base class for every error raised by this library."""


class OrderMismatch(SchemeSpectraError, ValueError):
    """Arithmetic attempted between cyclotomic integers of different root orders."""


class SumMismatch(SchemeSpectraError, ValueError):
    """Composition parts do not sum to the required total."""


class DomainError(SchemeSpectraError, ValueError):
    """Argument outside the mathematical domain of the function."""


class SpecMismatch(SchemeSpectraError, ValueError):
    """Elements or tuples do not belong to the stated group."""


class BadLabel(SchemeSpectraError, ValueError):
    """Shell label is not a valid weight or composition for the given length:
    the one refusal of a malformed label, with one message per fault wherever
    the label enters (groups._shell_label)."""


class RangeError(SchemeSpectraError, ValueError):
    """Index outside the admissible 0..n range."""


class NotFound(SchemeSpectraError, LookupError):
    """Scan completed without locating the requested index."""


class DivisibilityError(SchemeSpectraError, ValueError):
    """A divisibility hypothesis (such as q dividing n) fails to hold."""


class UnsupportedSize(SchemeSpectraError, ValueError):
    """Problem size exceeds what the chosen exact algorithm supports."""


class SizeExceeded(SchemeSpectraError, ValueError):
    """Instance is larger than the guard built into a dense computation."""


class Infeasible(SchemeSpectraError, ValueError):
    """No feasible solution exists, or a claimed solution violates a constraint."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class NoNegativeEigenvalue(SchemeSpectraError, ValueError):
    """Spectral bound requires a negative eigenvalue and none is present."""


class NonRealEigenvalue(SchemeSpectraError, ValueError):
    """Eigenvalue comparison requires real values; a non-real one was found.

    Typically the result of asking for extremes of a directed graph's
    spectrum, which need not be real.
    """


class IrrationalEigenvalue(SchemeSpectraError, ValueError):
    """An exact rational answer was requested but the eigenvalue is irrational."""


class NotOrthogonal(SchemeSpectraError):
    """An adjacent pair of representation rows has nonzero inner product."""

    def __init__(self, row_x: int, row_y: int, word_x: tuple, word_y: tuple):
        self.row_x = row_x
        self.row_y = row_y
        self.word_x = word_x
        self.word_y = word_y
        super().__init__(
            f"rows {row_x} and {row_y} are not orthogonal "
            f"(words {word_x} and {word_y})"
        )

