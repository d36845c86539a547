"""Exact spectra of Hamming and composition graphs over finite alphabets,
with orthogonal-representation bounds on the quantum chromatic number.

The representation layer, :mod:`.representation`, is loaded on first use:
``Representation``, ``build_representation``, ``hadamard_representation``,
``representation_seed`` and ``verify_representation`` are imported when
one of them is first read from the package, so that spectra, bound reports
and probes never compile it."""

from .errors import (
    BadLabel,
    DivisibilityError,
    DomainError,
    Infeasible,
    IrrationalEigenvalue,
    NoNegativeEigenvalue,
    NonRealEigenvalue,
    NotFound,
    NotOrthogonal,
    OrderMismatch,
    RangeError,
    SchemeSpectraError,
    SizeExceeded,
    SpecMismatch,
    SumMismatch,
    UnsupportedSize,
)
from .exactnum import CycInt, binom, cyclotomic_polynomial, entropy_q, multinom
from .groups import (
    Composition,
    CyclicGroup,
    FiniteField,
    GroupSpec,
    all_words,
    char_value,
    comp,
    cyclic,
    default_modulus,
    enumerate_compositions,
    enumerate_shell,
    finite_field,
    index_word,
    shell_size,
    weight,
    word_add,
    word_char_exponent,
    word_char_value,
    word_index,
    word_neg,
    word_sub,
)
from .krawtchouk import (
    first_nonpositive,
    first_root_ratio,
    gen_kraw,
    gen_kraw_circulant,
    kraw,
    kraw_column,
    zero_shell_predicate,
)
from .schemes import (
    CompositionGraphSpec,
    HammingGraphSpec,
    Spectrum,
    SpectrumEntry,
    composition_spectrum,
    eigenvector_check,
    hamming_spectrum,
    hoffman_bound,
    max_eigenvalue,
    min_eigenvalue,
    multiplicity_ratio,
    projector_identity_check,
    trace_identity_check,
)
from .bounds import (
    _REPRESENTATION_NAMES,
    BoundReport,
    LPSolution,
    ProbeVerdict,
    bound_report,
    check_lp_solution,
    conjecture_probe,
    lp_two_support,
)

__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _REPRESENTATION_NAMES)


def __getattr__(name: str):
    # PEP 562: a representation name is imported on first access and then
    # stored here, so that the next access is a plain attribute
    if name not in _REPRESENTATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import representation

    value = globals()[name] = getattr(representation, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _REPRESENTATION_NAMES)
