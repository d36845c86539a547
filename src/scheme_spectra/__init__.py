"""Exact spectra of Hamming and composition graphs over finite alphabets,
with orthogonal-representation bounds on the quantum chromatic number.

Four parts are loaded on first use: the cyclotomic ring, :mod:`.cyclotomic`;
the alphabets, :mod:`.groups`; the composition scheme, :mod:`.composition`
(composition Krawtchouk values, graphs, spectra, reports and the probe); and
the representation layer, :mod:`.representation`.  Each public name of
theirs is imported when it is first read from the package and then stored
here, so that Hamming spectra, reports, LP certificates and Hoffman bounds
compile none of them, and spectra, reports and probes never compile the
representation layer."""

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
from .exactnum import binom, entropy_q, multinom
from . import bounds, exactnum, krawtchouk, schemes
from .krawtchouk import first_nonpositive, first_root_ratio, kraw, kraw_column
from .schemes import (
    HammingGraphSpec,
    Spectrum,
    SpectrumEntry,
    hamming_spectrum,
    hoffman_bound,
    max_eigenvalue,
    min_eigenvalue,
    multiplicity_ratio,
    projector_identity_check,
    trace_identity_check,
)
from .bounds import BoundReport, LPSolution, bound_report, check_lp_solution, lp_two_support

__version__ = "0.1.0"

# name -> the submodule that defines it, for the names read on first access:
# the alphabets', and the ones that exactnum, krawtchouk, schemes and bounds
# forward; "groups" is the submodule itself, which the package listed before
# it was loaded on first use
_HOMES = {
    **dict.fromkeys(exactnum._CYCLOTOMIC_NAMES, "cyclotomic"),
    **dict.fromkeys(
        """groups Composition CyclicGroup FiniteField GroupSpec all_words char_value comp
        cyclic default_modulus enumerate_compositions enumerate_shell finite_field
        index_word shell_size weight word_add word_char_exponent word_char_value
        word_index word_neg word_sub""".split(),
        "groups",
    ),
    **dict.fromkeys(
        krawtchouk._COMPOSITION_NAMES | schemes._COMPOSITION_NAMES | bounds._COMPOSITION_NAMES,
        "composition",
    ),
    **dict.fromkeys(bounds._REPRESENTATION_NAMES, "representation"),
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _HOMES.keys())


def __getattr__(name: str):
    # PEP 562: a name read on first access is imported from its submodule and
    # then stored here, so that the next access is a plain attribute
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
