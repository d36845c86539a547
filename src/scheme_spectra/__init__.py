"""Exact spectra of Hamming and composition graphs over finite alphabets,
with orthogonal-representation bounds on the quantum chromatic number.

Five parts are loaded on first use: the cyclotomic ring, :mod:`.cyclotomic`;
the alphabets, :mod:`.groups`; the composition scheme, :mod:`.composition`
(composition Krawtchouk values, graphs, spectra, reports and the probe); the
representation layer, :mod:`.representation`; and the independent routes
with the word layer they stream, :mod:`.oracles`.  Each public name of
theirs is imported when it is first read from the package and then stored
here, so that Hamming spectra, reports, LP certificates and Hoffman bounds
compile none of them, spectra, reports and probes never compile the
representation layer, and only checks compile the oracles.  ``_HOMES``
below says where each such name lives."""

# name -> (the submodule that defines it, the submodules that held it before
# and still forward it), for every name read on first access; "groups" is
# the submodule itself.  This table and _resolve sit above the submodule
# imports: while the package initialises, the import system probes each
# submodule for __path__, through that submodule's __getattr__.
_HOMES = {
    **dict.fromkeys(("CycInt", "cyclotomic_polynomial"), ("cyclotomic", ("exactnum",))),
    **dict.fromkeys(
        """groups Composition CyclicGroup FiniteField GroupSpec cyclic default_modulus
        enumerate_compositions finite_field index_word""".split(),
        ("groups", ()),
    ),
    **dict.fromkeys(
        """all_words char_value comp enumerate_shell shell_size weight word_add
        word_char_exponent word_char_value word_index word_neg word_sub""".split(),
        ("oracles", ("groups",)),
    ),
    **dict.fromkeys(
        ("gen_kraw", "gen_kraw_circulant", "zero_shell_predicate"),
        ("oracles", ("composition", "krawtchouk")),
    ),
    "eigenvector_check": ("oracles", ("composition", "schemes")),
    "projector_identity_check": ("oracles", ("schemes",)),
    **dict.fromkeys(("CompositionGraphSpec", "composition_spectrum"), ("composition", ("schemes",))),
    **dict.fromkeys(("ProbeVerdict", "conjecture_probe"), ("composition", ("bounds",))),
    **dict.fromkeys(
        """Representation build_representation hadamard_representation representation_seed
        verify_representation""".split(),
        ("representation", ("bounds",)),
    ),
}


def _resolve(module: str, name: str):
    # PEP 562, for the package and for each submodule that forwards: ``name``
    # read from ``module``, imported from its home.  A submodule forwards only
    # the public names it held, not the caps and private helpers that moved
    # with them: a patch there would change nothing that the home reads.
    home, olds = _HOMES.get(name, (None, ()))
    if home is None or module not in (__name__, *(f"{__name__}.{old}" for old in olds)):
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    from importlib import import_module

    found = import_module(f"{__name__}.{home}")
    return found if name == home else getattr(found, name)


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
    trace_identity_check,
)
from .bounds import BoundReport, LPSolution, bound_report, check_lp_solution, lp_two_support

__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _HOMES.keys())


def __getattr__(name: str):
    # a name read on first access is stored here, so that the next access is
    # a plain attribute
    value = globals()[name] = _resolve(__name__, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
