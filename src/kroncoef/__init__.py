"""Exact Kronecker coefficients of the symmetric group.

Closed formulas cover the cases where, after symmetry normalization, two of
the three indexing partitions are two-row or hook shapes; an independent
character-sum oracle covers everything else and certifies the formulas.
All arithmetic is exact (arbitrary-precision integers and rationals).
"""

from .characters import (
    DELTA_RULE,
    HOOK_HOOK,
    HOOK_TWO_ROW,
    ORACLE,
    TWO_ROW_TWO_ROW,
    IntegralityViolation,
    KroneckerResult,
    SizeMismatch,
    character,
    clear_cache,
    dimension,
    kron_oracle,
)
from .closed_forms import (
    AUTO,
    CLOSED_ONLY,
    ORACLE_ONLY,
    HypothesisNotMet,
    NoClosedFormApplicable,
    ShapeMismatch,
    compute,
    kron_hook_tworow,
    kron_tworow_corollary,
    kron_two_hooks,
    kron_two_tworow,
)
from .lattice import (
    gamma_region_bruteforce,
    gamma_region_closed,
    reachable,
    sigma_bruteforce,
    sigma_closed,
)
from .partitions import (
    NegativePart,
    Partition,
    conjugate,
    double_hook_parts,
    enumerate_partitions,
    hook_parts,
    make_partition,
    two_row_parts,
    z_of,
)

__version__ = "0.1.0"

# schur_eval, with fractions, loads on first access to one of these names
# (PEP 562), so that importing the package or its CLI does not pay for it.
_SCHUR_EVAL_NAMES = frozenset((
    "RepeatedValue",
    "SignedAlphabet",
    "SingularPoint",
    "alphabet_negate",
    "alphabet_product",
    "alphabet_sum",
    "power_sum_eval",
    "schur_eval_bialternant",
    "schur_eval_characters",
    "verify_comultiplication",
    "verify_sergeev_specializations",
))


def __getattr__(name):
    if name not in _SCHUR_EVAL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import schur_eval

    value = getattr(schur_eval, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _SCHUR_EVAL_NAMES)


__all__ = [
    "AUTO",
    "CLOSED_ONLY",
    "DELTA_RULE",
    "HOOK_HOOK",
    "HOOK_TWO_ROW",
    "HypothesisNotMet",
    "IntegralityViolation",
    "KroneckerResult",
    "NegativePart",
    "NoClosedFormApplicable",
    "ORACLE",
    "ORACLE_ONLY",
    "Partition",
    "RepeatedValue",
    "ShapeMismatch",
    "SignedAlphabet",
    "SingularPoint",
    "SizeMismatch",
    "TWO_ROW_TWO_ROW",
    "alphabet_negate",
    "alphabet_product",
    "alphabet_sum",
    "character",
    "clear_cache",
    "compute",
    "conjugate",
    "dimension",
    "double_hook_parts",
    "enumerate_partitions",
    "gamma_region_bruteforce",
    "gamma_region_closed",
    "hook_parts",
    "kron_hook_tworow",
    "kron_oracle",
    "kron_tworow_corollary",
    "kron_two_hooks",
    "kron_two_tworow",
    "make_partition",
    "power_sum_eval",
    "reachable",
    "schur_eval_bialternant",
    "schur_eval_characters",
    "sigma_bruteforce",
    "sigma_closed",
    "two_row_parts",
    "verify_comultiplication",
    "verify_sergeev_specializations",
    "z_of",
]
