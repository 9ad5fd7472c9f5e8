"""Irreducible zero-sum multiset pairs over the integers.

A pair {A, B} of nonempty multisets of positive integers with equal sums
is irreducible when no proper nonempty submultisets of the two sides have
equal sums; equivalently, the corresponding zero-sum sequence has no
proper nonempty zero-sum subsequence.  This package decides
irreducibility, applies the derivation calculus that shortens pairs while
preserving irreducibility, and exhaustively surveys maximum pair lengths
under explicit caps.
"""

__version__ = "0.1.0"

from .core import (
    ContainsZeroError,
    EmptyError,
    KTooSmallError,
    LimitExceededError,
    Multiset,
    NonPositiveCountError,
    NonPositiveValueError,
    NotZeroSumError,
    Pair,
    ResourceLimitError,
    UnbalancedError,
    ZeroSumSequence,
    extremal_construction,
    multiset,
    normalize,
    pair_canonical,
    pair_to_sequence,
    sequence_to_pair,
)
from .derivation import (
    AllocationResult,
    DerivationError,
    DerivationPlan,
    EmptyResultError,
    EqualValuesError,
    InfeasiblePlanError,
    NoSplitError,
    NoSuchElementError,
    TooSmallError,
    allocate_marbles,
    derive,
    derive_chain,
    derive_product,
    split_index,
)
from .enumeration import (
    MAX_K,
    EllReport,
    EnumConfig,
    compute_ell,
    enumerate_irreducible,
    enumerate_multisets,
    extremal_pairs,
    verify_theorem_bounds,
)
from .formats import (
    FormatError,
    format_multiset,
    format_pair,
    pair_from_json,
    pair_to_json,
    parse_chain,
    parse_multiset,
    parse_pair,
    parse_plan,
)
from .irreducibility import (
    ReducibilityWitness,
    TooLargeError,
    is_irreducible,
    is_irreducible_naive,
    reducibility_witness,
)

from types import ModuleType as _Module

# Every public name the imports above bind; the submodules they bind are not API.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
]
