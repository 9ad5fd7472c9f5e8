import types

import zspairs

# The package's public API: `__all__` is derived from the imports in
# `zspairs/__init__.py`, so a name they gain or lose shows up here.
_PUBLIC = {
    "__version__",
    "AllocationResult", "ContainsZeroError", "DerivationError", "DerivationPlan",
    "EllReport", "EmptyError", "EmptyResultError", "EnumConfig", "EqualValuesError",
    "FormatError", "InfeasiblePlanError", "KTooSmallError", "LimitExceededError",
    "MAX_K", "Multiset", "NoSplitError", "NoSuchElementError", "NonPositiveCountError",
    "NonPositiveValueError", "NotZeroSumError", "Pair", "ReducibilityWitness",
    "ResourceLimitError", "TooLargeError", "TooSmallError", "UnbalancedError",
    "ZeroSumSequence", "allocate_marbles", "compute_ell", "derive", "derive_chain",
    "derive_product", "enumerate_irreducible", "enumerate_multisets",
    "extremal_construction", "extremal_pairs", "format_multiset", "format_pair",
    "is_irreducible", "is_irreducible_naive", "multiset", "normalize",
    "pair_canonical", "pair_from_json", "pair_to_json", "pair_to_sequence",
    "parse_chain", "parse_multiset", "parse_pair", "parse_plan",
    "reducibility_witness", "sequence_to_pair", "split_index",
    "verify_theorem_bounds",
}


def test_all_is_exactly_the_public_api():
    assert len(_PUBLIC) == 55
    assert sorted(zspairs.__all__) == sorted(_PUBLIC)
    assert not [n for n in zspairs.__all__ if isinstance(getattr(zspairs, n), types.ModuleType)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from zspairs import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(zspairs.__all__)
