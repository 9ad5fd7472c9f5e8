import copy
import operator
import pickle
import types

import pytest

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


# The value types' contract: for each, keyword arguments that build one,
# its compared fields in order, and its exact repr.  Equality and hash
# cover exactly those fields, so set and dict orders cannot shift.
_SEVEN = "Multiset(runs=((7, 3), (1, 2)))"
_SIX = "Multiset(runs=((6, 3), (5, 1)))"
_VALUES = {
    "Multiset": (
        zspairs.Multiset, {"runs": ((7, 2), (1, 1))}, ("runs",),
        "Multiset(runs=((7, 2), (1, 1)))",
    ),
    "Pair": (
        zspairs.Pair,
        {"a": zspairs.Multiset(((7, 3), (1, 2))), "b": zspairs.Multiset(((6, 3), (5, 1)))},
        ("a", "b"),
        f"Pair(a={_SEVEN}, b={_SIX})",
    ),
    "ZeroSumSequence": (
        zspairs.ZeroSumSequence, {"terms": (3, -1, -2)}, ("terms",),
        "ZeroSumSequence(terms=(3, -1, -2))",
    ),
    "DerivationPlan": (
        zspairs.DerivationPlan, {"steps": ((7, 6, 2), (7, 5, 1))}, ("steps",),
        "DerivationPlan(steps=((7, 6, 2), (7, 5, 1)))",
    ),
    "AllocationResult": (
        zspairs.AllocationResult, {"t": 1, "z": ((2, 0), (1, 1))}, ("t", "z"),
        "AllocationResult(t=1, z=((2, 0), (1, 1)))",
    ),
    "EnumConfig": (
        zspairs.EnumConfig, {"k": 3}, ("k", "sum_cap", "mode"),
        "EnumConfig(k=3, sum_cap=9, mode='brute')",
    ),
    "EllReport": (
        zspairs.EllReport,
        {
            "k": 7, "ell": 9,
            "witnesses": (zspairs.Pair(zspairs.Multiset(((7, 3), (1, 2))),
                                       zspairs.Multiset(((6, 3), (5, 1)))),),
            "pairs_scanned": 10, "irreducible_count": 4, "mode": "pruned",
            "sum_cap": 23, "wall_time": 0.5,
        },
        ("k", "ell", "witnesses", "pairs_scanned", "irreducible_count", "mode",
         "sum_cap", "wall_time"),
        f"EllReport(k=7, ell=9, witnesses=(Pair(a={_SEVEN}, b={_SIX}),), "
        "pairs_scanned=10, irreducible_count=4, mode='pruned', sum_cap=23, wall_time=0.5)",
    ),
    "ReducibilityWitness": (
        zspairs.ReducibilityWitness,
        {"a_sub": zspairs.Multiset(((2, 1),)), "b_sub": zspairs.Multiset(((1, 2),))},
        ("a_sub", "b_sub"),
        "ReducibilityWitness(a_sub=Multiset(runs=((2, 1),)), b_sub=Multiset(runs=((1, 2),)))",
    ),
}
_value_cases = pytest.mark.parametrize("name", list(_VALUES))


@_value_cases
def test_value_repr(name):
    cls, kwargs, _, text = _VALUES[name]
    assert repr(cls(**kwargs)) == text


@_value_cases
def test_value_equality_and_hash_cover_the_fields(name):
    cls, kwargs, names, _ = _VALUES[name]
    x = cls(**kwargs)
    fields = tuple(getattr(x, f) for f in names)
    assert hash(x) == hash(fields)
    assert x == cls(*fields) and not x != cls(*fields)
    assert x.__eq__(fields) is NotImplemented and x != fields
    assert len({x, cls(**kwargs)}) == 1


@_value_cases
def test_value_is_immutable(name):
    cls, kwargs, names, _ = _VALUES[name]
    x = cls(**kwargs)
    for attr in (*names, "cardinality", "sigma") if name == "Multiset" else names:
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    # A name that is no field: the slotted dataclasses raised TypeError here.
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        x.other = 1
    assert repr(x) == _VALUES[name][3]


@_value_cases
def test_value_survives_copy_and_pickle(name):
    cls, kwargs, _, _ = _VALUES[name]
    x = cls(**kwargs)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and repr(y) == repr(x)


@_value_cases
def test_value_keywords_are_checked(name):
    # cache._rebuilt relies on EllReport(**report) raising TypeError
    # for a field missing or extra.
    cls, kwargs, _, _ = _VALUES[name]
    with pytest.raises(TypeError):
        cls(**kwargs, other=1)
    # Only DerivationPlan's one field has a default.
    for missing in kwargs if name != "DerivationPlan" else ():
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in kwargs.items() if f != missing})
    # A survey is (k, sum_cap, mode): the length window belongs to
    # enumerate_irreducible, not to the config a report is cached under.
    if name == "EnumConfig":
        with pytest.raises(TypeError):
            cls(k=4, length_window=(1, 3))


def test_value_keyword_defaults():
    assert zspairs.EnumConfig(k=3) == zspairs.EnumConfig(3, 9, "brute")
    assert zspairs.EnumConfig(k=4, mode="pruned").sum_cap == 16
    assert zspairs.DerivationPlan().steps == ()
    with pytest.raises(TypeError):
        zspairs.EnumConfig()
    with pytest.raises(TypeError):
        zspairs.Multiset(runs=((2, 1),), sigma=2)


def test_multiset_compares_and_orders_by_runs_alone():
    # 1^5 has the larger cardinality and sum, but the smaller runs.
    small, large = zspairs.Multiset(((1, 5),)), zspairs.Multiset(((2, 1),))
    assert small.runs < large.runs and small.sigma > large.sigma
    assert small < large and small <= large and large > small and large >= small
    assert not small > large and not small >= large and not large < small
    assert small <= zspairs.Multiset(((1, 5),)) >= small
    assert sorted([large, small, large]) == [small, large, large]
    assert hash(small) == hash((small.runs,))
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(small, small.runs)
    # No other value type orders.
    p = zspairs.Pair(**_VALUES["Pair"][1])
    with pytest.raises(TypeError):
        p < p
