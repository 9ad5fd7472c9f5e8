import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zspairs import (
    ContainsZeroError,
    EmptyError,
    KTooSmallError,
    LimitExceededError,
    Multiset,
    NonPositiveCountError,
    NonPositiveValueError,
    NotZeroSumError,
    UnbalancedError,
    ZeroSumSequence,
    extremal_construction,
    normalize,
    pair_canonical,
    pair_to_sequence,
    sequence_to_pair,
)
from helpers import balanced_pairs, ms, multisets, pair


class TestNormalize:
    def test_sorts_descending(self):
        assert normalize([(1, 2), (7, 3)]).runs == ((7, 3), (1, 2))

    def test_merges_duplicate_runs(self):
        assert normalize([(5, 1), (5, 1)]).runs == ((5, 2),)

    def test_drops_zero_counts(self):
        assert normalize([(3, 0), (2, 1)]).runs == ((2, 1),)

    def test_rejects_non_positive_value(self):
        with pytest.raises(NonPositiveValueError):
            normalize([(0, 1)])
        with pytest.raises(NonPositiveValueError):
            normalize([(-3, 2)])

    def test_rejects_negative_count(self):
        with pytest.raises(NonPositiveCountError):
            normalize([(3, -1)])

    def test_rejects_empty_result(self):
        with pytest.raises(EmptyError):
            normalize([])
        with pytest.raises(EmptyError):
            normalize([(3, 0)])

    def test_width_limits(self):
        with pytest.raises(LimitExceededError):
            normalize([(10**6 + 1, 1)])
        with pytest.raises(LimitExceededError):
            normalize([(1, 10**6 + 1)])
        with pytest.raises(LimitExceededError):
            normalize([(10**6, 3000)])  # sum would overflow 32-bit

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Multiset(((1, 1), (7, 3)))  # not descending
        with pytest.raises(ValueError):
            Multiset(((7, 3), (7, 1)))  # duplicate run


@pytest.mark.parametrize(
    "runs,error,message",
    [
        ((), EmptyError, "multiset has no elements"),
        (((0, 1),), NonPositiveValueError, "value 0 must be positive"),
        (((2, 0),), NonPositiveCountError, "count 0 must be positive"),
    ],
    ids=["empty", "zero-value", "zero-count"],
)
def test_direct_construction_errors(runs, error, message):
    with pytest.raises(error) as info:
        Multiset(runs)
    assert type(info.value) is error
    assert str(info.value) == message


class TestMeasures:
    @pytest.mark.parametrize(
        "elements,expected",
        [
            ((7, 7, 7, 1, 1), (23, 7, 5)),
            ((6, 6, 6, 5), (23, 6, 4)),
            ((1,), (1, 1, 1)),
        ],
    )
    def test_examples(self, elements, expected):
        m = ms(*elements)
        assert (m.sigma, m.max_value, m.cardinality) == expected

    @given(multisets, st.randoms(use_true_random=False))
    def test_additive_over_random_splits(self, m, rng):
        left, right = [], []
        for v, c in m.runs:
            take = rng.randint(0, c)
            if take:
                left.append((v, take))
            if c - take:
                right.append((v, c - take))
        if not left or not right:
            return
        a, b = normalize(left), normalize(right)
        assert a.sigma + b.sigma == m.sigma
        assert normalize(a.runs + b.runs) == m


class TestPairCanonical:
    def test_larger_lex_side_comes_first(self):
        p = pair_canonical(ms(6, 6, 6, 5), ms(7, 7, 7, 1, 1))
        assert p.a == ms(7, 7, 7, 1, 1)
        assert p.b == ms(6, 6, 6, 5)

    def test_equal_multisets_allowed(self):
        p = pair_canonical(ms(1), ms(1))
        assert p.a == p.b == ms(1)

    def test_prefix_rule(self):
        p = pair_canonical(ms(2, 2), ms(2, 1, 1))
        assert p.a == ms(2, 2)
        assert p.b == ms(2, 1, 1)

    @given(multisets, multisets)
    def test_symmetric(self, x, y):
        assert pair_canonical(x, y) == pair_canonical(y, x)
        # re-normalizing a side never changes the canonical pair
        assert pair_canonical(normalize(x.runs), y) == pair_canonical(x, y)

    @given(multisets, multisets)
    def test_ordering_matches_element_sequences(self, x, y):
        # Run-list comparison is the same as comparing descending
        # element sequences, which is what the orientation rule states.
        assert (x < y) == (tuple(x.elements()) < tuple(y.elements()))

    def test_non_canonical_pair_rejected(self):
        from zspairs import Pair

        with pytest.raises(ValueError):
            Pair(ms(1), ms(2))


class TestSequenceConversions:
    def test_sequence_to_pair(self):
        p = sequence_to_pair(ZeroSumSequence((3, -2, 3, -2, -2)))
        assert p == pair((3, 3), (2, 2, 2))

    def test_smallest_sequence(self):
        assert sequence_to_pair(ZeroSumSequence((1, -1))) == pair((1,), (1,))

    def test_not_zero_sum_rejected(self):
        with pytest.raises(NotZeroSumError):
            ZeroSumSequence((1, 1, -1))

    def test_zero_term_rejected(self):
        with pytest.raises(ContainsZeroError):
            ZeroSumSequence((1, 0, -1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyError):
            ZeroSumSequence(())

    def test_pair_to_sequence(self):
        seq = pair_to_sequence(pair((3, 3), (2, 2, 2)))
        assert seq.terms == (3, 3, -2, -2, -2)

    def test_pair_to_sequence_singleton(self):
        assert pair_to_sequence(pair((1,), (1,))).terms == (1, -1)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedError):
            pair_to_sequence(pair((2, 1), (2,)))

    @given(balanced_pairs())
    def test_round_trip(self, p):
        assert sequence_to_pair(pair_to_sequence(p)) == p


class TestExtremalConstruction:
    def test_k3(self):
        assert extremal_construction(3) == pair((3, 3), (2, 2, 2))

    def test_k2(self):
        assert extremal_construction(2) == pair((2,), (1, 1))

    def test_k1_rejected(self):
        with pytest.raises(KTooSmallError):
            extremal_construction(1)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_shape(self, k):
        p = extremal_construction(k)
        assert p.length == 2 * k - 1
        assert p.a.sigma == p.b.sigma == k * (k - 1)
        assert p.a.max_value == k
        assert p.b.max_value == k - 1


class TestMultisetOps:
    def test_count_and_contains(self):
        m = ms(7, 7, 1)
        assert m.count_of(7) == 2
        assert m.count_of(2) == 0
        assert 1 in m and 4 not in m

    def test_elements_descending(self):
        assert list(ms(1, 7, 7).elements()) == [7, 7, 1]
