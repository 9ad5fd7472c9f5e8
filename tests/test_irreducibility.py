import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zspairs import (
    Pair,
    TooLargeError,
    enumerate_multisets,
    is_irreducible,
    is_irreducible_naive,
    normalize,
    parse_pair,
    reducibility_witness,
)
from zspairs.irreducibility import _reduce, _subset_sums
from helpers import (
    balanced_pairs,
    boundary_pairs,
    extract_reference,
    ms,
    multisets,
    pair,
    residue_pairs,
    shared_sum_reference,
    subset_sums_reference,
    wide_pairs,
)


def subset_sums_by_force(elements):
    """Oracle: all submultiset sums, one per choice of how many copies of
    each distinct value to take.  That is the set of sums over the 2^n
    element subsets, but costs only the product of (count + 1), so long
    hypothesis examples stay inside the deadline."""
    counts = Counter(elements)
    out = set()
    for takes in itertools.product(*(range(c + 1) for c in counts.values())):
        out.add(sum(v * t for v, t in zip(counts, takes)))
    return out


def full_sums(m):
    """The package's fold of m at the full width, sigma + 1."""
    return _subset_sums(m, m.sigma + 1)


def sum_set(bits):
    return {s for s in range(bits.bit_length()) if bits >> s & 1}


class TestProperSubsetSums:
    """The package's full-width fold, and the tests' reference fold."""

    def test_two_equal_elements(self):
        assert sum_set(full_sums(ms(5, 5))) == {0, 5, 10}

    def test_multiples(self):
        assert sum_set(full_sums(ms(2, 2, 2, 2, 2))) == {0, 2, 4, 6, 8, 10}

    def test_against_brute_force(self):
        # Frozen from the 2^4 enumeration of {6,6,6,5}.
        assert subset_sums_by_force([6, 6, 6, 5]) == {0, 5, 6, 11, 12, 17, 18, 23}
        assert sum_set(full_sums(ms(6, 6, 6, 5))) == {
            0, 5, 6, 11, 12, 17, 18, 23,
        }

    @given(multisets)
    def test_matches_oracle(self, m):
        sums = subset_sums_by_force(list(m.elements()))
        assert sum_set(full_sums(m)) == sums
        assert sum_set(subset_sums_reference(m)) == sums

    @given(multisets)
    def test_boundary_bits(self, m):
        bits = full_sums(m)
        assert bits & 1 and bits.bit_length() == m.sigma + 1

    def test_complement_symmetry_bulk(self):
        rng = random.Random(13)
        for _ in range(10_000):
            runs = [
                (rng.randint(1, 9), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            m = normalize(runs)
            forward = f"{full_sums(m):0{m.sigma + 1}b}"
            assert forward == forward[::-1]


class TestIsIrreducible:
    def test_worked_example(self):
        assert is_irreducible(pair((7, 7, 7, 1, 1), (6, 6, 6, 5)))

    def test_order_example_pair(self):
        assert is_irreducible(pair((5, 5), (2, 2, 2, 2, 2)))

    def test_smallest_pair(self):
        assert is_irreducible(pair((1,), (1,)))

    def test_reducible(self):
        assert not is_irreducible(pair((2, 2), (1, 1, 1, 1)))

    def test_unbalanced_is_not_irreducible(self):
        assert not is_irreducible(pair((2, 1), (3, 1)))


class TestNaiveOracle:
    def test_worked_example(self):
        assert is_irreducible_naive(pair((7, 7, 7, 1, 1), (6, 6, 6, 5)))

    def test_shared_element(self):
        assert not is_irreducible_naive(pair((2, 1), (2, 1)))

    def test_smallest_pair(self):
        assert is_irreducible_naive(pair((1,), (1,)))

    def test_unbalanced_pair(self):
        assert is_irreducible_naive(parse_pair("3 | 2")) is False

    def test_guard(self):
        with pytest.raises(TooLargeError):
            is_irreducible_naive(pair((1,) * 16, (1,) * 16))

    def test_agrees_with_fast_engine_small_scale(self):
        # Exhaustive over values <= 5, common sum <= 10; the full-scale
        # sweep lives in the acceptance suite.
        for total in range(1, 11):
            candidates = list(enumerate_multisets(5, total))
            for i, a in enumerate(candidates):
                for b in candidates[i:]:
                    p = Pair(a, b)
                    assert is_irreducible(p) == is_irreducible_naive(p), p


class TestWitness:
    def test_deterministic_witness(self):
        w = reducibility_witness(pair((2, 2), (1, 1, 1, 1)))
        assert w.a_sub == ms(2)
        assert w.b_sub == ms(1, 1)

    def test_absent_for_irreducible(self):
        assert reducibility_witness(pair((7, 7, 7, 1, 1), (6, 6, 6, 5))) is None

    def test_absent_for_unbalanced(self):
        p = pair((2, 1), (2,))
        assert reducibility_witness(p) is None
        assert not p.balanced  # distinguishes this case from irreducibility

    def test_absent_for_balanced_singleton_side(self):
        # {3} has no proper nonempty submultisets, so the pair is
        # irreducible and the absence means exactly that.
        p = pair((2, 1), (3,))
        assert p.balanced
        assert reducibility_witness(p) is None

    def test_prefers_larger_values(self):
        # Smallest shared interior sum is 4; the second side can realise
        # it as {4} or {2,2}, and the greedy walk picks the 4.
        w = reducibility_witness(pair((6, 4), (4, 2, 2, 1, 1)))
        assert w.a_sub == ms(4)
        assert w.b_sub == ms(4)

    @given(balanced_pairs())
    def test_witness_soundness(self, p):
        w = reducibility_witness(p)
        if w is None:
            assert is_irreducible(p) or not p.balanced
            return
        s = w.a_sub.sigma
        assert s == w.b_sub.sigma
        assert 0 < s < p.a.sigma
        for sub, parent in ((w.a_sub, p.a), (w.b_sub, p.b)):
            assert all(parent.count_of(v) >= c for v, c in sub.runs)
            assert sub != parent


def assert_matches_reference(p):
    target = shared_sum_reference(p) if p.balanced else None
    assert is_irreducible(p) == (p.balanced and target is None)
    w = reducibility_witness(p)
    if target is None:
        assert w is None
    else:
        assert w.a_sub == extract_reference(p.a, target)
        assert w.b_sub == extract_reference(p.b, target)
    return target


class TestBoundedWidthSearch:
    """The truncated, growing-width search against full-width folds."""

    @given(multisets, st.data())
    def test_truncated_fold_is_the_sums_below_its_width(self, m, data):
        width = data.draw(st.integers(1, m.sigma + 1))
        full = subset_sums_reference(m)
        assert _subset_sums(m, width) == full & ((1 << width) - 1)
        assert full_sums(m) == full

    @settings(deadline=None)
    @given(st.one_of(balanced_pairs(), boundary_pairs(), wide_pairs()))
    def test_matches_full_width_reference(self, p):
        assert_matches_reference(p)

    @pytest.mark.parametrize(
        "text,target",
        [
            # Around the first width, 4096: S // 2 + 1 is 4096 and larger.
            ("4095^2 | 1^8190", 4095),
            ("4096^2 | 1^8192", 4096),
            ("4097^2 | 1^8194", 4097),
            ("4097^3 | 1^12291", 4097),
            # Around the second width, 65536.
            ("65535^2 | 1^131070", 65535),
            ("65536^2 | 1^131072", 65536),
            ("65537^10 | 1^655370", 65537),
            # At and just below S // 2, for odd and even S.
            ("4096 4095 | 1^8191", 4095),
            ("4097 4095 | 1^8192", 4095),
            ("65536 65535 | 1^131071", 65535),
            ("65537 65535 | 1^131072", 65535),
            # Irreducible: the search runs up to the half.
            ("91^90 | 90^91", None),
            ("92^91 | 91^92", None),
            ("257^256 | 256^257", None),
        ],
    )
    def test_boundaries(self, text, target):
        assert assert_matches_reference(parse_pair(text)) == target


class TestResidueFastPaths:
    """The gcd reduction and the residue test against full-width folds."""

    @settings(deadline=None)
    @given(residue_pairs())
    def test_matches_full_width_reference(self, p):
        target = assert_matches_reference(p)
        g, q, verdict = _reduce(p)
        assert all(v % g == 0 for m in (p.a, p.b) for v, _ in m.runs)
        if len(q.a.runs) == 1 or len(q.b.runs) == 1:
            assert verdict is not None
        if verdict is not None:
            assert verdict == (target is None)

    @pytest.mark.parametrize(
        "text,irreducible",
        [
            ("1 | 1", True),
            ("1000000 | 1000000", True),
            ("1^2 | 1^2", False),
            ("1^7 | 1^7", False),
            ("2^2 | 1^4", False),
            ("5^4 | 4^5", True),
            ("35^4 | 28^5", True),
            ("500000^4 | 400000^5", True),
        ],
    )
    def test_edge_cases(self, text, irreducible):
        p = parse_pair(text)
        assert (assert_matches_reference(p) is None) == irreducible
        assert is_irreducible_naive(p) == irreducible
