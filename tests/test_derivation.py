import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zspairs import (
    DerivationError,
    DerivationPlan,
    EmptyResultError,
    EnumConfig,
    EqualValuesError,
    Multiset,
    InfeasiblePlanError,
    NoSplitError,
    NoSuchElementError,
    TooSmallError,
    allocate_marbles,
    derive,
    derive_chain,
    derive_product,
    enumerate_irreducible,
    enumerate_multisets,
    is_irreducible,
    normalize,
    pair_canonical,
    parse_pair,
    split_index,
)
from zspairs.derivation import _apply
from helpers import balanced_pairs, ms, pair


def apply_units_by_force(p, unit_steps):
    """Oracle: raw count bookkeeping for unit (a, b) derivations that
    draw only from the original sides, applied in the order given."""
    side_a = dict(p.a.runs)
    side_b = dict(p.b.runs)
    for a, b in unit_steps:
        side_a[a] -= 1
        side_b[b] -= 1
        assert side_a[a] >= 0 and side_b[b] >= 0, "infeasible unit sequence"
        if a > b:
            side_a[a - b] = side_a.get(a - b, 0) + 1
        else:
            side_b[b - a] = side_b.get(b - a, 0) + 1
    return pair_canonical(
        normalize(side_a.items()), normalize(side_b.items())
    )


def fold_single_derivations(p, unit_steps):
    """Oracle: run the unit steps through `derive` one at a time, so each
    order must be accepted step by step.  Canonicalization can swap the
    sides of the intermediate pairs, so the fold tracks which canonical
    side currently holds the abstract first multiset."""
    current = p
    a_is_first = True
    for a, b in unit_steps:
        x, y = (a, b) if a_is_first else (b, a)
        counts = dict(current.a.runs)
        counts[x] -= 1
        if x > y:
            counts[x - y] = counts.get(x - y, 0) + 1
        expect_first = normalize(counts.items())
        nxt = derive(current, x, y)
        if nxt.a != nxt.b and nxt.a != expect_first:
            a_is_first = not a_is_first
        current = nxt
    return current


class TestDerive:
    def test_first_step_of_order_example(self):
        p = derive(pair((5, 5), (2, 2, 2, 2, 2)), 5, 2)
        assert p == pair((5, 3), (2, 2, 2, 2))

    def test_second_step_consumes_derived_value(self):
        p = derive(pair((5, 3), (2, 2, 2, 2)), 3, 2)
        assert p == pair((5, 1), (2, 2, 2))

    def test_reverse_order_fails(self):
        with pytest.raises(NoSuchElementError):
            derive(pair((5, 5), (2, 2, 2, 2, 2)), 3, 2)

    def test_shrinks_to_smallest_pair(self):
        assert derive(pair((2,), (1, 1)), 2, 1) == pair((1,), (1,))

    def test_equal_values_rejected(self):
        with pytest.raises(EqualValuesError):
            derive(pair((2, 1), (2, 1)), 2, 2)

    def test_length_two_rejected(self):
        with pytest.raises(TooSmallError):
            derive(pair((1,), (1,)), 1, 1)

    def test_missing_second_value_rejected(self):
        with pytest.raises(NoSuchElementError) as info:
            derive(parse_pair("7^3 1^2 | 6^3 5"), 7, 4)
        assert str(info.value) == "no copy of 4 in the second multiset"

    def test_a_single_element_first_side_never_empties(self):
        # A canonical pair with |A| = 1 has every b < a, so a step takes
        # a - b back to A: over values <= 7 and B of sum <= 14, every
        # step of every such pair longer than 2 succeeds.
        tried = 0
        for v in range(1, 8):
            for total in range(1, 15):
                for side_b in enumerate_multisets(7, total):
                    p = pair_canonical(Multiset(((v, 1),)), side_b)
                    if p.a.cardinality != 1 or p.length <= 2:
                        continue
                    for b in p.b.values():
                        assert derive(p, v, b).length == p.length - 1
                        tried += 1
        assert tried > 0

    def test_emptying_a_side_rejected(self):
        # Unbalanced pairs are allowed in, but not ones a step would gut.
        with pytest.raises(TooSmallError):
            derive(pair((3, 2), (1,)), 3, 1)

    @given(balanced_pairs(), st.data())
    def test_balance_and_length_contraction(self, p, data):
        a = data.draw(st.sampled_from(p.a.values()))
        b = data.draw(st.sampled_from(p.b.values()))
        try:
            q = derive(p, a, b)
        except DerivationError:
            return
        assert q.balanced
        assert q.length == p.length - 1


class TestDeriveProduct:
    def test_worked_example(self):
        p = pair((7, 7, 7, 1, 1), (6, 6, 6, 5))
        plan = DerivationPlan.of([(7, 6, 2), (7, 5, 1)])
        assert derive_product(p, plan) == pair((2, 1, 1, 1, 1), (6,))

    def test_empty_plan_is_identity(self):
        p = pair((5, 5), (2, 2, 2, 2, 2))
        assert derive_product(p, DerivationPlan()) == p

    def test_infeasible_plan(self):
        p = pair((5, 5), (2, 2, 2, 2, 2))
        with pytest.raises(InfeasiblePlanError):
            derive_product(p, DerivationPlan.of([(5, 2, 3)]))

    def test_equal_values_rejected(self):
        with pytest.raises(EqualValuesError):
            derive_product(pair((2, 1), (2, 1)), DerivationPlan.of([(2, 2, 1)]))

    def test_empty_result_rejected(self):
        p = pair((3, 2), (1, 1))
        with pytest.raises(EmptyResultError):
            derive_product(p, DerivationPlan.of([(3, 1, 1), (2, 1, 1)]))

    def test_single_step_plan_matches_derive(self):
        p = pair((7, 7, 7, 1, 1), (6, 6, 6, 5))
        assert derive_product(p, DerivationPlan.of([(7, 5, 1)])) == derive(p, 7, 5)

    @given(balanced_pairs(), st.data())
    def test_derive_is_a_one_step_product(self, p, data):
        a = data.draw(st.sampled_from(p.a.values()))
        b = data.draw(st.sampled_from(p.b.values()))
        assume(a != b and p.length > 2)
        assume((p.b if a > b else p.a).cardinality > 1)
        assert derive(p, a, b) == derive_product(p, DerivationPlan(((a, b, 1),)))

    def test_infeasibility_is_checked_before_emptiness(self):
        # Both steps consume all of A (a < b), and B holds no 6.
        p = pair((5, 2), (4, 3))
        with pytest.raises(InfeasiblePlanError):
            derive_product(p, DerivationPlan.of([(5, 6, 1), (2, 6, 1)]))

    @pytest.mark.parametrize(
        "text, steps, error, message",
        [
            # Overdraws A.
            ("7^3 1^2 | 6^3 5", [(7, 6, 4)], InfeasiblePlanError,
             "plan consumes 4 copies of 7 from the first multiset, which holds 3"),
            ("7^3 1^2 | 6^3 5", [(4, 6, 1)], InfeasiblePlanError,
             "plan consumes 1 copies of 4 from the first multiset, which holds 0"),
            # Overdraws B.
            ("7^3 1^2 | 6^3 5", [(7, 5, 1), (1, 5, 1)], InfeasiblePlanError,
             "plan consumes 2 copies of 5 from the second multiset, which holds 1"),
            # Overdraws both: A is reported.
            ("7^3 1^2 | 6^3 5", [(7, 6, 4), (1, 5, 2)], InfeasiblePlanError,
             "plan consumes 4 copies of 7 from the first multiset, which holds 3"),
            # Overdraws B and empties A: infeasibility is reported.
            ("5 2 | 4 3", [(5, 6, 1), (2, 6, 1)], InfeasiblePlanError,
             "plan consumes 2 copies of 6 from the second multiset, which holds 0"),
            # Empties B.
            ("3 2 | 1^2", [(3, 1, 1), (2, 1, 1)], EmptyResultError,
             "plan would empty the second multiset"),
        ],
    )
    def test_failing_plans(self, text, steps, error, message):
        with pytest.raises(error) as info:
            derive_product(parse_pair(text), DerivationPlan.of(steps))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_emptying_the_first_side(self):
        # A canonical pair never gets here: A holds the larger maximum, and
        # a step that consumes it puts the difference back on A.  So the
        # sides are handed to the product step as they are.  (No plan
        # empties both sides: every step adds its difference to one.)
        p = SimpleNamespace(a=ms(2, 1), b=ms(6, 5))
        with pytest.raises(EmptyResultError) as info:
            _apply(p, ((2, 6, 1), (1, 5, 1)))
        assert str(info.value) == "plan would empty the first multiset"

    def test_plan_of_merges_duplicates(self):
        plan = DerivationPlan.of([(7, 6, 1), (7, 6, 1), (7, 5, 0)])
        assert plan.steps == ((7, 6, 2),)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: DerivationPlan(((0, 1, 1),)), "plan values must be positive, got (0,1)"),
            (lambda: DerivationPlan(((2, 1, 0),)), "plan counts must be positive, got 0"),
            (lambda: DerivationPlan.of([(2, 1, -1)]), "plan counts must be non-negative, got -1"),
        ],
        ids=["zero-value", "zero-count", "negative-count"],
    )
    def test_bad_plans_rejected(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_duplicate_keys_rejected_in_raw_constructor(self):
        with pytest.raises(ValueError):
            DerivationPlan(((7, 6, 1), (7, 6, 1)))

    def test_order_independent_against_oracle(self):
        rng = random.Random(99)
        tested = 0
        while tested < 300:
            p = pair_canonical(
                normalize(
                    (rng.randint(1, 9), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 4))
                ),
                normalize(
                    (rng.randint(1, 9), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 4))
                ),
            )
            cap_a = dict(p.a.runs)
            cap_b = dict(p.b.runs)
            units = []
            for _ in range(rng.randint(1, 6)):
                avals = [v for v, c in cap_a.items() if c > 0]
                if not avals:
                    break
                a = rng.choice(avals)
                bvals = [v for v, c in cap_b.items() if c > 0 and v != a]
                if not bvals:
                    continue
                b = rng.choice(bvals)
                cap_a[a] -= 1
                cap_b[b] -= 1
                units.append((a, b))
            if not units:
                continue
            plan = DerivationPlan.of([(a, b, 1) for a, b in units])
            try:
                result = derive_product(p, plan)
            except EmptyResultError:
                continue
            for _ in range(3):
                shuffled = units[:]
                rng.shuffle(shuffled)
                assert apply_units_by_force(p, shuffled) == result
                assert fold_single_derivations(p, shuffled) == result
            tested += 1


class TestDeriveChain:
    def test_order_example(self):
        p = derive_chain(pair((5, 5), (2, 2, 2, 2, 2)), [(5, 2), (3, 2)])
        assert p == pair((5, 1), (2, 2, 2))

    def test_reverse_order_fails_at_step_zero(self):
        with pytest.raises(NoSuchElementError) as exc:
            derive_chain(pair((5, 5), (2, 2, 2, 2, 2)), [(3, 2), (5, 2)])
        assert exc.value.step == 0

    def test_failure_index_points_at_later_step(self):
        with pytest.raises(NoSuchElementError) as exc:
            derive_chain(pair((5, 5), (2, 2, 2, 2, 2)), [(5, 2), (5, 2), (5, 2)])
        assert exc.value.step == 2

    def test_empty_chain_is_identity(self):
        p = pair((5, 5), (2, 2, 2, 2, 2))
        assert derive_chain(p, []) == p

    def test_matches_manual_fold(self):
        p = pair((5, 5), (2, 2, 2, 2, 2))
        assert derive_chain(p, [(5, 2), (3, 2)]) == derive(derive(p, 5, 2), 3, 2)


class TestSplitIndex:
    def test_interior_split(self):
        assert split_index((3, 2), (2, 2, 4)) == 2

    def test_minimal_split(self):
        assert split_index((1,), (1, 1)) == 1

    def test_first_color_too_big(self):
        with pytest.raises(NoSplitError):
            split_index((3, 2), (6, 1))

    def test_colors_do_not_overflow(self):
        with pytest.raises(NoSplitError):
            split_index((3, 2), (2, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(NoSplitError):
            split_index((), (1,))
        with pytest.raises(NoSplitError):
            split_index((3, 0), (1, 4))


class TestAllocateMarbles:
    def test_two_bins(self):
        alloc = allocate_marbles((3, 2), (2, 2, 4))
        assert alloc.z == ((2, 1, 0), (0, 1, 1))

    def test_single_bin(self):
        alloc = allocate_marbles((1,), (1, 1))
        assert alloc.z == ((1, 0),)

    def test_exact_fill(self):
        alloc = allocate_marbles((2, 2), (4, 1))
        assert alloc.z == ((2, 0), (2, 0))

    def test_no_split_rejected(self):
        with pytest.raises(NoSplitError, match="already exceeds"):
            allocate_marbles((1,), (2, 1))

    def test_invariants_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(2000):
            x = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            y = [rng.randint(1, min(9, sum(x)))]
            while sum(y) <= sum(x):
                y.append(rng.randint(1, 9))
            t = split_index(x, y)
            alloc = allocate_marbles(x, y)
            assert alloc.t == t
            for j in range(t):
                assert sum(row[j] for row in alloc.z) == y[j]
            for i, row in enumerate(alloc.z):
                assert row[t] == x[i] - sum(row[:t]) >= 0
            assert y[t] > sum(alloc.residuals())


class TestIrreducibilityPreservation:
    def test_every_single_derivation_preserves(self):
        # Exhaustive at k <= 5; the sampled k <= 7 sweep is in the
        # acceptance suite.
        pool = [
            p
            for p in enumerate_irreducible(EnumConfig(k=5, sum_cap=25, mode="pruned"))
            if p.length > 2
        ]
        assert pool, "expected a nonempty pool"
        checked = 0
        for p in pool:
            for a in p.a.values():
                for b in p.b.values():
                    q = derive(p, a, b)
                    assert is_irreducible(q), (p, a, b)
                    assert q.max_element <= p.max_element
                    assert q.balanced
                    checked += 1
        assert checked > 50

    @pytest.mark.parametrize("k,derivations", [(5, 99), (6, 256), (7, 796)])
    def test_brute_set_is_closed_under_derivation(self, k, derivations):
        # Pruned surveys grow pairs by inverse derivation, so they rest on
        # this; brute mode finds its set without it.
        brute = set(enumerate_irreducible(EnumConfig(k=k)))
        landed = 0
        for p in brute:
            if p.length <= 2:
                continue
            for a in p.a.values():
                for b in p.b.values():
                    try:
                        q = derive(p, a, b)
                    except DerivationError:
                        continue
                    assert q in brute, (p, a, b)
                    landed += 1
        assert landed == derivations

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_brute_pair_has_its_canonical_parent(self, k):
        # The (max A, max B)-derivation is the parent the reference reverse
        # search in test_enumeration reaches each pair from; it must be
        # valid and stay in the set.
        brute = set(enumerate_irreducible(EnumConfig(k=k)))
        for p in brute:
            if p.length > 2:
                assert derive(p, p.a.max_value, p.b.max_value) in brute, p
