"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (visible with `pytest tests/test_acceptance.py -v -s`).

Everything here is exact integer equality or a zero-violations sweep;
the only tolerance is the stated runtime ceiling on the exhaustive
oracle-agreement sweep.
"""

import contextlib
import random
import time

import pytest

from zspairs import (
    DerivationPlan,
    EnumConfig,
    NoSuchElementError,
    compute_ell,
    derive_chain,
    derive_product,
    enumerate_irreducible,
    extremal_construction,
    extremal_pairs,
    is_irreducible,
    pair_to_json,
)
from zspairs.checks import allocation_sweep, bounds_sweep, derivation_sweep, oracle_sweep
from helpers import pair


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def test_c01_maximum_length_value():
    with criterion(1, "brute survey finds maximum length 2k-1 for k=2..6"):
        for k in range(2, 7):
            report = compute_ell(EnumConfig(k=k, sum_cap=k * k, mode="brute"))
            assert report.ell == 2 * k - 1, (k, report.ell)
            obj = report.to_obj()
            assert obj["mode"] == "brute" and obj["sum_cap"] == k * k


def test_c02_unique_extremal_pair():
    with criterion(2, "exactly one maximum-length pair, the known construction"):
        for k in range(2, 7):
            found = extremal_pairs(EnumConfig(k=k, sum_cap=k * k, mode="brute"))
            assert found == [extremal_construction(k)], (k, found)


def test_c03_worked_product_derivation():
    with criterion(3, "worked product-derivation example is exact"):
        p = pair((7, 7, 7, 1, 1), (6, 6, 6, 5))
        assert is_irreducible(p)
        derived = derive_product(p, DerivationPlan.of([(7, 6, 2), (7, 5, 1)]))
        assert derived == pair((2, 1, 1, 1, 1), (6,))
        assert is_irreducible(derived)


def test_c04_order_dependence_of_chains():
    with criterion(4, "chain order matters exactly as documented"):
        start = pair((5, 5), (2, 2, 2, 2, 2))
        assert derive_chain(start, [(5, 2), (3, 2)]) == pair((5, 1), (2, 2, 2))
        with pytest.raises(NoSuchElementError) as exc:
            derive_chain(start, [(3, 2), (5, 2)])
        assert exc.value.step == 0


def test_c05_oracle_equivalence_exhaustive():
    with criterion(5, "engine agrees with naive oracle, values<=7 sums<=14"):
        started = time.perf_counter()
        checked, disagreements = oracle_sweep(7, 14)
        elapsed = time.perf_counter() - started
        assert disagreements == 0
        assert checked > 10_000
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_c06_derivations_preserve_irreducibility():
    with criterion(6, "10^4 sampled derivations preserve irreducibility"):
        cfg = EnumConfig(k=7, sum_cap=49, mode="pruned")
        rng = random.Random(20240817)
        assert derivation_sweep(cfg, 10_000, rng) == (10_000, 0)


def test_c07_allocation_invariants():
    with criterion(7, "10^4 random allocations meet all invariants exactly"):
        rng = random.Random(20240818)
        assert allocation_sweep(10_000, rng, max_bins=7, max_value=12) == (10_000, 0)


def test_c08_length_bounds_hold_on_brute_sweep():
    with criterion(8, "every brute-found pair satisfies the length bounds"):
        for k in range(1, 7):
            checked, violations = bounds_sweep(
                EnumConfig(k=k, sum_cap=k * k, mode="brute")
            )
            assert checked > 0 and violations == 0, (k, checked, violations)


def test_c09_brute_and_pruned_agree():
    with criterion(9, "brute and pruned streams are byte-identical for k<=7"):
        for k in range(1, 8):
            brute = "\n".join(
                pair_to_json(p)
                for p in enumerate_irreducible(EnumConfig(k=k, sum_cap=k * k, mode="brute"))
            )
            pruned = "\n".join(
                pair_to_json(p)
                for p in enumerate_irreducible(EnumConfig(k=k, sum_cap=k * k, mode="pruned"))
            )
            assert brute == pruned, k


def test_c10_k1_edge_case():
    with criterion(10, "k=1 survey: maximum length 2, sole witness {1},{1}"):
        report = compute_ell(EnumConfig(k=1, sum_cap=4, mode="brute"))
        assert report.ell == 2
        assert report.witnesses == (pair((1,), (1,)),)
        obj = report.to_obj()
        assert obj["mode"] == "brute" and obj["sum_cap"] == 4
