import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from zspairs import enumeration
from zspairs import (
    EllReport,
    EnumConfig,
    KTooSmallError,
    ResourceLimitError,
    compute_ell,
    enumerate_irreducible,
    enumerate_multisets,
    extremal_construction,
    extremal_pairs,
    format_pair,
    is_irreducible_naive,
    pair_to_json,
    verify_theorem_bounds,
)
from zspairs.cli import main
from zspairs.core import Multiset, Pair, pair_canonical
from helpers import ms, pair, scan_sum_reference, subset_sums_reference


def _timeless(report: EllReport) -> EllReport:
    """The report with its wall time zeroed, so two surveys compare equal."""
    return EllReport(**{**report.to_obj(), "witnesses": report.witnesses, "wall_time": 0.0})


@functools.cache
def _dag_node(total, max_part, max_len):
    """A reference partition DAG, its nodes shared between parents: the
    partitions of `total` into at most `max_len` parts of size at most
    `max_part`, as (their count, children).  A child (v, c, node) starts
    with c copies of v, largest v and longest run first; dead children
    are left out."""
    if total == 0:
        return 1, ()
    children = []
    for v in range(min(max_part, total), 0, -1):
        for c in range(min(total // v, max_len), 0, -1):
            child = _dag_node(total - v * c, v - 1, max_len - c)
            if child[0]:
                children.append((v, c, child))
    return sum(child[0] for _, _, child in children), tuple(children)


def _dag_walk(node):
    """The run tuples below `node`, in child order."""
    _, children = node
    if not children:
        yield ()
    for v, c, child in children:
        for rest in _dag_walk(child):
            yield ((v, c),) + rest


class TestEnumerateMultisets:
    def test_bounded_parts(self):
        assert list(enumerate_multisets(2, 3)) == [ms(2, 1), ms(1, 1, 1)]

    def test_all_partitions_in_order(self):
        assert list(enumerate_multisets(5, 5)) == [
            ms(5),
            ms(4, 1),
            ms(3, 2),
            ms(3, 1, 1),
            ms(2, 2, 1),
            ms(2, 1, 1, 1),
            ms(1, 1, 1, 1, 1),
        ]

    def test_unit_alphabet(self):
        assert list(enumerate_multisets(1, 4)) == [ms(1, 1, 1, 1)]

    def test_yields_each_once(self):
        seen = list(enumerate_multisets(4, 9))
        assert len(seen) == len(set(seen))
        assert all(m.sigma == 9 and m.max_value <= 4 for m in seen)

    def test_counts_the_partitions_into_parts_of_at_most_three(self):
        # round((t + 3)**2 / 12) partitions of t into parts of at most 3.
        assert sum(1 for _ in enumerate_multisets(3, 60)) == 331

    @pytest.mark.parametrize(
        "k,total,message",
        [(0, 3, "k must be positive, got 0"), (3, 0, "total must be positive, got 0")],
    )
    def test_rejects_non_positive_arguments(self, k, total, message):
        with pytest.raises(ValueError) as info:
            next(enumerate_multisets(k, total))
        assert str(info.value) == message

    def test_matches_the_dag_walk(self):
        for k in range(1, 7):
            for total in range(1, 16):
                root = _dag_node(total, k, total)
                expected = [Multiset(runs) for runs in _dag_walk(root)]
                assert len(expected) == root[0], (k, total)
                assert list(enumerate_multisets(k, total)) == expected, (k, total)


def _runs(parts):
    return tuple((v, len(list(g))) for v, g in itertools.groupby(parts))


def _packed_runs(side):
    """The run tuple of a side the search packs into one int, the count
    of value v in byte v - 1, read from the low byte up."""
    runs = ()
    value = 0
    while side:
        side, count = divmod(side, 256)
        value += 1
        if count:
            runs = ((value, count),) + runs
    return runs


def _candidate_order(hits):
    """A sum's raw hits (length, X, Y) as (A's runs, B's runs), A the
    larger side, sorted into candidate order."""
    return sorted(
        (tuple(sorted((_packed_runs(x), _packed_runs(y)), reverse=True)) for _, x, y in hits),
        reverse=True,
    )


def _stream(k, cap, mode):
    """A survey's per-sum (hits in candidate order, candidate pairs), for
    S = 1..top."""
    cfg = EnumConfig(k=k, sum_cap=cap, mode=mode)
    return [(_candidate_order(hits), sc) for hits, sc in enumeration._scan_all(cfg, 1)]


@pytest.mark.parametrize("total", range(1, 13))
def test_partitions_match_reference(total):
    # Every partition of total as a descending element tuple: n parts,
    # none larger than total - n + 1.
    every = sorted(
        (
            parts
            for n in range(1, total + 1)
            for parts in itertools.combinations_with_replacement(
                range(total - n + 1, 0, -1), n
            )
            if sum(parts) == total
        ),
        reverse=True,
    )
    for max_part in range(1, total + 1):
        expected = [_runs(parts) for parts in every if parts[0] <= max_part]
        got = [m.runs for m in enumerate_multisets(max_part, total)]
        assert got == expected, max_part
        # The count DP, at every length bound.
        for max_len in range(1, total + 2):
            counts = enumeration._box_counts(max_part, total, max_len)
            fits = sum(1 for parts in every if parts[0] <= max_part and len(parts) <= max_len)
            assert counts[total] == fits, (max_part, max_len)


_SURVEYS = [("brute", k) for k in range(1, 7)] + [("pruned", k) for k in range(1, 10)]


@pytest.mark.parametrize("mode,k", _SURVEYS)
def test_partition_sums_match_reference(mode, k):
    # The search keeps subset sums as it grows each side; every pair it
    # reports is two partitions of the sum, within the mode's bounds,
    # whose reference subset sums meet only in 0 and the sum.
    for total, (hits, _) in enumerate(_stream(k, k * k, mode), 1):
        for runs_a, runs_b in hits:
            a, b = Multiset(runs_a), Multiset(runs_b)
            assert a.sigma == b.sigma == total and max(a.max_value, b.max_value) <= k
            if mode == "pruned":
                assert max(a.cardinality, b.cardinality) <= k
            shared = subset_sums_reference(a) & subset_sums_reference(b)
            assert shared == 1 | 1 << total, (runs_a, runs_b)


@pytest.mark.parametrize("mode,k", _SURVEYS)
def test_partner_filter_keeps_exactly_the_partnered_candidates(mode, k):
    # The search drops a pair of prefixes once they share an interior
    # sum, so the sides it reports at a sum are, in candidate order,
    # exactly the candidates with an irreducible partner.  Partners'
    # interior sums in 1..k, their low keys, miss each other, so only
    # candidates under disjoint keys are compared.  The candidates come
    # off the reference DAG, in the order test_matches_the_dag_walk
    # holds enumerate_multisets to.
    for total, (hits, _) in enumerate(_stream(k, k * k, mode), 1):
        max_len = total if mode == "brute" else k
        candidates = [Multiset(runs) for runs in _dag_walk(_dag_node(total, k, max_len))]
        low = ((2 << k) - 2) & ((1 << total) - 2)
        by_key: dict[int, list] = {}
        for m in candidates:
            sums = subset_sums_reference(m)
            by_key.setdefault(sums & low, []).append((m, sums))
        partnered = set()
        for key_a, key_b in itertools.combinations_with_replacement(by_key, 2):
            if key_a & key_b:
                continue
            for a, sums_a in by_key[key_a]:
                for b, sums_b in by_key[key_b]:
                    if sums_a & sums_b == 1 | 1 << total:
                        partnered |= {a, b}
        expected = [m.runs for m in candidates if m in partnered]
        got = sorted({runs for hit in hits for runs in hit}, reverse=True)
        assert got == expected, total


@pytest.mark.parametrize("total", range(1, 13))
def test_partitions_enter_no_dead_branch(total, monkeypatch):
    # The partition generator recurses only into runs it can complete:
    # every call yields, and there is one call per run-prefix that ends
    # in a value of 2 or more (a run of ones takes what is left).
    gen = enumeration._multiset_runs
    calls = []

    def counting(remaining, max_part, runs):
        calls.append(0)
        i = len(calls) - 1
        for item in gen(remaining, max_part, runs):
            calls[i] += 1
            yield item

    monkeypatch.setattr(enumeration, "_multiset_runs", counting)
    for max_part in range(1, total + 1):
        calls.clear()
        got = [m.runs for m in enumerate_multisets(max_part, total)]
        assert all(calls), max_part
        prefixes = {
            runs[:i] for runs in got for i in range(1, len(runs) + 1) if runs[i - 1][0] >= 2
        }
        assert len(calls) == 1 + len(prefixes), max_part


@pytest.mark.parametrize("k", range(1, 8))
def test_disjoint_low_keys_mean_disjoint_values(k):
    # Supports `_search`'s claim that seed v reaches each pair exactly
    # once: two multisets whose interior sums in 1..k miss each other
    # share no value unless both are {S}.  So equal maxima are a shared
    # interior sum unless both sides are {v}, and an irreducible pair
    # other than v | v holds its top value on one side only.  Values are
    # pooled per key, so a shared value shows up between two keys.
    full = (2 << k) - 1
    values: list[dict[int, int]] = [{} for _ in range(k * k + 1)]

    def walk(total, top, sums, pooled):
        # Each descending prefix is a partition of its own sum; its sums
        # are kept in 0..k, the only ones a key holds.
        key = sums & ((1 << total) - 2)
        values[total][key] = values[total].get(key, 0) | pooled
        for v in range(min(top, k * k - total), 0, -1):
            walk(total + v, v, (sums | sums << v) & full, pooled | 1 << v)

    for v in range(1, k + 1):
        walk(v, v, 1 | 1 << v, 1 << v)
    for total in range(1, k * k + 1):
        by_key = values[total]
        assert by_key, total
        for key_a, key_b in itertools.combinations(by_key, 2):
            if not key_a & key_b:
                assert not by_key[key_a] & by_key[key_b], (total, key_a, key_b)
        # Key 0 belongs to the singleton {total} alone.
        assert by_key.get(0, 1 << total) == 1 << total


_FRESH_SURVEY = """
import json, sys
from zspairs import EnumConfig, compute_ell
obj = compute_ell(EnumConfig(k=int(sys.argv[1]), mode=sys.argv[2])).to_obj()
del obj["wall_time"]
print(json.dumps(obj))
"""


@pytest.mark.parametrize(
    "mode,k,earlier",
    [("brute", 6, [("brute", 5), ("pruned", 6)]), ("pruned", 7, [("pruned", 8), ("brute", 7)])],
)
def test_survey_ignores_earlier_surveys(mode, k, earlier):
    # Each survey reads only its own search; a survey after one with
    # another k or mode must match one run first in a new process.
    src = Path(enumeration.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_SURVEY, str(k), mode],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    expected = json.loads(fresh.stdout)
    for other_mode, other_k in earlier:
        compute_ell(EnumConfig(k=other_k, mode=other_mode))
        obj = compute_ell(EnumConfig(k=k, mode=mode)).to_obj()
        del obj["wall_time"]
        assert json.loads(json.dumps(obj)) == expected, (other_mode, other_k)


class TestEnumConfig:
    def test_default_sum_cap(self):
        assert EnumConfig(k=3).sum_cap == 9

    def test_brute_limit(self):
        EnumConfig(k=12, mode="brute")
        with pytest.raises(ResourceLimitError, match="^k=13 exceeds the survey limit of 12$"):
            EnumConfig(k=13, mode="brute")

    def test_one_resource_limit_class(self):
        # The check's fold budget raises the same class, from core.
        from zspairs import core
        assert ResourceLimitError is enumeration.ResourceLimitError
        assert ResourceLimitError is core.ResourceLimitError

    def test_pruned_limit(self):
        EnumConfig(k=12, mode="pruned")
        with pytest.raises(ResourceLimitError, match="^k=13 exceeds the survey limit of 12$"):
            EnumConfig(k=13, mode="pruned")

    def test_bad_values(self):
        with pytest.raises(ValueError):
            EnumConfig(k=0)
        with pytest.raises(ValueError):
            EnumConfig(k=2, mode="magic")
        with pytest.raises(ValueError):
            EnumConfig(k=2, sum_cap=0)
        with pytest.raises(ValueError, match=r"^bad length window \(4, 2\)$"):
            enumerate_irreducible(EnumConfig(k=2), length_window=(4, 2))


class TestEnumerateIrreducible:
    def test_k2_exact_set(self):
        found = list(enumerate_irreducible(EnumConfig(k=2, sum_cap=4)))
        assert found == [pair((1,), (1,)), pair((2,), (2,)), pair((2,), (1, 1))]

    def test_contains_worked_example(self):
        found = enumerate_irreducible(EnumConfig(k=7, sum_cap=23, mode="pruned"))
        assert pair((7, 7, 7, 1, 1), (6, 6, 6, 5)) in list(found)

    def test_contains_extremal(self):
        found = list(enumerate_irreducible(EnumConfig(k=3, sum_cap=6)))
        assert pair((3, 3), (2, 2, 2)) in found

    def test_agrees_with_naive_oracle(self):
        # Everything the stream yields is irreducible per the literal
        # definition, and nothing balanced is missed.
        cfg = EnumConfig(k=3, sum_cap=9)
        found = set(enumerate_irreducible(cfg))
        for total in range(1, 10):
            candidates = list(enumerate_multisets(3, total))
            for i, a in enumerate(candidates):
                for b in candidates[i:]:
                    p = Pair(a, b)
                    assert (p in found) == is_irreducible_naive(p)

    def test_length_window(self):
        found = enumerate_irreducible(EnumConfig(k=3, sum_cap=9), length_window=(5, 5))
        assert list(found) == [pair((3, 3), (2, 2, 2))]

    def test_monotone_in_sum_cap(self):
        small = set(enumerate_irreducible(EnumConfig(k=3, sum_cap=6)))
        large = set(enumerate_irreducible(EnumConfig(k=3, sum_cap=9)))
        assert small <= large

    @pytest.mark.parametrize("k", range(1, enumeration.MAX_K + 1))
    def test_brute_and_pruned_streams_identical(self, k):
        brute = [pair_to_json(p) for p in enumerate_irreducible(EnumConfig(k=k))]
        pruned = [
            pair_to_json(p)
            for p in enumerate_irreducible(EnumConfig(k=k, mode="pruned"))
        ]
        assert brute == pruned

    @pytest.mark.parametrize(
        "k,cap", [(4, 24), (5, 40)] + [(k, 2 * k * k) for k in range(2, enumeration.MAX_K + 1)]
    )
    def test_no_irreducible_pair_above_k_squared(self, k, cap):
        # The default cap k*k rests on |A| <= max B and |B| <= max A;
        # brute mode, which uses no theorem, finds no pair past k(k-1),
        # and only k^(k-1) | (k-1)^k as long as 2k-1.
        cfg = EnumConfig(k=k, sum_cap=cap)
        assert max(p.a.sigma for p in enumerate_irreducible(cfg)) == k * (k - 1)
        report = compute_ell(cfg)
        assert report.ell == 2 * k - 1
        assert report.witnesses == (pair((k,) * (k - 1), (k - 1,) * k),)


def _inserted(runs, value):
    """`runs` with one more copy of `value`."""
    for i, (v, c) in enumerate(runs):
        if v == value:
            return runs[:i] + ((v, c + 1),) + runs[i + 1 :]
        if v < value:
            return runs[:i] + ((value, 1),) + runs[i:]
    return runs + ((value, 1),)


def _reverse_search(k, top):
    """Pruned mode's per-sum results for S = 1..top, by reverse search
    (Avis and Fukuda, 1996) over derivations from the roots v | v: a
    route to the same pairs that shares nothing with the package's search
    but the count DP.

    An (a, b)-derivation maps an irreducible pair to an irreducible pair
    one element shorter, and every irreducible pair of length >= 3 has a
    valid (max A, max B)-derivation, its canonical parent (see
    `derivation`).  A stack entry is (sum, X, X's subset sums, Y, Y's
    subset sums), where X is the side whose value d becomes d + e as Y
    gains e.  The child's maxima are then d + e and e exactly when
    e >= max Y and d + e >= max X, and its (d + e, e)-derivation undoes
    the move; so those moves reach each pair once.  A pair is pushed once
    per side as X, a root once, since its sides are equal."""
    found = [[] for _ in range(top + 1)]
    # Subset sums cannot drop an element, so each X - d is folded anew,
    # once per search: many nodes share it.
    folded = {}
    stack = []
    for v in range(1, min(k, top) + 1):
        runs = ((v, 1),)
        found[v].append((runs, runs))
        stack.append((v, runs, 1 | 1 << v, runs, 1 | 1 << v))
    while stack:
        total, x, x_sums, y, y_sums = stack.pop()
        max_x = x[0][0]
        max_y = y[0][0]
        for i, (d, c) in enumerate(x):
            lo = max(max_y, max_x - d)
            hi = min(k - d, top - total)
            if lo > hi:
                continue
            rest = x[:i] + ((d, c - 1),) + x[i + 1 :] if c > 1 else x[:i] + x[i + 1 :]
            if rest not in folded:
                bits = 1
                for v, n in rest:
                    for _ in range(n):
                        bits |= bits << v
                folded[rest] = bits
            rest_sums = folded[rest]
            for e in range(lo, hi + 1):
                new_x_sums = rest_sums | rest_sums << (d + e)
                new_y_sums = y_sums | y_sums << e
                if new_x_sums & new_y_sums & ((1 << (total + e)) - 2):
                    continue
                new_x = _inserted(rest, d + e)
                new_y = _inserted(y, e)
                found[total + e].append((new_x, new_y) if new_x > new_y else (new_y, new_x))
                stack.append((total + e, new_x, new_x_sums, new_y, new_y_sums))
                stack.append((total + e, new_y, new_y_sums, new_x, new_x_sums))
    counts = enumeration._box_counts(k, top, k)
    for total in range(1, top + 1):
        m = counts[total]
        # Run tuples order as their multisets do: descending is candidate order.
        yield sorted(found[total], reverse=True), m * (m + 1) // 2


class TestScanKernel:
    # Caps past k*k, as at the budget edges: wide masks, sparse partners.
    @pytest.mark.parametrize(
        "mode,k,cap",
        [pytest.param("brute", k, k * k, id=f"brute-{k}") for k in range(1, 7)]
        + [pytest.param("pruned", k, k * k, id=f"pruned-{k}") for k in range(1, 9)]
        + [("brute", 1, 200), ("brute", 2, 80), ("brute", 3, 40), ("brute", 4, 30)],
    )
    def test_join_matches_all_pairs_reference(self, mode, k, cap):
        stream = _stream(k, cap, mode)
        assert len(stream) == cap
        for total, item in enumerate(stream, 1):
            assert item == scan_sum_reference(k, total, mode), total

    # sha256 over repr(item) for a survey's items, S = 1..cap, recorded
    # from two kernels ago (a per-run partition DAG and a join), where
    # the all-pairs reference is too slow to run.
    _DIGESTS = {
        ("pruned", 9, 81): "80fb9e5d7987eb74735b6f414384bf831a0d167ca6451b8c35ea7b315ced4266",
        ("brute", 7, 49): "95463f6d509e63b9cd72db83575278d9e8bd70cb7ce102ca3afde447c8a5fd26",
        ("brute", 2, 709): "4cc921dbd78a1a2fe2b223bf106ec9701a32e6905a6bdf7c23564c85d433cb5a",
        ("brute", 3, 222): "6cf82bc2f8718d73ea25cd30c48b1ff3db4f5999388c8ce4a806c3d54687782a",
    }

    @pytest.mark.parametrize("mode,k,cap", list(_DIGESTS), ids=str)
    def test_stream_matches_recorded_digest(self, mode, k, cap):
        h = hashlib.sha256()
        for item in _stream(k, cap, mode):
            h.update(repr(item).encode())
        assert h.hexdigest() == self._DIGESTS[mode, k, cap]

    @pytest.mark.parametrize("k", range(1, enumeration.MAX_K + 1))
    def test_pruned_stream_matches_the_scan_kernel(self, k):
        # Pruned surveys run the two-sided search to k*k.  Two references
        # hold it sum by sum: a reverse search over derivations, which
        # rests on the derivation lemma, and the search's own hits kept
        # to sides of at most k elements here, which the theorem says
        # drops none.
        stream = _stream(k, k * k, "pruned")
        assert len(stream) == k * k
        reverse = _reverse_search(k, k * k)
        found = enumeration._search(k)
        for total, (item, expected) in enumerate(zip(stream, reverse), 1):
            assert item == expected, total
            bounded = [
                (runs_a, runs_b)
                for runs_a, runs_b in _candidate_order(found.get(total, []))
                if sum(c for _, c in runs_a) <= k and sum(c for _, c in runs_b) <= k
            ]
            assert item[0] == bounded, total

    # Hits of the search for k = 1..16, at every sum.  `_search` takes k
    # alone and checks no limit, so k = 13..16, past MAX_K, are called
    # directly.
    _SEARCH_HITS = (
        1, 3, 8, 19, 52, 108, 283, 586, 1270, 2475, 5373, 9297,
        18913, 33283, 58186, 99344,
    )

    @pytest.mark.parametrize("k", range(1, len(_SEARCH_HITS) + 1))
    def test_search_ends_by_itself(self, k):
        # The search takes no bound but k, so it finds every irreducible
        # pair over [1, k]: none past sum k(k-1), and for k >= 2 only
        # k^(k-1) | (k-1)^k as long as 2k-1, with no theorem used.
        found = enumeration._search(k)
        # `enumerate_irreducible` reads the sums in this order.
        assert list(found) == sorted(found)
        assert sum(len(hits) for hits in found.values()) == self._SEARCH_HITS[k - 1]
        if k == 1:
            assert list(found) == [1]
            return
        assert max(found) == k * (k - 1)
        longest = max(length for hits in found.values() for length, _, _ in hits)
        assert longest == 2 * k - 1
        assert [
            (total, runs)
            for total, hits in found.items()
            for runs in _candidate_order([hit for hit in hits if hit[0] == longest])
        ] == [(k * (k - 1), (((k, k - 1),), ((k - 1, k),)))]

    # sha256 over repr((sum, sorted hits)) for each sum of `_search(k)`, in
    # sum order, each hit's sides put larger packed int first.  k <= 12
    # were recorded from the search before it grew every entry by one
    # rule from one seed per top value, and k = 13..16 from the search
    # that carried both sides' subset sums in each entry.
    _SEARCH_DIGESTS = {
        1: "b55bf6fa48c119bf1bb6ea77ae62e229941804c131f0ccfde554821378328e96",
        2: "d2f52b338a45c0014490ecca0f7d57000d42266ffd4a37fc1f12a67bebf22b30",
        3: "653bb11cdc900c54dd9b1b18731c48113e22a298762c4fa9bc008620351665eb",
        4: "edf5a4248c51d327df1accbd3e4c2eafbaef246befbca70577a90250455292e8",
        5: "bd2b345f99e4af7b270668ef11d51749baf3a00cc78539e65516fd70821a7094",
        6: "46b1739255a6eaf7224538c0183bbda758f3d9538ed573589497d54584bb5511",
        7: "63ce2c98d9a93f9f15f6e3df60f13334f14400185f4d5f257ef0ff3ea767dd0c",
        8: "f2626ef63e28e0c72433d1b3f228b663c912a1fc41932dbfed66282af141790e",
        9: "911d2759e13fad78c4524a8fc87d52c7ed1ca14880d7b2a9623e24eb88633e9d",
        10: "33ef1617ab10ab76427fc9719fe869b6b28752f0b5137342be58a1e9d72736e7",
        11: "505e3ab9a9de9760ead529adb8e1e0446aef666756e79eeddd16eb48a6e83016",
        12: "ac0070b9afe61f0cffc5b1ef41943cc68d27586185ad5ae9c81915a488a072b8",
        13: "482340f0e6370b41db0c0cdc1c09df619bf435b8f2a38f085c8b1aa1948b1142",
        14: "6fcd853290163f58db48b9795c7557a2df1ed779fa8ff9183dfe171e366e0e35",
        15: "410e29cadcba0dc6bd069982d59dcb29b01b8db64ca056570fb9d40774fc3c61",
        16: "9030310aacbd1c54df8e91b36ba56528924e97f4ae07da9897bb8ebc85d34823",
    }

    @pytest.mark.parametrize("k", list(_SEARCH_DIGESTS))
    def test_search_hits_match_recorded_digest(self, k):
        found = enumeration._search(k)
        h = hashlib.sha256()
        for total in sorted(found):
            hits = sorted((n, max(a, b), min(a, b)) for n, a, b in found[total])
            h.update(repr((total, hits)).encode())
        assert h.hexdigest() == self._SEARCH_DIGESTS[k]

    @pytest.mark.parametrize("k", range(2, enumeration.MAX_K + 1))
    def test_search_nests_across_k(self, k):
        # Seed v adds no value above v, so the search for k - 1 is the
        # search for k without the hits that hold k.
        below = 1 << 8 * (k - 1)  # the packed side {k}
        nested = {
            total: sorted(hit for hit in hits if hit[1] < below and hit[2] < below)
            for total, hits in enumeration._search(k).items()
        }
        smaller = enumeration._search(k - 1)
        assert {total: hits for total, hits in nested.items() if hits} == {
            total: sorted(hits) for total, hits in smaller.items()
        }

    @pytest.mark.parametrize(
        "k,cap",
        [(k, cap) for k in range(2, 9) for cap in sorted({1, k, 2 * k, k * (k - 1) - 1})]
        + [(12, 1), (12, 12), (12, 40)],
    )
    @pytest.mark.parametrize("mode", ["brute", "pruned"])
    def test_small_cap_stream_is_the_default_stream_cut(self, mode, k, cap):
        # A cap below k(k-1) no longer shortens the search; it only cuts
        # the sums read, so the stream is the default-cap stream's head.
        stream = _stream(k, cap, mode)
        assert stream == _stream(k, k * k, mode)[:cap]
        if mode == "pruned":
            assert stream == list(_reverse_search(k, cap))

    # sha256 over repr(item) for the items of a pruned survey, recorded
    # from the reverse search that pruned surveys ran before this search.
    _PRUNED_DIGESTS = {
        10: "497936ebad25fc98b2e2f596d7c63f244c4f49f64acdbeba33eb72185b042ef2",
        11: "0393235f98236cd00a55fe7654851c2b828fb25ab2160c26255d7b5e0ea43d7f",
        12: "e20a798e46de0e818aaf1b9366109b46ff94b4e6cfdab621dc0ab71e6fe2d477",
    }

    @pytest.mark.parametrize("k", list(_PRUNED_DIGESTS))
    def test_pruned_stream_past_k9_matches_recorded_digest(self, k):
        h = hashlib.sha256()
        for item in _stream(k, k * k, "pruned"):
            h.update(repr(item).encode())
        assert h.hexdigest() == self._PRUNED_DIGESTS[k]

    def test_depth_does_not_grow_with_the_sum(self):
        # Both searches run from a stack, so surveys at the largest brute
        # caps, and pruned k=9, run within 64 frames of the caller.
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 64)
        try:
            for k, cap in [(2, 709), (1, 11280), (7, 65)]:
                _stream(k, cap, "brute")
            _stream(9, 81, "pruned")
            for _ in enumerate_irreducible(EnumConfig(k=9, mode="pruned")):
                pass
        finally:
            sys.setrecursionlimit(limit)


    @staticmethod
    def _counting(monkeypatch, *names):
        """Count calls of the named enumeration functions from now on."""
        calls = {name: [] for name in names}
        for name in names:
            fn = getattr(enumeration, name)

            def counting(*args, _fn=fn, _log=calls[name]):
                _log.append(args)
                return _fn(*args)

            monkeypatch.setattr(enumeration, name, counting)
        return calls

    @pytest.mark.parametrize(
        "mode,k,cap",
        [("brute", 1, 11280), ("brute", 2, 709), ("brute", 6, 36), ("brute", 7, 65)]
        + [("pruned", 9, 81), ("pruned", 12, 144)],
        ids=["1-11280", "2-709", "6-36", "7-65", "pruned-9-81", "pruned-12-144"],
    )
    def test_brute_survey_searches_once_and_scans_each_sum_once(self, monkeypatch, mode, k, cap):
        # Both modes run one search, which takes k alone, and one count
        # DP, which bounds the candidates to `most` elements: the cap in
        # brute mode, where it bounds nothing, and k in pruned.
        calls = self._counting(monkeypatch, "_search", "_scan_sum", "_box_counts", "_scan_task")
        report = compute_ell(EnumConfig(k=k, sum_cap=cap, mode=mode))
        assert report.ell == max(2, 2 * k - 1)
        most = cap if mode == "brute" else k
        assert calls["_search"] == [(k,)]
        # Each sum is read by one direct `_scan_sum` call, with no task hop.
        assert [total for _, _, total in calls["_scan_sum"]] == list(range(1, cap + 1))
        assert calls["_scan_task"] == []
        # Every sum reads the one search's results.
        assert len({(id(found), id(counts)) for found, counts, _ in calls["_scan_sum"]}) == 1
        assert calls["_box_counts"] == [(k, cap, most)]

    @pytest.mark.parametrize(
        "survey,a,b,searches",
        [
            (enumerate_irreducible, EnumConfig(k=7, sum_cap=65), EnumConfig(k=6), [(7,), (6,)]),
            (enumerate_irreducible, EnumConfig(k=1, sum_cap=11280), EnumConfig(k=2),
             [(1,), (2,)]),
            (enumerate_irreducible, EnumConfig(k=9, mode="pruned"),
             EnumConfig(k=8, mode="pruned"), [(9,), (8,)]),
            (extremal_pairs, EnumConfig(k=12, sum_cap=100_000), EnumConfig(k=11, mode="pruned"),
             [(12,), (11,)]),
        ],
        ids=["brute-7-65-with-6", "brute-1-11280-with-2", "pruned-9-with-8",
             "extremal-brute-12-100000-with-pruned-11"],
    )
    def test_interleaved_surveys_each_search_once(self, monkeypatch, survey, a, b, searches):
        # Two surveys read side by side share nothing: each stream is its
        # solo run, and each survey searches once, for its own k, and
        # reads its sums off that search alone, with no count DP and no
        # per-sum read.
        solo_a = list(survey(a))
        solo_b = list(survey(b))
        calls = self._counting(monkeypatch, "_search", "_box_counts", "_scan_all", "_scan_sum")
        pairs = list(itertools.zip_longest(survey(a), survey(b)))
        assert [p for p, _ in pairs if p is not None] == solo_a
        assert [q for _, q in pairs if q is not None] == solo_b
        assert calls["_search"] == searches
        assert calls["_box_counts"] == calls["_scan_all"] == calls["_scan_sum"] == []


# The positional arguments each replacement forwards or takes.
_TRACER_ARITY = {"_scan_all": 2, "_scan_sum": 3, "_scan_task": 1}


@pytest.mark.parametrize("name", ["_scan_all", "_scan_sum", "_scan_task", "_fold_run", "pair_to_obj"])
def test_keeps_the_names_the_tracer_patches(name):
    # A traced benchmark round replaces these enumeration names and puts
    # them back afterwards; one missing name fails the round part-way,
    # and so does a signature other than the one its replacement expects.
    assert hasattr(enumeration, name), f"perfbench/tracing.py patches enumeration.{name}"
    if name in _TRACER_ARITY:
        params = inspect.signature(getattr(enumeration, name)).parameters.values()
        kinds = [p.kind for p in params]
        assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * _TRACER_ARITY[name], name


class TestWorkerCount:
    # A survey takes no worker count.  The command line still takes
    # `--workers`, refuses a count below one, and ignores any other.
    @staticmethod
    def _run(capsys, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize(
        "cfg,argv",
        [(EnumConfig(k=3, sum_cap=10), ("3", "--sum-cap", "10")),
         (EnumConfig(k=5, mode="pruned"), ("5", "--mode", "pruned"))],
        ids=["brute-3-cap10", "pruned-5"],
    )
    def test_uneven_blocks_do_not_change_output(self, capsys, cfg, argv):
        runs = {w: self._run(capsys, "enumerate", *argv, "--workers", str(w)) for w in (1, 2, 3)}
        listing = "".join(format_pair(p) + "\n" for p in enumerate_irreducible(cfg))
        assert listing and runs[1] == (0, listing, "")
        assert runs[2] == runs[1] and runs[3] == runs[1]

    def test_rejects_fewer_than_one(self, capsys):
        # The count is refused by name, before any pair is printed.
        for mode in ("brute", "pruned"):
            for bad in ("0", "-3"):
                assert self._run(capsys, "enumerate", "2", "--mode", mode, "--workers", bad) == (
                    1, "", f"error: workers must be at least 1, got {bad}\n")

    def test_bad_count_fails_before_streaming(self, capsys):
        # `ell` refuses the count before it surveys; the library has no
        # count to refuse.
        for mode in ("brute", "pruned"):
            cfg = EnumConfig(k=2, mode=mode)
            for bad in ("0", "-3"):
                argv = ("ell", "2", "--mode", mode, "--no-cache", "--workers", bad)
                assert self._run(capsys, *argv) == (
                    1, "", f"error: workers must be at least 1, got {bad}\n")
            with pytest.raises(TypeError):
                compute_ell(cfg, workers=1)
            with pytest.raises(TypeError):
                enumerate_irreducible(cfg, workers=1)

    @pytest.mark.parametrize(
        "cfg,argv",
        [(EnumConfig(k=4), ("4",)), (EnumConfig(k=5, mode="pruned"), ("5", "--mode", "pruned"))],
        ids=["brute-4", "pruned-5"],
    )
    def test_no_survey_forks(self, monkeypatch, capsys, cfg, argv):
        # Every survey runs in this process, at any count.
        def no_fork():
            raise AssertionError("a survey forked")

        def ell(workers):
            code, out, err = self._run(capsys, "ell", *argv, "--no-cache", "--workers", workers)
            return code, json.loads(out) | {"wall_time": 0}, err

        report = _timeless(compute_ell(cfg))
        stream = list(enumerate_irreducible(cfg))
        serial = ell("1"), self._run(capsys, "enumerate", *argv, "--workers", "1")
        monkeypatch.setattr(os, "fork", no_fork)
        assert _timeless(compute_ell(cfg)) == report
        assert list(enumerate_irreducible(cfg)) == stream
        assert (ell("4"), self._run(capsys, "enumerate", *argv, "--workers", "4")) == serial


class TestSurveyBudget:
    @pytest.mark.parametrize("k,ell", [(1, 2), (enumeration.MAX_K, 2 * enumeration.MAX_K - 1)])
    def test_brute_cap_at_the_bound_runs(self, k, ell):
        cap = enumeration.MAX_BRUTE_CAP
        assert cap == 100_000
        report = compute_ell(EnumConfig(k=k, sum_cap=cap))
        assert (report.ell, report.sum_cap) == (ell, cap)
        # The search ends below k*k, so a cap past it lists nothing more.
        stream = list(enumerate_irreducible(EnumConfig(k=k, sum_cap=cap)))
        assert stream == list(enumerate_irreducible(EnumConfig(k=k)))

    @pytest.mark.parametrize("k", [1, enumeration.MAX_K])
    def test_brute_cap_past_the_bound_is_refused(self, k):
        refusal = "^sum cap 100001 is too large for brute mode; the largest supported cap is 100000$"
        with pytest.raises(ResourceLimitError, match=refusal):
            EnumConfig(k=k, sum_cap=enumeration.MAX_BRUTE_CAP + 1)
        # Pruned mode scans no sum above k*k, so it takes any cap.
        EnumConfig(k=k, sum_cap=10**9, mode="pruned")

    def test_pruned_sums_above_k_squared_are_not_scanned(self, monkeypatch):
        # The survey yields one result per sum, in S order, and each hit's
        # sum is the sum of the result that holds it.
        scanned = []
        scan_all = enumeration._scan_all

        def recording_scan_all(cfg, workers):
            for total, (hits, sc) in enumerate(scan_all(cfg, workers), 1):
                for runs_a, runs_b in _candidate_order(hits):
                    assert Multiset(runs_a).sigma == Multiset(runs_b).sigma == total
                scanned.append(total)
                yield hits, sc

        monkeypatch.setattr(enumeration, "_scan_all", recording_scan_all)
        full = compute_ell(EnumConfig(k=4, sum_cap=16, mode="pruned"))
        report = compute_ell(EnumConfig(k=4, sum_cap=10**6, mode="pruned"))
        assert scanned == list(range(1, 17)) * 2
        assert report.pairs_scanned == full.pairs_scanned
        assert report.witnesses == full.witnesses

    def test_a_survey_holds_no_per_sum_task_list(self):
        # Creating a survey runs the search and the count DP; its per-sum
        # tasks are made one at a time as they are read.
        cfg = EnumConfig(k=1, sum_cap=enumeration.MAX_BRUTE_CAP)
        tracemalloc.start()
        try:
            enumeration._scan_all(cfg, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize(
        "mode,k", [("brute", k) for k in range(1, 13)] + [("pruned", k) for k in range(1, 10)]
    )
    def test_default_caps_are_in_budget(self, mode, k):
        enumeration._scan_all(EnumConfig(k=k, mode=mode), 1)


class TestComputeEll:
    def test_k2(self):
        report = compute_ell(EnumConfig(k=2, sum_cap=8))
        assert report.ell == 3
        assert report.witnesses == (pair((2,), (1, 1)),)

    def test_k3(self):
        assert compute_ell(EnumConfig(k=3, sum_cap=12)).ell == 5

    def test_k1_edge(self):
        report = compute_ell(EnumConfig(k=1, sum_cap=4))
        assert report.ell == 2
        assert report.witnesses == (pair((1,), (1,)),)

    def test_report_discloses_caps(self):
        report = compute_ell(EnumConfig(k=2, sum_cap=8))
        obj = report.to_obj()
        assert obj["mode"] == "brute"
        assert obj["sum_cap"] == 8
        assert obj["k"] == 2
        assert set(obj) == {
            "k",
            "ell",
            "witnesses",
            "pairs_scanned",
            "irreducible_count",
            "mode",
            "sum_cap",
            "wall_time",
        }
        json.dumps(obj)  # serializable as a single document

    def test_report_keys_are_the_fields_in_order(self):
        # The printed report's key order is the field order.
        obj = compute_ell(EnumConfig(k=2, sum_cap=8)).to_obj()
        names = ["k", "ell", "witnesses", "pairs_scanned", "irreducible_count",
                 "mode", "sum_cap", "wall_time"]
        assert list(obj) == list(inspect.signature(EllReport).parameters) == names

    def test_counts_are_plausible(self):
        report = compute_ell(EnumConfig(k=2, sum_cap=4))
        assert report.irreducible_count == 3
        assert report.pairs_scanned >= report.irreducible_count


class TestWitnessesOnly:
    # compute_ell builds Pairs only for its witnesses, so the engines'
    # hits are checked here: each builds a valid Pair, of the length the
    # search stored with it.  Hits carry no side order, so the Pair is
    # oriented here.
    @pytest.mark.parametrize(
        "mode,k", [("brute", k) for k in range(1, 8)] + [("pruned", k) for k in range(1, 11)]
    )
    def test_every_hit_is_a_valid_canonical_pair(self, mode, k):
        cfg = EnumConfig(k=k, mode=mode)
        for hits, _ in enumeration._scan_all(cfg, 1):
            for length, x, y in hits:
                p = pair_canonical(Multiset(_packed_runs(x)), Multiset(_packed_runs(y)))
                assert p.length == length

    @pytest.mark.parametrize(
        "mode,k", [("brute", 6), ("pruned", 9), ("pruned", enumeration.MAX_K)]
    )
    @pytest.mark.parametrize("window", [None, "short", "near"])
    def test_decodes_runs_only_for_its_witnesses(self, monkeypatch, mode, k, window):
        # Each distinct side of a witness is decoded once; no other hit
        # is decoded.  With a window, the witnesses are the pairs a
        # windowed enumeration yields.
        cfg = EnumConfig(k=k, mode=mode)
        calls = TestScanKernel._counting(monkeypatch, "_run_tuple")
        if window is None:
            witnesses = compute_ell(cfg).witnesses
        else:
            window = {"short": (1, 5), "near": (2 * k - 3, 2 * k - 2)}[window]
            witnesses = list(enumerate_irreducible(cfg, length_window=window))
            assert all(window[0] <= p.length <= window[1] for p in witnesses)
        assert witnesses
        sides = {side for p in witnesses for side in (p.a, p.b)}
        assert len(calls["_run_tuple"]) == len(sides)

    def test_enumerate_decodes_each_distinct_side_once(self, monkeypatch):
        # The 9,297 pairs at pruned k=12 have 4,564 distinct sides;
        # decoding both sides of every hit would take 18,594.
        calls = TestScanKernel._counting(monkeypatch, "_run_tuple")
        pairs = list(enumerate_irreducible(EnumConfig(k=12, mode="pruned")))
        assert len(pairs) == 9_297
        sides = {side for p in pairs for side in (p.a, p.b)}
        assert len(calls["_run_tuple"]) == len(sides) == 4_564

    @pytest.mark.parametrize(
        "mode,k", [("brute", k) for k in range(1, 7)] + [("pruned", k) for k in range(1, 10)]
    )
    def test_report_matches_a_reference_built_from_pairs(self, mode, k):
        cfg = EnumConfig(k=k, mode=mode)
        stream = list(enumeration._scan_all(cfg, 1))
        pairs = list(enumerate_irreducible(cfg))
        ell = max(p.length for p in pairs)
        expected = EllReport(
            k=k,
            ell=ell,
            witnesses=tuple(p for p in pairs if p.length == ell),
            pairs_scanned=sum(sc for _, sc in stream),
            irreducible_count=sum(len(hits) for hits, _ in stream),
            mode=mode,
            sum_cap=k * k,
            wall_time=0.0,
        )
        assert _timeless(compute_ell(cfg)) == expected
        assert expected.irreducible_count == len(pairs)
        # A window keeps the stream's pairs of its lengths, in stream order.
        for lo, hi in ((1, 3), (2 * k - 1, 2 * k - 1), (2 * k, 3 * k)):
            windowed = list(enumerate_irreducible(cfg, length_window=(lo, hi)))
            assert windowed == [p for p in pairs if lo <= p.length <= hi], (lo, hi)
            if lo == 2 * k and k > 1:
                assert windowed == []

    def test_pruned_k9_counts(self):
        # The figures perfbench/workloads.py gates survey-pruned-k9-w2 on.
        report = compute_ell(EnumConfig(k=9, mode="pruned"))
        assert report.pairs_scanned == 29_089_687
        assert report.irreducible_count == 1_270


@functools.cache
def _naive_count(total, parts, size):
    """Partitions of `total` into at most `parts` parts of size at most
    `size`: those with a part equal to `size`, and those without."""
    if total == 0:
        return 1
    if parts == 0 or size == 0:
        return 0
    if size > total:
        return _naive_count(total, parts, total)
    return _naive_count(total - size, parts - 1, size) + _naive_count(total, parts, size - 1)


class TestBoxCounts:
    def test_gaussian_counts_equal_the_dag_counts(self):
        # Pruned m is read off [2k, k]_q: partitions with at most k parts
        # of size at most k, as the reference DAG and the naive recursion
        # count them.
        for k in range(1, 13):
            counts = enumeration._box_counts(k, k * k, k)
            assert counts == [_dag_node(total, k, k)[0] for total in range(k * k + 1)], k
            assert counts == [_naive_count(total, k, k) for total in range(k * k + 1)], k
            # No partition fitting the box has a sum above k*k.
            for top in (1, k, 2 * k, k * k - 1, k * k + 3):
                expected = (counts + [0] * 3)[: top + 1]
                assert enumeration._box_counts(k, top, k) == expected, (k, top)

    @pytest.mark.parametrize("k", range(1, enumeration.MAX_K + 1))
    def test_unbounded_length_counts_equal_naive_counts(self, k):
        # Brute m: partitions with parts of size at most k, any number of
        # them; a length bound of at least the sum bounds nothing.
        top = 300
        counts = enumeration._box_counts(k, top, top)
        assert counts == [_naive_count(total, top, k) for total in range(top + 1)]
        assert enumeration._box_counts(k, top, 10 * top) == counts

    @pytest.mark.parametrize("k,top", [(1, 500), (3, 60), (6, 30)])
    def test_unbounded_length_counts_equal_the_generator_counts(self, k, top):
        counts = enumeration._box_counts(k, top, top)
        for total in range(1, top + 1):
            assert counts[total] == sum(1 for _ in enumerate_multisets(k, total)), total


class TestExtremalPairs:
    def test_k3(self):
        assert extremal_pairs(EnumConfig(k=3, sum_cap=12)) == [
            pair((3, 3), (2, 2, 2))
        ]

    def test_k2(self):
        assert extremal_pairs(EnumConfig(k=2, sum_cap=8)) == [pair((2,), (1, 1))]

    def test_k4(self):
        assert extremal_pairs(EnumConfig(k=4, sum_cap=20)) == [
            pair((4, 4, 4), (3, 3, 3, 3))
        ]

    def test_k1_rejected(self):
        with pytest.raises(KTooSmallError):
            extremal_pairs(EnumConfig(k=1))

    def test_matches_construction(self):
        for k in (2, 3, 4):
            assert extremal_pairs(EnumConfig(k=k)) == [extremal_construction(k)]


class TestTheoremBounds:
    def test_worked_example(self):
        assert verify_theorem_bounds(pair((7, 7, 7, 1, 1), (6, 6, 6, 5)))

    def test_smallest_pair(self):
        assert verify_theorem_bounds(pair((1,), (1,)))

    def test_extremal_is_tight(self):
        p = pair((3, 3), (2, 2, 2))
        assert verify_theorem_bounds(p)
        assert p.a.cardinality == p.b.max_value
        assert p.b.cardinality == p.a.max_value

    # The search is complete, so a default-cap survey at k <= MAX_K
    # yields every irreducible pair with values in [1, k].
    def test_all_enumerated_pairs_satisfy_bounds(self):
        for k in range(1, enumeration.MAX_K + 1):
            for p in enumerate_irreducible(EnumConfig(k=k)):
                assert verify_theorem_bounds(p), p

    # The general bound cell by cell, read off one search at MAX_K, which
    # uses no theorem: cell (a, b) holds the pairs whose maxima are
    # a >= b.  No side has more elements than the other's maximum, so no
    # pair in the cell is longer than a + b; every coprime cell (46 at
    # k = 12) reaches a + b, and a diagonal cell a = b > 1 holds only a | a.
    def test_general_bound_cell_by_cell(self):
        k = enumeration.MAX_K
        longest = {}
        for hits in enumeration._search(k).values():
            for n, x, y in hits:
                (max_x, size_x), (max_y, size_y) = (
                    (runs[0][0], sum(c for _, c in runs)) for runs in map(_packed_runs, (x, y))
                )
                assert size_x <= max_y and size_y <= max_x
                assert n == size_x + size_y
                cell = (max(max_x, max_y), min(max_x, max_y))
                longest[cell] = max(longest.get(cell, 0), n)
        coprime = [(a, b) for a in range(1, k + 1) for b in range(1, a + 1) if math.gcd(a, b) == 1]
        assert {cell: longest[cell] for cell in coprime} == {cell: sum(cell) for cell in coprime}
        assert {a: longest[a, a] for a in range(2, k + 1)} == dict.fromkeys(range(2, k + 1), 2)

    def test_disjointness_of_longer_pairs(self):
        for k in range(1, enumeration.MAX_K + 1):
            for p in enumerate_irreducible(EnumConfig(k=k)):
                if p.length > 2:
                    assert not set(p.a.values()) & set(p.b.values()), p
