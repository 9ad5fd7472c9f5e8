"""Shared constructors and hypothesis strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from zspairs import (
    Multiset,
    Pair,
    enumerate_multisets,
    multiset,
    normalize,
    pair_canonical,
    proper_subset_sums,
)


def ms(*elements: int) -> Multiset:
    return multiset(*elements)


def pair(xs: tuple[int, ...], ys: tuple[int, ...]) -> Pair:
    return pair_canonical(multiset(*xs), multiset(*ys))


run_lists = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 4)), min_size=1, max_size=5
)

multisets = run_lists.map(normalize)


@st.composite
def balanced_pairs(draw) -> Pair:
    """A canonical pair with equal sums: one random side, the other a
    random composition of the same total."""
    a = draw(multisets)
    remaining = a.sigma
    parts = []
    while remaining > 0:
        part = draw(st.integers(1, min(remaining, 9)))
        parts.append(part)
        remaining -= part
    b = normalize([(v, 1) for v in parts])
    return pair_canonical(a, b)


def scan_sum_reference(k: int, total: int, mode: str):
    """The all-pairs scan the join must reproduce: every same-sum
    candidate pair (i <= j) visited, pruned mode's exact predicates, then
    the interior-mask AND test.  Returns (hits as run tuples, pairs
    visited)."""
    if mode == "brute":
        sides = list(enumerate_multisets(k, total))
    else:
        # Pruned mode's candidates: the same order, at most k elements.
        sides = [m for m in enumerate_multisets(k, total) if m.cardinality <= k]
    interior = (1 << total) - 2
    masks = [proper_subset_sums(m).achievable & interior for m in sides]
    cards = [m.cardinality for m in sides]
    maxima = [m.max_value for m in sides]
    valsets = [set(m.values()) for m in sides]
    hits = []
    visited = 0
    for i in range(len(sides)):
        for j in range(i, len(sides)):
            visited += 1
            if mode == "pruned":
                if cards[i] > maxima[j] or cards[j] > maxima[i]:
                    continue
                if cards[i] + cards[j] > 2 and valsets[i] & valsets[j]:
                    continue
            if not masks[i] & masks[j]:
                hits.append((sides[i].runs, sides[j].runs))
    return hits, visited
