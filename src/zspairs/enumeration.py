"""Exhaustive and pruned search over irreducible pairs.

Both modes read one search, `_search`, which takes k alone, uses no
structural theorem and ends by itself; its docstring gives the argument
that it reaches every irreducible pair over [1, k] exactly once.  So a
survey's maximum length is discovered, not assumed.  A survey runs the
search once, when it is called, and reads its sums off its own result,
so no survey shares state with another.  The modes differ only in the
sums a survey reads and in what m counts (below), so neither checks the
other; the independent references are `is_irreducible_naive` and, in
tests/, `scan_sum_reference` (all pairs) and `_reverse_search`.

Brute mode reads sums up to the cap and uses nothing but the definition,
so it stays theorem-free.  Pruned mode reads sums up to min(cap, k*k),
the largest sum of a multiset of at most k parts, and counts only such
multisets as its candidates.  It rests on the theorem that each side's
cardinality is at most the other side's maximum: no irreducible pair
lies past those bounds, so every hit it reports is one of the
candidates it counts.  No hit lies above k(k-1), below k*k, so
`enumerate_irreducible` and `extremal_pairs` read the search up to the
cap with no mode; only `compute_ell` counts candidates.  It lists none
of them: it counts m(m+1)/2 pairs of the m multisets of sum S with
values <= k and at most L elements, L = k in pruned mode and the cap in
brute mode, where it bounds nothing (`_box_counts` gives m).

`_pairs` alone turns one sum's hits into Pairs, oriented and ordered by
their packed ints, decoding each distinct side once, where hits are
read: `enumerate_irreducible` each sum's hits in its length window, and
`compute_ell` only its witnesses, grouped by sum.
The window is an argument of `enumerate_irreducible` alone, which
`extremal_pairs` narrows to 2k - 1; a survey, and the cache key of its
report, is (k, sum cap, mode), so `compute_ell` takes no window and
counts every hit.

The set of irreducible pairs for a fixed k is infinite a priori, so every
report states the sum cap it was computed under; nothing is extrapolated.
Both modes take k up to MAX_K, and brute mode a cap up to MAX_BRUTE_CAP;
past either, making the config raises ResourceLimitError.
Every survey runs in the calling process and takes no worker count:
starting a process pool (about 10 ms on 2 vCPUs) cost more than it
saved on every shipped brute survey, and pruned surveys run the same
search.
"""

from __future__ import annotations

import time
from typing import Iterator

from .core import KTooSmallError, Multiset, Pair, ResourceLimitError, _set, _Value
from .formats import pair_to_obj
# Called nowhere here: perfbench/tracing.py patches this name.
from .irreducibility import _fold_run

# One survey limit for both modes, set from measured cost: README's
# brute table gives it at k = 1, 7 and 12 up to MAX_BRUTE_CAP.  A survey
# at any cap pays for the whole search, even at cap 1, and a larger cap
# adds to `ell` only the count DP, O(k * cap), and one read per sum, and
# nothing to `enumerate`, which reads only the sums that hold hits.
# Pruned mode reads no sum above k*k, so it takes any cap.
MAX_K = 12
MAX_BRUTE_CAP = 100_000

_MODES = ("brute", "pruned")


class EnumConfig(_Value):
    """A survey and its cache key: alphabet bound k, sum cap (default
    k*k) and mode.  k and the cap are `int`s, not bools or floats
    (TypeError), as a report prints them and a cache entry is named."""

    __slots__ = _fields = ("k", "sum_cap", "mode")

    def __init__(self, k: int, sum_cap: int | None = None, mode: str = "brute") -> None:
        if type(k) is not int or not (sum_cap is None or type(sum_cap) is int):
            raise TypeError(f"k and sum_cap must be ints, got ({k!r}, {sum_cap!r})")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if k > MAX_K:
            raise ResourceLimitError(f"k={k} exceeds the survey limit of {MAX_K}")
        if sum_cap is None:
            sum_cap = k * k
        if mode == "brute" and sum_cap > MAX_BRUTE_CAP:
            raise ResourceLimitError(
                f"sum cap {sum_cap} is too large for brute mode; "
                f"the largest supported cap is {MAX_BRUTE_CAP}"
            )
        if sum_cap < 1:
            raise ValueError(f"sum_cap must be positive, got {sum_cap}")
        for name, value in zip(self._fields, (k, sum_cap, mode)):
            _set(self, name, value)


class EllReport(_Value):
    """Outcome of a maximum-length survey, with the caps it ran under."""

    __slots__ = _fields = (
        "k", "ell", "witnesses", "pairs_scanned", "irreducible_count", "mode",
        "sum_cap", "wall_time",
    )

    def __init__(self, k: int, ell: int, witnesses: tuple[Pair, ...], pairs_scanned: int,
                 irreducible_count: int, mode: str, sum_cap: int, wall_time: float) -> None:
        values = (k, ell, witnesses, pairs_scanned, irreducible_count, mode, sum_cap, wall_time)
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def to_obj(self) -> dict:
        # Keys in field order: the witnesses keep their place.
        obj = {name: getattr(self, name) for name in self._fields}
        obj["witnesses"] = [pair_to_obj(p) for p in self.witnesses]
        return obj


def enumerate_multisets(k: int, total: int) -> Iterator[Multiset]:
    """Every multiset with values in [1, k] and sum exactly `total`,
    yielded once each in descending-lexicographic order."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if total < 1:
        raise ValueError(f"total must be positive, got {total}")
    for runs in _multiset_runs(total, k, ()):
        yield Multiset(runs)


def _multiset_runs(remaining: int, max_part: int, runs: tuple[tuple[int, int], ...]):
    """The completions of `runs` that partition `remaining` into parts of
    size at most `max_part`, generated lazily in descending-lexicographic
    order, largest part first and longest run first.  Parts below any
    v >= 2 can always fill the rest, so every count c of v is a run and
    every call yields; a run of ones takes all that is left."""
    if remaining == 0:
        yield runs
        return
    for v in range(min(max_part, remaining), 1, -1):
        for c in range(remaining // v, 0, -1):
            yield from _multiset_runs(remaining - v * c, v - 1, runs + ((v, c),))
    yield runs + ((1, remaining),)


def _search(k: int) -> dict[int, list]:
    """Every irreducible pair with values in [1, k]: a dict from each
    sum, in ascending order, to its hits, unsorted, each as (length,
    completed side, other side) with no side order and both sides
    packed (see `_run_tuple`).

    A pair is irreducible iff the interior subset sums of its sides,
    those in 1..S-1, are disjoint.  The search grows both sides of a
    pair at once, from a stack, for every sum in one pass.  The stack
    starts with one seed per top value v, the empty side A against
    B = {v}, and one rule grows every entry: the side with the smaller
    partial sum gains elements in descending order, none above its last
    one (v for the empty side).  A stack entry is (sa, A's bound, A, sb,
    B's bound, B, D, the pair's length), a bound being the largest
    element a side may gain.

    D (`diffs`) is the entry's difference set: bit b - a + sa for each
    subset sum a of A and b of B.  Adding e to either side makes it
    D | D << e.  The entries visited share no positive sum, so adding e
    to A makes one (b = a + e) iff bit sa + e is set, and adding e to B
    (a = b + e) iff bit sa - e is.  Such a child is dropped: subset sums
    only gain values as a prefix grows, and the shared value is at most
    the smaller partial sum, so it lies below the larger one and is
    interior to every completion.  So the lighter side's children are
    the clear bits of one window of D, a rejected child costs nothing,
    and no side is swapped.  B is never empty, so a lighter B's bound is
    at most sb < sa: its window starts at sa - lb > 0, and is read from
    the top.

    Adding d = |sa - sb| to the lighter side makes the partial sums
    equal, which ends the pair; it is recorded untested.  Bit sb is set
    by a = sa, b = sb, so d is never a child, and it needs no test: any
    other a, b with b - a = sb - sa has b < sb, and sa - a = sb - b > 0
    would be a shared positive sum of this entry.

    Seed v completes v | v.  Any other irreducible pair holds its top
    value v on one side only, since equal maxima are a shared interior
    sum unless both sides are {v}, and it grows from seed v in a forced
    order that drops no prefix.  So the search reaches each irreducible
    pair exactly once, with no seen-set, and the search for k - 1 is the
    search for k without the pairs that hold k.  The stack empties by
    itself, at sum k(k-1) for k >= 2, so no pair at any sum is missed;
    `test_search_ends_by_itself` pins that largest sum, so one list per
    sum up to k*k holds every hit.  The dict is built from those lists
    by `enumerate`, so it is in ascending sum order, the order in which
    `enumerate_irreducible` reads it.

    A side is one int holding its count of each value v in byte v - 1,
    so extending it by e adds `one[e]`.  No count reaches 256, which
    needs a pair of at least 257 elements: each entry completes to an
    irreducible pair, its lighter side gaining |sa - sb|, no longer than
    the longest hit, 2k - 1 as `test_search_ends_by_itself` pins for
    every k <= 16.  The packing holds while k <= 128.

    An entry's first child, the one a stack holding all its children
    would pop first, is grown in place, in the loop's own variables; the
    others are pushed, and a new entry is popped only when the current
    one has no child.  The children are read lowest bit first, so the
    first child is the last one read.  The tree, the order it is visited
    in and the hits are those of pushing every child, with about half as
    many pushes.  CPython 3.11 warms a function up on calls and on
    unconditional backward jumps, not on a `while cond` loop's, so the
    inner `while True` loop, which jumps back once per entry it grows in
    place, lets the search specialize within its first call."""
    one = [0] + [1 << 8 * (e - 1) for e in range(1, k + 1)]
    low = [(1 << e) - 1 for e in range(k + 1)]
    found: list[list] = [[] for _ in range(k * k + 1)]
    stack = [(0, v, 0, v, v, one[v], 1 | 1 << v, 1) for v in range(1, k + 1)]
    push, pop = stack.append, stack.pop
    while stack:
        sa, la, side_a, sb, lb, side_b, diffs, n = pop()
        # Unconditional on purpose, for CPython 3.11 (see above).
        while True:
            n += 1
            # Adding d = |sa - sb| to the lighter side completes the pair,
            # untested (see above).
            if sa < sb:
                if sb - sa <= la:
                    found[sb].append((n, side_a + one[sb - sa], side_b))
                free = ~(diffs >> sa + 1) & low[la]
                if not free:
                    break
                e = (free & -free).bit_length()
                free &= free - 1
                while free:
                    push((sa + e, e, side_a + one[e], sb, lb, side_b, diffs | diffs << e, n))
                    e = (free & -free).bit_length()
                    free &= free - 1
                sa += e
                la = e
                side_a += one[e]
            else:
                if sa - sb <= lb:
                    found[sa].append((n, side_b + one[sa - sb], side_a))
                free = ~(diffs >> sa - lb) & low[lb]
                if not free:
                    break
                e = lb + 1 - (free & -free).bit_length()
                free &= free - 1
                while free:
                    push((sa, la, side_a, sb + e, e, side_b + one[e], diffs | diffs << e, n))
                    e = lb + 1 - (free & -free).bit_length()
                    free &= free - 1
                sb += e
                lb = e
                side_b += one[e]
            diffs |= diffs << e
    return {total: hits for total, hits in enumerate(found) if hits}


def _run_tuple(side: int) -> tuple[tuple[int, int], ...]:
    """The run tuple of a packed side, read from its top byte down: the
    count of value v is byte v - 1."""
    data = side.to_bytes((side.bit_length() + 7) // 8, "big")
    top = len(data)
    return tuple([(top - i, c) for i, c in enumerate(data) if c])


def _pairs(hits) -> list[Pair]:
    """One sum's hits (any, X, Y) as canonical Pairs, in survey order.
    A packed side orders as its run tuple does, so the larger int is A
    and the (A, B) ints sort descending.  Each distinct side is decoded
    once; hits of one sum often share one."""
    oriented = sorted([(x, y) if x > y else (y, x) for _, x, y in hits], reverse=True)
    sides = {side: Multiset(_run_tuple(side)) for side in {s for pair in oriented for s in pair}}
    return [Pair(sides[a], sides[b]) for a, b in oriented]


def _scan_sum(found: dict, counts: list[int], total: int):
    """All irreducible pairs with common sum `total`, as the
    search's unsorted (length, X, Y) hits, plus the number of candidate
    pairs, m(m+1)/2 for the m multisets of sum `total` that the survey
    counts: both read off one survey's results `(found, counts)`."""
    m = counts[total]
    return found.get(total, []), m * (m + 1) // 2


def _box_counts(k: int, top: int, length: int) -> list[int]:
    """The number of partitions of S into at most `length` parts of size at
    most k, for S = 0..top: the coefficients of the product of
    (1 - q^(length+i)) / (1 - q^i) for i = 1..k, the Gaussian binomial
    [length + k, k]_q (Andrews, The Theory of Partitions, ch. 3).  A
    length of at least `top` bounds nothing below it."""
    counts = [1] + [0] * top
    for i in range(1, k + 1):
        # Multiplying by 1 - q^(length+i) reads only lower terms: top down.
        for s in range(top, length + i - 1, -1):
            counts[s] -= counts[s - length - i]
        # Dividing by 1 - q^i is a running sum with step i.
        for s in range(i, top + 1):
            counts[s] += counts[s - i]
    return counts


def _scan_task(args: tuple[dict, list[int], int]):
    """Called nowhere here: perfbench/tracing.py patches this name."""
    return _scan_sum(*args)


def _scan_all(cfg: EnumConfig, workers: int):
    """`_scan_sum`'s results for S = 1..sum_cap, in S order, leaving out
    pruned sums above k*k: their candidates would need more than k parts
    of size at most k.  The search runs when this is called.  Its one
    caller is `compute_ell`, for the counts; it and `_scan_sum` are also
    the per-sum seams perfbench/tracing.py times.  `workers` is not
    read: the tracer's wrapper takes it and forwards it."""
    k, brute = cfg.k, cfg.mode == "brute"
    top = cfg.sum_cap if brute else min(cfg.sum_cap, k * k)
    found = _search(k)
    counts = _box_counts(k, top, top if brute else k)
    return (_scan_sum(found, counts, S) for S in range(1, top + 1))


def enumerate_irreducible(cfg: EnumConfig,
                          length_window: tuple[int, float] = (1, float("inf"))) -> Iterator[Pair]:
    """Every k-irreducible pair with common sum <= sum_cap and length in
    the inclusive window (lo, hi), exactly once, in a fixed order: by
    sum, then by descending-lexicographic position of A, then of B.  The
    window is checked, and the search run, when this is called; the
    mode is not read, as no hit lies above k*k."""
    lo, hi = length_window
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length window ({lo}, {hi})")
    found = _search(cfg.k)
    return (p for total, hits in found.items() if total <= cfg.sum_cap
            for p in _pairs([hit for hit in hits if lo <= hit[0] <= hi]))


def compute_ell(cfg: EnumConfig) -> EllReport:
    """Survey the maximum pair length within the configured caps.

    The returned report carries the mode and sum cap, so the value is
    always read as "maximum within this scanned range", never as an
    unqualified claim about all pairs.  Only the witnesses are decoded
    and built as Pairs.
    """
    start = time.perf_counter()
    ell = 0
    longest = {}  # sum -> its hits of length ell, in scan order
    scanned = 0
    irreducible = 0
    for total, (hits, sc) in enumerate(_scan_all(cfg, 1), 1):
        scanned += sc
        irreducible += len(hits)
        for hit in hits:
            if hit[0] >= ell:
                if hit[0] > ell:
                    ell = hit[0]
                    longest = {}
                longest.setdefault(total, []).append(hit)
    return EllReport(
        k=cfg.k,
        ell=ell,
        witnesses=tuple(p for hits in longest.values() for p in _pairs(hits)),
        pairs_scanned=scanned,
        irreducible_count=irreducible,
        mode=cfg.mode,
        sum_cap=cfg.sum_cap,
        wall_time=time.perf_counter() - start,
    )


def extremal_pairs(cfg: EnumConfig) -> list[Pair]:
    """All irreducible pairs of length exactly 2k-1 within the caps."""
    if cfg.k <= 1:
        raise KTooSmallError(f"k must be at least 2, got {cfg.k}")
    target = 2 * cfg.k - 1
    return list(enumerate_irreducible(cfg, length_window=(target, target)))


def verify_theorem_bounds(p: Pair) -> bool:
    """True iff |A| <= max(B) and |B| <= max(A)."""
    return (
        p.a.cardinality <= p.b.max_value and p.b.cardinality <= p.a.max_value
    )
