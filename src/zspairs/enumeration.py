"""Exhaustive and pruned search over irreducible pairs.

The survey runs sum by sum: for each common sum S up to a cap, every
unordered pair of same-sum multisets with values in [1, k] is a
candidate.  Brute mode decides them all and consults no structural
theorem, so whatever it reports about maximum lengths is discovered, not
assumed; it is the oracle pruned mode is validated against on
overlapping ranges.

Neither mode builds candidates: one search grows both sides of a pair
at once, from a stack, for every sum in one pass.  A pair is
irreducible iff the interior subset sums of its sides, those in 1..S-1,
are disjoint.  Each side gains elements in descending order, and the
side with the smaller partial sum is the one extended.  A pair of
prefixes whose subset sums share a positive value is dropped: subset
sums only gain bits as a prefix grows, and the shared value is at most
the smaller partial sum, so it lies below the larger one and is interior
to every completion.  Equal partial sums end the pair: it is recorded at
that sum if only the sum itself is shared, and dropped otherwise.  Every
irreducible pair other than v | v has sides with distinct maxima (equal
maxima are a shared sum, interior unless both sides are {v}), so B's
first element is below A's, A being the side earlier in candidate
order.  Given a pair's sides, the order in which the search adds their
elements is forced, and no prefix of an irreducible pair is dropped, so
the search reaches each irreducible pair exactly once and needs no
seen-set.  A survey runs the search once, in `_scan_all`, and reads each
sum off its own result, so no survey shares state with another.

A side is carried as linked runs, (value, count, the cell before this
run), so extending it builds one small tuple.  Each hit is recorded,
unsorted and in no side order, as (length, completed side, other side).
`_pairs` alone turns hits into oriented, sorted Pairs, where they are
read: `enumerate_irreducible` each sum's hits in the length window, and
`compute_ell` only its witnesses.

Neither mode nor cap reaches the search, which takes k alone; a survey
reads sums off it.  Brute mode reads sums up to the cap and uses nothing
but the definition, so it stays theorem-free.  Pruned mode reads sums up
to min(cap, k*k), the largest sum of a multiset of at most k parts, and
counts only such multisets as its candidates.  It rests on the theorem
that each side's cardinality is at most the other side's maximum: no
irreducible pair lies past those bounds, so every hit it reports is one
of the candidates it counts.

Neither mode lists the candidates it counts: m(m+1)/2 pairs of the m
multisets of sum S with values <= k and at most L elements (L = k in
pruned mode, the cap in brute mode), m being the coefficient of q^S in
the product of (1 - q^(L+i)) / (1 - q^i) for i = 1..k: in pruned mode
the Gaussian binomial [2k, k]_q, and in brute mode a product whose
length bound bounds nothing.

The set of irreducible pairs for a fixed k is infinite a priori, so every
report states the sum cap it was computed under; nothing is extrapolated.
Both modes take k up to MAX_K, and brute mode a cap up to MAX_BRUTE_CAP;
past either, making the config raises ResourceLimitError.
Every survey runs in the calling process, sum by sum in S order.  The
worker count is checked but changes nothing: starting a process pool
(about 10 ms on 2 vCPUs) cost more than it saved on every shipped brute
survey, and pruned surveys run the same search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from .core import KTooSmallError, Multiset, Pair, ResourceLimitError, pair_canonical
from .formats import pair_to_obj
# Called nowhere here: perfbench/tracing.py patches this name.
from .irreducibility import _fold_run

# One survey limit for both modes.  The search ends on its own at sum
# k(k-1) for k >= 2, so a survey at any cap pays for all of it (at k=12,
# 20-38 ms and 17 MB peak RSS, even at cap 1), and a larger cap adds only
# the count DP, O(k * cap), and one read per sum.  A brute survey at
# MAX_BRUTE_CAP took 0.05-0.08 s at k=1 and 0.19-0.29 s at k=12, and
# `enumerate` at k=12 0.26-0.41 s, at most 25 MB peak RSS (2 vCPUs,
# Python 3.11.7, three rounds of best of 3).  Pruned mode reads no sum
# above k*k, so it takes any cap.
MAX_K = 12
MAX_BRUTE_CAP = 100_000

_MODES = ("brute", "pruned")


@dataclass(frozen=True)
class EnumConfig:
    """Search scope: alphabet bound k, sum cap (default k*k), optional
    (lo, hi) filter on pair length, and the mode."""

    k: int
    sum_cap: int | None = None
    length_window: tuple[int, int] | None = None
    mode: str = "brute"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.k > MAX_K:
            raise ResourceLimitError(f"k={self.k} exceeds the survey limit of {MAX_K}")
        if self.sum_cap is None:
            object.__setattr__(self, "sum_cap", self.k * self.k)
        if self.mode == "brute" and self.sum_cap > MAX_BRUTE_CAP:
            raise ResourceLimitError(
                f"sum cap {self.sum_cap} is too large for brute mode; "
                f"the largest supported cap is {MAX_BRUTE_CAP}"
            )
        if self.sum_cap < 1:
            raise ValueError(f"sum_cap must be positive, got {self.sum_cap}")
        if self.length_window is not None:
            lo, hi = self.length_window
            if lo < 1 or hi < lo:
                raise ValueError(f"bad length window ({lo}, {hi})")


@dataclass(frozen=True)
class EllReport:
    """Outcome of a maximum-length survey, with the caps it ran under."""

    k: int
    ell: int
    witnesses: tuple[Pair, ...]
    pairs_scanned: int
    irreducible_count: int
    mode: str
    sum_cap: int
    wall_time: float

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "witnesses": [pair_to_obj(p) for p in self.witnesses],
            "pairs_scanned": self.pairs_scanned,
            "irreducible_count": self.irreducible_count,
            "mode": self.mode,
            "sum_cap": self.sum_cap,
            "wall_time": self.wall_time,
        }


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
    """Every irreducible pair with values in [1, k]: a dict from
    each sum to its hits, unsorted, each as (length, completed side,
    other side) with no side order and both sides as linked runs (see
    `_run_tuple`).  The stack empties by itself (at sum k(k-1) for
    k >= 2), so no pair at any sum is missed.

    A stack entry is (x, X, X's subset sums, y, Y, Y's subset sums, the
    pair's length) for the lighter side X of sum x < y, which gains the
    next element e, at most its last one.  The entries come off the
    stack having no shared positive sum, so only X's sums shifted by e
    can meet Y's."""
    found: dict[int, list] = {}
    stack = []
    for v in range(1, k + 1):
        side = (v, 1, None)
        found[v] = [(2, side, side)]
        stack += [(e, (e, 1, None), 1 | 1 << e, v, side, 1 | 1 << v, 2) for e in range(1, v)]
    while stack:
        x, side_x, sums_x, y, side_y, sums_y, n = stack.pop()
        last, c, before = side_x
        n += 1
        for e in range(1, last + 1):
            shifted = sums_x << e
            total = x + e
            shared = shifted & sums_y
            if total == y:
                # The common sum is the one shared sum that is not interior.
                shared ^= 1 << y
            if shared:
                continue
            side = (e, c + 1, before) if e == last else (e, 1, side_x)
            if total == y:
                found.setdefault(y, []).append((n, side, side_y))
                continue
            sums = sums_x | shifted
            if total < y:
                stack.append((total, side, sums, y, side_y, sums_y, n))
            else:
                stack.append((y, side_y, sums_y, total, side, sums, n))
    return found


def _run_tuple(side) -> tuple[tuple[int, int], ...]:
    """The run tuple of a side carried as linked runs: cells (value,
    count, the cell before this run), the last cell the smallest value."""
    runs = []
    while side is not None:
        value, count, side = side
        runs.append((value, count))
    runs.reverse()
    return tuple(runs)


def _pairs(hits) -> list[Pair]:
    """Hits (any, X, Y) as canonical Pairs, in candidate order."""
    pairs = [pair_canonical(Multiset(_run_tuple(x)), Multiset(_run_tuple(y))) for _, x, y in hits]
    # Run tuples order as their multisets do: descending is candidate order.
    return sorted(pairs, key=lambda p: (p.a.runs, p.b.runs), reverse=True)


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
    """One sum of a survey: `_scan_sum` on a (found, counts, total) task."""
    return _scan_sum(*args)


def check_workers(workers: int) -> None:
    """Refuse a worker count below one."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _scan_all(cfg: EnumConfig, workers: int):
    """Per-sum scan results for S = 1..sum_cap, in S order, leaving out
    pruned sums above k*k: their candidates would need more than k parts
    of size at most k.  Both modes read one search of k alone, run in
    this process, sum by sum; pruned mode counts only candidates of at
    most k elements.  The worker count is checked and the search run
    when this is called, before any sum is read."""
    check_workers(workers)
    k, brute = cfg.k, cfg.mode == "brute"
    top = cfg.sum_cap if brute else min(cfg.sum_cap, k * k)
    found = _search(k)
    counts = _box_counts(k, top, top if brute else k)
    return map(_scan_task, ((found, counts, S) for S in range(1, top + 1)))


def _windowed(cfg: EnumConfig, hits):
    """The raw hits whose length lies in the window, if one is set."""
    window = cfg.length_window
    if window is None:
        return hits
    lo, hi = window
    return [hit for hit in hits if lo <= hit[0] <= hi]


def enumerate_irreducible(cfg: EnumConfig, workers: int = 1) -> Iterator[Pair]:
    """Every k-irreducible pair with common sum <= sum_cap (and length in
    the window, if one is set), exactly once, in a fixed order: by sum,
    then by descending-lexicographic position of A, then of B."""
    # The outermost iterable of a generator expression is evaluated now,
    # so a bad worker count fails here rather than mid-stream.
    return (
        p
        for hits, _ in _scan_all(cfg, workers)
        if hits
        for p in _pairs(_windowed(cfg, hits))
    )


def compute_ell(cfg: EnumConfig, workers: int = 1) -> EllReport:
    """Survey the maximum pair length within the configured caps.

    The returned report carries the mode and sum cap, so the value is
    always read as "maximum within this scanned range", never as an
    unqualified claim about all pairs.  Only the witnesses are decoded
    and built as Pairs.
    """
    start = time.perf_counter()
    ell = 0
    longest: dict[int, list] = {}  # each sum's hits of length ell, by sum
    scanned = 0
    irreducible = 0
    for total, (hits, sc) in enumerate(_scan_all(cfg, workers), 1):
        scanned += sc
        if not hits:
            continue
        irreducible += len(hits)
        for hit in _windowed(cfg, hits):
            if hit[0] > ell:
                ell = hit[0]
                longest = {}
            if hit[0] == ell:
                longest.setdefault(total, []).append(hit)
    witnesses = tuple(p for hits in longest.values() for p in _pairs(hits))
    return EllReport(
        k=cfg.k,
        ell=ell,
        witnesses=witnesses,
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
    narrowed = replace(cfg, length_window=(target, target))
    return list(enumerate_irreducible(narrowed))


def verify_theorem_bounds(p: Pair) -> bool:
    """True iff |A| <= max(B) and |B| <= max(A)."""
    return (
        p.a.cardinality <= p.b.max_value and p.b.cardinality <= p.a.max_value
    )
