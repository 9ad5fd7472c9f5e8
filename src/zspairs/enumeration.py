"""Exhaustive and pruned search over irreducible pairs.

The survey runs sum by sum: for each common sum S up to a cap, every
unordered pair of same-sum multisets with values in [1, k] is a
candidate.  Brute mode decides them all and consults no structural
theorem, so whatever it reports about maximum lengths is discovered, not
assumed; it is the oracle pruned mode is validated against on
overlapping ranges.

Pruned mode generates no candidates.  It rests on the derivation lemma
(see `derivation`): an (a, b)-derivation maps an irreducible pair to an
irreducible pair one element shorter, with a smaller sum and neither
maximum raised, and every irreducible pair of length >= 3 has a valid
(max A, max B)-derivation, its canonical parent.  So the irreducible
pairs with values <= k form a tree with the roots v | v, v <= k, and a
reverse search (Avis and Fukuda, 1996) lists them from a stack: a child
replaces one value d on side X by d + e and adds e to side Y, and is
kept only if its sides' interior sums are disjoint and the node at hand
is its canonical parent, so no seen-set is needed.  Since each side's
cardinality is at most the other side's maximum, no irreducible pair has
a sum above k*k, and pruned mode stops there.  Its hits are sorted into
brute mode's order, and it still reports m(m+1)/2 candidate pairs for
the m same-sum multisets of at most k parts that it no longer builds.

Brute mode's scan kernel is a disjointness join rather than an
all-pairs loop.  A pair is irreducible iff the interior achievable-sum
masks of its sides do not meet.  Every value of B is itself a sum of B,
so B's mask restricted to bits 1..k already meets A's whenever A contains
one of B's values as an interior sum; such pairs are skipped without
being visited.  Candidates are bucketed by those low k bits, and every
pair drawn from two buckets with disjoint keys gets the full-mask AND
test.  The skip follows from the definition alone, so brute mode stays
theorem-free.  `_scan_sum(k, S, "pruned")` runs the same kernel over
pruned mode's candidates, and is the reference the reverse search is
tested against.

The candidates of a sum come from a memoized DAG of generator states:
what is left, the part and length bounds, and the prefix's sums in 0..k,
the only ones later runs can move into the low key (a candidate's sums
in 1..k, its bucket in the join).  A state has at most two edges: take
one more part of its largest size p, or skip to parts below p, which
exists only if they can fill what is left, (p - 1) * max_len >= rest, so
no state yields nothing.  A state reaches the runs of smaller parts
through its skip, so they are stored once, not again in every state with
a larger part bound.  Each take chain is built in a loop, so the build
recurses once per part size, not once per part.  Each node also holds
the low keys its completions end with.  Most candidates have no partner:
their key meets every same-sum candidate's, so the join would never
visit them.  The root's keys, complemented and closed downwards, are the
keys with a partner.  A walk of the DAG follows each take chain while
its keys meet them; the skip of the c-th state on the chain holds the
completions with exactly c copies of p, and the walk enters it only if
its keys meet them, folding that run into the prefix's subset sums once,
on entry.  For S <= k, {S} has key 0 and partners everything.  The
join's pairs have partnered sides, so it sees the same pairs in the same
order, and no theorem is used.  Each node also counts its completions,
so m is read off the root.  Pruned mode never reads or builds the DAG:
its m, the number of partitions of S that fit a k x k box, is the
coefficient of q^S in the Gaussian binomial [2k, k]_q.

The set of irreducible pairs for a fixed k is infinite a priori, so every
report states the sum cap it was computed under; nothing is extrapolated.
Brute mode has a largest sum cap per k, beside the k limits; a larger
cap fails with ResourceLimitError when the config is made.
Every survey runs in the calling process, sum by sum in S order.  The
worker count is checked but changes nothing: starting a process pool
(about 10 ms on 2 vCPUs) cost more than it saved on every shipped brute
survey, and pruned mode's tree hangs almost entirely off the root 1 | 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from .core import KTooSmallError, Multiset, Pair, ResourceLimitError
from .formats import pair_to_obj
from .irreducibility import _fold_run

BRUTE_MAX_K = 7
PRUNED_MAX_K = 12
# The largest brute sum cap for k = 1..BRUTE_MAX_K: the last cap whose
# candidates, each weighed by the 64-bit words of its mask, stay within
# 1,000,000 words.  A survey at each cap took 4-66 ms on 2 vCPUs (best of
# 5, three rounds), the most at k=1 and k=7.
# Pruned mode builds no candidates and takes any cap; at PRUNED_MAX_K its
# whole survey took 0.09-0.10 s and peaked at 20 MB on 2 vCPUs (Python
# 3.11.7, best and median of 9, two rounds).
_BRUTE_MAX_CAP = (11280, 709, 222, 126, 87, 72, 65)

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
        limit = BRUTE_MAX_K if self.mode == "brute" else PRUNED_MAX_K
        if self.k > limit:
            raise ResourceLimitError(
                f"k={self.k} exceeds the {self.mode}-mode limit of {limit}"
            )
        if self.sum_cap is None:
            object.__setattr__(self, "sum_cap", self.k * self.k)
        if self.mode == "brute" and self.sum_cap > _BRUTE_MAX_CAP[self.k - 1]:
            raise ResourceLimitError(
                f"sum cap {self.sum_cap} is too large for k={self.k} in brute "
                f"mode; the largest supported cap is {_BRUTE_MAX_CAP[self.k - 1]}"
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


# The generator's nodes, shared by every sum of one survey and emptied
# when a survey starts, so a survey never reads another's work.  They
# live at module level because `_scan_sum` gets only (k, total, mode).
# k is part of each state, so `_scan_sum` calls of different k never
# mix.  `enumerate_multisets` yields the same partitions without them.
_nodes: dict = {}


def _node(k: int, remaining: int, max_part: int, max_len: int, key: int):
    """The generator state that partitions `remaining` into at most
    `max_len` parts of size at most `max_part`, after a prefix whose sums
    in 0..k are the bits of `key`, as (keys, count, part, take, skip).
    keys is the 2^k-bit set of low keys its completions end with: bit K
    is set iff one leaves bits 1..k of its sums equal to K << 1, and
    count is the number of completions.  part is `max_part` clamped to
    `remaining`.  take is the state after one more part of that size,
    skip the state whose parts are all smaller, or None when that leaves
    too little room.  A leaf (nothing left) has part 0 and no edges; a
    part of 1 is terminal, with the count of ones in place of take; a
    state with too little room is empty, with count 0 and no keys."""
    if max_part > remaining:
        max_part = remaining
    if max_len > remaining:
        max_len = remaining
    state = (k, remaining, max_part, max_len, key)
    node = _nodes.get(state)
    if node is not None:
        return node
    full = (2 << k) - 1
    if remaining == 0:
        node = (1 << (key >> 1), 1, 0, None, None)
    elif max_part * max_len < remaining:
        node = (0, 0, max_part, None, None)
    elif max_part == 1:
        # Past k ones, a one adds no sum in 0..k.
        for _ in range(min(remaining, k)):
            key = (key | key << 1) & full
        node = (1 << (key >> 1), 1, 1, remaining, None)
    else:
        # Take chains are built in a loop, down to a stored state or to
        # the first whose part is clamped below p; only parts below p
        # recurse, so the depth is bounded by the part, not the sum.
        p = max_part
        chain = []
        while True:
            chain.append(state)
            remaining -= p
            max_len -= 1
            # One copy of p: the same shift-or step as `_fold_run`.
            key = (key | key << p) & full
            if remaining < p:
                node = _node(k, remaining, p, max_len, key)
                break
            if max_len > remaining:
                max_len = remaining
            state = (k, remaining, p, max_len, key)
            node = _nodes.get(state)
            if node is not None:
                break
        for state in reversed(chain):
            _, remaining, _, max_len, key = state
            keys = node[0]
            count = node[1]
            skip = None
            if (p - 1) * max_len >= remaining:
                skip = _node(k, remaining, p - 1, max_len, key)
                keys |= skip[0]
                count += skip[1]
            node = (keys, count, p, node, skip)
            _nodes[state] = node
        return node
    _nodes[state] = node
    return node


def _partitions(
    node, partners: int = -1, runs: tuple[tuple[int, int], ...] = (), bits: int = 1
) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """The completions of `node` whose low key is in `partners`, each
    appended to `runs`, as (runs, sums) pairs in generation order.  sums
    is `bits` with every new run folded in, once, as its state is
    entered, so from the defaults it holds every submultiset sum."""
    while node[0] & partners:
        p = node[2]
        if p == 0:
            yield runs, bits
            return
        if p == 1:
            yield runs + ((1, node[3]),), _fold_run(bits, 1, node[3])
            return
        # Follow the take chain as far as its keys meet the partners: the
        # c-th state holds c copies of p, its skip exactly c, and the
        # chain ends at the first state whose part is clamped below p.
        ends = []
        c = 0
        take = node[3]
        while take[0] & partners:
            c += 1
            if take[2] != p:
                ends.append((c, take))
                break
            rest = take[4]
            if rest is not None and rest[0] & partners:
                ends.append((c, rest))
            take = take[3]
        # Longest run first.
        for c, rest in reversed(ends):
            yield from _partitions(rest, partners, runs + ((p, c),), _fold_run(bits, p, c))
        node = node[4]
        if node is None:
            return


def _partners(k: int, keys: int) -> int:
    """The low keys, as a 2^k-bit set, that miss some key in `keys`."""
    # Complement every key, then close downwards: a key inside a
    # partner's complement is disjoint from that partner.
    top = (1 << k) - 1
    partners = 0
    while keys:
        bit = keys & -keys
        partners |= 1 << (top ^ (bit.bit_length() - 1))
        keys ^= bit
    every = (1 << (top + 1)) - 1
    for i in range(k):
        step = 1 << i
        # Shifting by 2^i takes a set holding i to the set without it;
        # `clear` keeps the positions without i, where those land.
        clear = every // ((1 << 2 * step) - 1) * ((1 << step) - 1)
        partners |= (partners >> step) & clear
    return partners


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
    """The DAG's partitions generated lazily, with no memo: the
    completions of `runs` that partition `remaining` into parts of size
    at most `max_part`, in `_partitions`' order.  With key width 0 and no
    length bound, parts below any v >= 2 can always fill the rest, so
    every count c of v is a run; a run of ones takes all that is left."""
    if remaining == 0:
        yield runs
        return
    for v in range(min(max_part, remaining), 1, -1):
        for c in range(remaining // v, 0, -1):
            yield from _multiset_runs(remaining - v * c, v - 1, runs + ((v, c),))
    yield runs + ((1, remaining),)


def _max_len(k: int, total: int, mode: str) -> int:
    # Both bounds cap cardinality at k, so pruned mode generates only
    # partitions with at most k parts.
    return k if mode == "pruned" else total


def _scan_sum(k: int, total: int, mode: str):
    """All irreducible canonical pairs with common sum `total`, as run
    tuples, plus the number of candidate pairs decided, m(m+1)/2 for m
    candidates.  The walk of the sum's DAG builds only the candidates
    whose low key misses some candidate's; m is the root's count.  The
    join AND-tests every pair drawn from two buckets with disjoint low
    keys, each unordered pair of buckets once, in either mode, so the
    pairs it rules out are decided without being visited; hits are
    sorted into candidate order."""
    runs_list = []
    masks = []
    # A key is a subset of its mask, so a B whose key meets A's fails the
    # AND test: only buckets with disjoint keys can hold hits.  Bits 1..k
    # include B's own values, which makes the key selective.  It also
    # makes a shared-value test redundant: each value of a side with two
    # or more elements is an interior sum at most k, so it lies in that
    # side's key, and visited pairs have disjoint keys; a side {S} can
    # share S only with {S}, and {S} | {S} is irreducible.  Only key 0,
    # the lone {S}, misses itself, so no other bucket pairs with itself.
    low = (1 << (k + 1)) - 2
    buckets: dict[int, list[int]] = {}
    # Bits 1 .. total-1: sums of proper nonempty submultisets.
    interior = (1 << total) - 2
    max_len = _max_len(k, total, mode)
    root = _node(k, total, k, max_len, 1)
    # For total <= k, {total} has low key 0 and partners everything.
    partners = _partners(k, root[0]) if total > k else -1
    for i, (runs, bits) in enumerate(_partitions(root, partners)):
        mask = bits & interior
        runs_list.append(runs)
        masks.append(mask)
        buckets.setdefault(mask & low, []).append(i)
    m = root[1]

    found = []
    items = list(buckets.items())
    for x, (key_a, rows) in enumerate(items):
        for key_b, cols in items[x:]:
            if key_a & key_b:
                continue
            for i in rows:
                mask_a = masks[i]
                found += [
                    (i, j) if i < j else (j, i) for j in cols if not mask_a & masks[j]
                ]
    found.sort()
    return [(runs_list[i], runs_list[j]) for i, j in found], m * (m + 1) // 2


def _inserted(runs: tuple[tuple[int, int], ...], value: int) -> tuple[tuple[int, int], ...]:
    """`runs` with one more copy of `value`."""
    for i, (v, c) in enumerate(runs):
        if v == value:
            return runs[:i] + ((v, c + 1),) + runs[i + 1 :]
        if v < value:
            return runs[:i] + ((value, 1),) + runs[i:]
    return runs + ((value, 1),)


def _box_counts(k: int, top: int) -> list[int]:
    """The number of partitions of S into at most k parts of size at most
    k, for S = 0..top: the coefficients of the Gaussian binomial [2k, k]_q,
    the product of (1 - q^(k+i)) / (1 - q^i) for i = 1..k (Andrews, The
    Theory of Partitions, ch. 3)."""
    counts = [1] + [0] * top
    for i in range(1, k + 1):
        # Multiplying by 1 - q^(k+i) reads only lower terms: top down.
        for s in range(top, k + i - 1, -1):
            counts[s] -= counts[s - k - i]
        # Dividing by 1 - q^i is a running sum with step i.
        for s in range(i, top + 1):
            counts[s] += counts[s - i]
    return counts


def _derived_sums(k: int, top: int):
    """Pruned mode's per-sum results for S = 1..top, equal to
    `_scan_sum(k, S, "pruned")`, by reverse search from the roots v | v.

    A stack entry is (sum, X, X's subset sums, Y, Y's subset sums), where
    X is the side whose value d becomes d + e as Y gains e.  The child's
    maxima are then d + e and e exactly when e >= max Y and d + e >= max X,
    and its (d + e, e)-derivation, its canonical parent, undoes the move;
    so those moves reach each pair once.  A pair is pushed once per side
    as X, a root once, since its sides are equal.  m, the number of
    multisets of sum S with at most k elements of size at most k, is read
    off [2k, k]_q."""
    found: list[list] = [[] for _ in range(top + 1)]
    # Subset sums cannot drop an element, so each X - d is folded anew,
    # once per survey: many nodes share it.
    folded: dict[tuple[tuple[int, int], ...], int] = {}
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
            lo = max_y if max_y > max_x - d else max_x - d
            hi = k - d if k - d < top - total else top - total
            if lo > hi:
                continue
            rest = x[:i] + ((d, c - 1),) + x[i + 1 :] if c > 1 else x[:i] + x[i + 1 :]
            rest_sums = folded.get(rest)
            if rest_sums is None:
                rest_sums = 1
                for v, n in rest:
                    rest_sums = _fold_run(rest_sums, v, n)
                folded[rest] = rest_sums
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
    counts = _box_counts(k, top)
    for total in range(1, top + 1):
        hits = found[total]
        # Run tuples order as their multisets do: descending is candidate order.
        hits.sort(reverse=True)
        m = counts[total]
        yield hits, m * (m + 1) // 2


def _scan_task(args: tuple[int, int, str]):
    """One sum of a brute survey: `_scan_sum` on a (k, total, mode) task."""
    return _scan_sum(*args)


def check_workers(workers: int) -> None:
    """Refuse a worker count below one."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _scan_all(cfg: EnumConfig, workers: int):
    """Per-sum scan results for S = 1..sum_cap, in S order, leaving out
    pruned sums above k*k: their candidates would need more than k parts
    of size at most k.  Both modes run in this process; pruned mode runs
    its reverse search, brute mode scans sum by sum.  The worker count
    is checked, and the node memo emptied, when this is called, before
    any sum is scanned."""
    check_workers(workers)
    top = cfg.sum_cap if cfg.mode == "brute" else min(cfg.sum_cap, cfg.k * cfg.k)
    _nodes.clear()
    if cfg.mode == "pruned":
        return _derived_sums(cfg.k, top)
    return map(_scan_task, [(cfg.k, S, cfg.mode) for S in range(1, top + 1)])


def _windowed(cfg: EnumConfig, hits):
    """The scanned hits whose length lies in the window, if one is set,
    each as (length, hit).  A hit's length is the run counts of both
    sides, so no Pair is built to filter it."""
    window = cfg.length_window
    for hit in hits:
        runs_a, runs_b = hit
        length = 0
        for _, c in runs_a:
            length += c
        for _, c in runs_b:
            length += c
        if window is None or window[0] <= length <= window[1]:
            yield length, hit


def enumerate_irreducible(cfg: EnumConfig, workers: int = 1) -> Iterator[Pair]:
    """Every k-irreducible pair with common sum <= sum_cap (and length in
    the window, if one is set), exactly once, in a fixed order: by sum,
    then by descending-lexicographic position of A, then of B."""
    # The outermost iterable of a generator expression is evaluated now,
    # so a bad worker count fails here rather than mid-stream.
    return (
        Pair(Multiset(runs_a), Multiset(runs_b))
        for hits, _ in _scan_all(cfg, workers)
        for _, (runs_a, runs_b) in _windowed(cfg, hits)
    )


def compute_ell(cfg: EnumConfig, workers: int = 1) -> EllReport:
    """Survey the maximum pair length within the configured caps.

    The returned report carries the mode and sum cap, so the value is
    always read as "maximum within this scanned range", never as an
    unqualified claim about all pairs.  Only the witnesses are built as
    Pairs.
    """
    start = time.perf_counter()
    ell = 0
    witnesses: list[Pair] = []
    scanned = 0
    irreducible = 0
    for hits, sc in _scan_all(cfg, workers):
        scanned += sc
        irreducible += len(hits)
        for length, (runs_a, runs_b) in _windowed(cfg, hits):
            if length < ell:
                continue
            p = Pair(Multiset(runs_a), Multiset(runs_b))
            if length > ell:
                ell = length
                witnesses = [p]
            else:
                witnesses.append(p)
    return EllReport(
        k=cfg.k,
        ell=ell,
        witnesses=tuple(witnesses),
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
