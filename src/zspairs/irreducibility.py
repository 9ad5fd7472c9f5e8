"""Deciding irreducibility of a pair.

A balanced pair {A, B} is reducible exactly when proper nonempty
submultisets A' of A and B' of B have equal sums.  Because all elements
are positive, a submultiset is nonempty iff its sum is > 0 and proper iff
its sum is < S (removing any element strictly lowers the sum).  So the
whole question reduces to: do the achievable-sum sets of A and B share a
value strictly between 0 and S?  That is the core correctness fact of
this module, and the naive oracle cross-checks it by enumerating
submultisets outright.

The fast engine is a bounded-knapsack bit-vector: achievable sums are the
set bits of a Python int, and each run (v, c) is folded in with
binary-split shift-ors, giving word-parallel exact arithmetic.  A fold
may be truncated to a width W: it then holds exactly the achievable sums
below W, and takes of a value that would reach W are never shifted in.

The check and the witness both start from the smallest shared interior
sum, and never fold at the full width S.  Complementation maps a shared
s to the shared S - s, so the smallest one, if any, is at most S // 2,
and the search stops at width S // 2 + 1.  It starts at width
min(S // 2 + 1, 4096) and grows sixteenfold until the truncated sum sets
share a bit in 1 .. W - 1 or the half is reached: a reducible pair costs
folds about as wide as its smallest shared sum, an irreducible one about
S / 2 bits.  The witness is then extracted from suffix folds of width
target + 1, which decide every greedy step exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Multiset, Pair

NAIVE_LENGTH_LIMIT = 30


class TooLargeError(ValueError):
    """The naive oracle refuses pairs beyond its exponential-work guard."""


@dataclass(frozen=True, slots=True)
class SumSet:
    """Achievable submultiset sums of a multiset with total sum `total`.

    Bit s of `achievable` is set iff some submultiset sums to s.  Bits 0
    and `total` are always set (the empty and full submultisets), and the
    bit pattern is symmetric under s -> total - s (complementation).
    """

    total: int
    achievable: int

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and (self.achievable >> s) & 1 == 1


def _fold_run(bits: int, value: int, count: int, width: int | None = None) -> int:
    # With a width, only takes whose sum stays below it can matter.
    if width is not None:
        count = min(count, (width - 1) // value)
    # Binary splitting: chunks 1, 2, 4, ... cover every take in [0, count].
    chunk = 1
    while count > 0:
        take = min(chunk, count)
        bits |= bits << (value * take)
        count -= take
        chunk <<= 1
    return bits if width is None else bits & ((1 << width) - 1)


def _subset_sums(ms: Multiset, width: int | None = None) -> int:
    bits = 1
    for value, count in ms.runs:
        bits = _fold_run(bits, value, count, width)
    return bits


def proper_subset_sums(ms: Multiset) -> SumSet:
    """All submultiset sums of ms, as a bit vector over [0, sigma]."""
    return SumSet(ms.sigma, _subset_sums(ms))


def _interior_mask(total: int) -> int:
    # Bits 1 .. total-1: sums of proper nonempty submultisets.
    return (1 << total) - 2 if total >= 1 else 0


# First width of the shared-sum search and its growth factor.  A factor of
# 2 made irreducible pairs (which reach the half) 25% slower; 16 did not.
_FIRST_WIDTH = 4096
_GROWTH = 16


def _smallest_shared_sum(p: Pair) -> int | None:
    """The smallest s in (0, S) that both sides of a balanced pair reach
    with a proper submultiset, or None when there is none."""
    half = p.a.sigma // 2 + 1
    width = min(half, _FIRST_WIDTH)
    while True:
        shared = _subset_sums(p.a, width) & _subset_sums(p.b, width) & ~1
        if shared:
            return (shared & -shared).bit_length() - 1
        if width == half:
            return None
        width = min(width * _GROWTH, half)


def is_irreducible(p: Pair) -> bool:
    """True iff the pair is irreducible.

    Unbalanced pairs are not irreducible by definition (the sums must
    agree), so they report False rather than raising; enumeration code
    filters uniformly on the result.
    """
    return p.balanced and _smallest_shared_sum(p) is None


def is_irreducible_naive(p: Pair) -> bool:
    """Literal-definition oracle: enumerate every proper nonempty
    submultiset of each side and compare all sums.

    Exponential in the number of distinct values; guarded to total
    length <= 30.  Kept free of the bit-vector engine on purpose.
    """
    if p.length > NAIVE_LENGTH_LIMIT:
        raise TooLargeError(
            f"length {p.length} exceeds the naive guard of {NAIVE_LENGTH_LIMIT}"
        )
    if not p.balanced:
        return False
    sums_a = _naive_proper_sums(p.a)
    sums_b = _naive_proper_sums(p.b)
    return not (sums_a & sums_b)


def _naive_proper_sums(ms: Multiset) -> set[int]:
    values = [v for v, _ in ms.runs]
    counts = [c for _, c in ms.runs]
    out = set()
    for takes in itertools.product(*(range(c + 1) for c in counts)):
        if all(t == 0 for t in takes) or list(takes) == counts:
            continue
        out.add(sum(v * t for v, t in zip(values, takes)))
    return out


@dataclass(frozen=True, slots=True)
class ReducibilityWitness:
    """Equal-sum proper nonempty submultisets proving a pair reducible."""

    a_sub: Multiset
    b_sub: Multiset


def reducibility_witness(p: Pair) -> ReducibilityWitness | None:
    """A witness for reducibility, or None when no equal-sum witness exists.

    None covers both irreducible pairs and unbalanced ones; `p.balanced`
    distinguishes the two cases.  The witness is deterministic: the
    smallest sum shared strictly inside (0, S), realised on each side by
    taking as many copies of the larger values as possible.
    """
    if not p.balanced:
        return None
    target = _smallest_shared_sum(p)
    if target is None:
        return None
    return ReducibilityWitness(
        a_sub=_extract_submultiset(p.a, target),
        b_sub=_extract_submultiset(p.b, target),
    )


def _extract_submultiset(ms: Multiset, target: int) -> Multiset:
    """A submultiset of ms summing to target, greedy on larger values."""
    runs = ms.runs
    # suffix[i] = sums up to target achievable using runs[i:] only; the
    # walk below never asks about a larger sum.
    suffix = [1] * (len(runs) + 1)
    for i in range(len(runs) - 1, -1, -1):
        value, count = runs[i]
        suffix[i] = _fold_run(suffix[i + 1], value, count, target + 1)
    taken = []
    remaining = target
    for i, (value, count) in enumerate(runs):
        take = min(count, remaining // value)
        while take > 0 and not (suffix[i + 1] >> (remaining - take * value)) & 1:
            take -= 1
        if take > 0:
            taken.append((value, take))
            remaining -= take * value
        if remaining == 0:
            break
    assert remaining == 0, "target was marked achievable"
    return Multiset(tuple(taken))
