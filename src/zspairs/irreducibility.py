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
is truncated to a width W: it holds exactly the achievable sums below W,
and takes of a value that would reach W are never shifted in.

A balanced pair is first divided by the gcd g of all its values.  Every
submultiset sum scales by 1/g, so the verdict is unchanged and the
witness is the reduced pair's witness times g.  Then residues: every sum
of a side x is a multiple of h = gcd(x), so if the other side y has no
proper nonempty submultiset with sum 0 mod h, no sum is shared and the
pair is irreducible.  If x is a single run h^m, its interior sums are
exactly the multiples of h inside (0, S), so the converse holds too and
the test decides the pair: it is the zero-sum-free question over Z_h.
Because y sums to 0 mod h, a proper zero-sum and its complement both
are, and one of them avoids a chosen copy of y's largest value; so the
test is one h-bit rotating fold of y less that copy, which stops at the
first zero-sum.  h is at most MAX_VALUE.

Pairs the residue test leaves open go to a search for the smallest
shared interior sum, which never folds at the full width S.
Complementation maps a shared s to the shared S - s, so the smallest
one, if any, is at most S // 2, and the search stops at width
S // 2 + 1.  It starts at width min(S // 2 + 1, 4096) and grows
sixteenfold until the truncated sum sets share a bit in 1 .. W - 1 or
the half is reached: a reducible pair costs folds about as wide as its
smallest shared sum, an irreducible one about S / 2 bits.  Before each
widened fold the search estimates its work, shifts times width summed
over both sides, and raises ResourceLimitError when that exceeds a fixed
budget of 2**32 (such a fold takes about 0.4 s on a 2-vCPU VM).  The
witness is then extracted from suffix folds of width target + 1, which
decide every greedy step exactly.
"""

from __future__ import annotations

import itertools
from math import gcd

from .core import Multiset, Pair, ResourceLimitError, _set, _Value

NAIVE_LENGTH_LIMIT = 30


class TooLargeError(ValueError):
    """The naive oracle refuses pairs beyond its exponential-work guard."""


def _fold_run(bits: int, value: int, count: int, width: int) -> int:
    # Only takes whose sum stays below the width can matter.
    count = min(count, (width - 1) // value)
    # Binary splitting: chunks 1, 2, 4, ... cover every take in [0, count].
    chunk = 1
    while count > 0:
        take = chunk if chunk < count else count
        bits |= bits << (value * take)
        count -= take
        chunk <<= 1
    return bits & ((1 << width) - 1)


def _subset_sums(ms: Multiset, width: int) -> int:
    bits = 1
    for value, count in ms.runs:
        bits = _fold_run(bits, value, count, width)
    return bits


# First width of the shared-sum search and its growth factor.  A factor of
# 2 made irreducible pairs (which reach the half) 25% slower; 16 did not.
_FIRST_WIDTH = 4096
_GROWTH = 16
# Most work, in shifts times bits of width over both sides, that one
# widened step of the search may take.
_FOLD_BUDGET = 2**32


def _fold_work(ms: Multiset, width: int) -> int:
    """Shifts times width of a fold of ms truncated to width."""
    return width * sum(min(c, (width - 1) // v).bit_length() for v, c in ms.runs)


def _smallest_shared_sum(p: Pair) -> int | None:
    """The smallest s in (0, S) that both sides of a balanced pair reach
    with a proper submultiset, or None when there is none.

    Raises ResourceLimitError before a widened fold whose work is over
    the budget.
    """
    half = p.a.sigma // 2 + 1
    width = min(half, _FIRST_WIDTH)
    while True:
        shared = _subset_sums(p.a, width) & _subset_sums(p.b, width) & ~1
        if shared:
            return (shared & -shared).bit_length() - 1
        if width == half:
            return None
        below, width = width, min(width * _GROWTH, half)
        work = _fold_work(p.a, width) + _fold_work(p.b, width)
        if work > _FOLD_BUDGET:
            raise ResourceLimitError(
                f"no shared sum below {below}, and the next subset-sum fold "
                f"needs {work} shift-bits, over the budget of {_FOLD_BUDGET}"
            )


def _zero_sum_mod(ms: Multiset, h: int) -> bool:
    """True iff ms, whose sum is 0 mod h, has a proper nonempty
    submultiset with sum 0 mod h; that is, iff ms less one copy of its
    largest value has a nonempty one.

    Bit r of `reach` marks a nonempty submultiset of the elements folded
    so far with sum r mod h; binary-split chunks stand in for the copies
    of a run.
    """
    ring = (1 << h) - 1
    reach = 0
    for i, (value, count) in enumerate(ms.runs):
        if i == 0:
            count -= 1
        chunk = 1
        while count > 0:
            take = min(chunk, count)
            x = value * take % h
            reach |= ((reach << x | reach >> (h - x)) & ring) | 1 << x
            if reach & 1:
                return True
            count -= take
            chunk <<= 1
    return False


def _reduce(p: Pair) -> tuple[int, Pair, bool | None]:
    """Divide a balanced pair by the gcd g of its values and try the
    residue test on each side: (g, p / g, the verdict or None if the
    test leaves it open)."""
    ha = gcd(*[v for v, _ in p.a.runs])
    hb = gcd(*[v for v, _ in p.b.runs])
    g = gcd(ha, hb)
    if g > 1:
        p = Pair(*(Multiset(tuple((v // g, c) for v, c in m.runs)) for m in (p.a, p.b)))
    for x, y, h in ((p.a, p.b, ha // g), (p.b, p.a, hb // g)):
        single = len(x.runs) == 1
        if h > 1 or single:
            if not _zero_sum_mod(y, h):
                return g, p, True
            if single:
                return g, p, False
    return g, p, None


def is_irreducible(p: Pair) -> bool:
    """True iff the pair is irreducible.

    Unbalanced pairs are not irreducible by definition (the sums must
    agree), so they report False rather than raising.  Raises
    ResourceLimitError when the pair needs a search fold over the work
    budget.
    """
    if not p.balanced:
        return False
    _, p, verdict = _reduce(p)
    return _smallest_shared_sum(p) is None if verdict is None else verdict


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


class ReducibilityWitness(_Value):
    """Equal-sum proper nonempty submultisets proving a pair reducible."""

    __slots__ = _fields = ("a_sub", "b_sub")

    def __init__(self, a_sub: Multiset, b_sub: Multiset) -> None:
        _set(self, "a_sub", a_sub)
        _set(self, "b_sub", b_sub)


def reducibility_witness(p: Pair) -> ReducibilityWitness | None:
    """A witness for reducibility, or None when no equal-sum witness exists.

    None covers both irreducible pairs and unbalanced ones; `p.balanced`
    distinguishes the two cases, so this is the one call `zspairs check`
    makes for both its verdict and its witness.  The witness is
    deterministic: the smallest sum shared strictly inside (0, S),
    realised on each side by taking as many copies of the larger values
    as possible.  Raises ResourceLimitError when the search for that sum
    is over the budget.
    """
    if not p.balanced:
        return None
    # Greedy takes on the reduced pair are the takes on p, scaled.
    g, q, verdict = _reduce(p)
    target = None if verdict else _smallest_shared_sum(q)
    if target is None:
        return None
    return ReducibilityWitness(*(_extract_submultiset(m, target, g) for m in (q.a, q.b)))


def _extract_submultiset(ms: Multiset, target: int, g: int) -> Multiset:
    """A submultiset of ms summing to target, greedy on larger values,
    with every value times g."""
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
            taken.append((value * g, take))
            remaining -= take * value
        if remaining == 0:
            break
    assert remaining == 0, "target was marked achievable"
    return Multiset(tuple(taken))
