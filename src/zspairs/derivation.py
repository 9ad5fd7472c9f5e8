"""The derivation calculus on pairs.

A single (a, b)-derivation removes one copy of a from A and one copy of b
from B, and puts the difference |a - b| back on the side that held the
larger value.  It preserves sums, shrinks the length by exactly one, and,
crucially, maps irreducible pairs to irreducible pairs without raising
either maximum.

Product derivations apply a whole multiset of (a, b)-derivations at once,
drawing every consumed element from the ORIGINAL pair.  Under the
row/column feasibility conditions (no value consumed more often than its
multiplicity) the outcome is independent of application order.  Chains
are the sequential variant: later steps may consume values produced by
earlier ones, so order matters there.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Multiset, Pair, _set, _Value, pair_canonical


class DerivationError(ValueError):
    """Base for derivation failures; `step` is set by derive_chain."""

    step: int | None = None


class NoSuchElementError(DerivationError):
    """The requested value is absent from its side."""


class EqualValuesError(DerivationError):
    """a == b: the difference would be zero, which no multiset may hold."""


class TooSmallError(DerivationError):
    """The pair has length 2, or this derivation would empty a side."""


class InfeasiblePlanError(DerivationError):
    """A plan consumes some value more often than its multiplicity."""


class EmptyResultError(DerivationError):
    """Applying the plan would leave one side with no elements."""


class NoSplitError(DerivationError):
    """The split-index preconditions fail: y_1 > sum(x) or sum(y) <= sum(x)."""


class DerivationPlan(_Value):
    """How many (a, b)-derivations to apply, as (a, b, count) steps with
    distinct (a, b) keys, each number an `int` (TypeError).  Build from
    raw triples with `of`, which merges duplicates and drops zero counts."""

    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[tuple[int, int, int], ...] = ()) -> None:
        seen = set()
        for a, b, count in steps:
            _check_ints(a, b, count)
            if a <= 0 or b <= 0:
                raise ValueError(f"plan values must be positive, got ({a},{b})")
            if count <= 0:
                raise ValueError(f"plan counts must be positive, got {count}")
            if (a, b) in seen:
                raise ValueError(f"duplicate plan key ({a},{b}); use DerivationPlan.of")
            seen.add((a, b))
        _set(self, "steps", steps)

    @classmethod
    def of(cls, steps: Iterable[tuple[int, int, int]]) -> DerivationPlan:
        merged: dict[tuple[int, int], int] = {}
        for a, b, count in steps:
            # Checked here too: a merge would hide 7.0 or True in the key of 7 or 1.
            _check_ints(a, b, count)
            if count < 0:
                raise ValueError(f"plan counts must be non-negative, got {count}")
            if count:
                merged[(a, b)] = merged.get((a, b), 0) + count
        return cls(tuple((a, b, c) for (a, b), c in merged.items()))


def _check_ints(*numbers) -> None:
    # A bool or float would pass the membership and count tests as the
    # int it equals, and then reach a Multiset as itself.
    for x in numbers:
        if type(x) is not int:
            raise TypeError(f"derivation values and counts must be ints, got {numbers!r}")


def derive(p: Pair, a: int, b: int) -> Pair:
    """Apply one (a, b)-derivation and re-canonicalize.

    Requires int a and b (TypeError), a in A, b in B, a != b, and
    length > 2 (a length-2 pair would lose a whole side).  On a pair
    that is k-irreducible the result is again k-irreducible; on
    reducible pairs the operation still works but carries no such
    guarantee.
    """
    if p.length <= 2:
        raise TooSmallError("pair of length 2 cannot be derived")
    _check_ints(a, b)
    if a not in p.a:
        raise NoSuchElementError(f"no copy of {a} in the first multiset")
    if b not in p.b:
        raise NoSuchElementError(f"no copy of {b} in the second multiset")
    if a == b:
        raise EqualValuesError(f"cannot derive with equal values {a}")
    # A canonical pair with |A| = 1 has every b <= a, so only B can empty.
    if a > b and p.b.cardinality == 1:
        raise TooSmallError("derivation would empty the second multiset")
    return _apply(p, ((a, b, 1),))


def derive_product(p: Pair, plan: DerivationPlan) -> Pair:
    """Apply every (a, b)-derivation of the plan simultaneously.

    All consumed values are drawn from the original pair, never from
    freshly produced differences; that is exactly what the feasibility
    conditions license and what makes the result order-independent.  Use
    derive_chain for sequential consumption.
    """
    if not plan.steps:
        return p
    for a, b, _ in plan.steps:
        if a == b:
            raise EqualValuesError(f"cannot derive with equal values {a}")
    return _apply(p, plan.steps)


def _apply(p: Pair, steps: tuple[tuple[int, int, int], ...]) -> Pair:
    # Feasibility (A, then B) is checked before emptiness (A, then B):
    # that fixes which error a plan failing both ways raises.
    first, second = dict(p.a.runs), dict(p.b.runs)
    # A step (a, b, count) takes count copies of a from A and of b from B.
    take_a: dict[int, int] = {}
    take_b: dict[int, int] = {}
    for a, b, count in steps:
        take_a[a] = take_a.get(a, 0) + count
        take_b[b] = take_b.get(b, 0) + count
    for name, new, take in (("first", first, take_a), ("second", second, take_b)):
        for value, n in take.items():
            have = new.get(value, 0)
            if n > have:
                raise InfeasiblePlanError(
                    f"plan consumes {n} copies of {value} from the {name} "
                    f"multiset, which holds {have}"
                )
            new[value] = have - n
    for a, b, count in steps:
        gains = first if a > b else second
        gains[abs(a - b)] = gains.get(abs(a - b), 0) + count
    for name, new in (("first", first), ("second", second)):
        if not any(new.values()):
            raise EmptyResultError(f"plan would empty the {name} multiset")
    return pair_canonical(_side(first), _side(second))


def _side(counts: dict[int, int]) -> Multiset:
    # Every value is positive (a != b) and every count at least 0 (the
    # plan is feasible), so a side needs only its zero counts dropped.
    return Multiset(tuple(sorted([(v, c) for v, c in counts.items() if c], reverse=True)))


def derive_chain(p: Pair, steps: Sequence[tuple[int, int]]) -> Pair:
    """Left fold of derive: each step sees the pair produced so far.

    Unlike derive_product, later steps may consume previously produced
    differences.  The first failing step raises with its index on the
    exception's `step` attribute.
    """
    current = p
    for i, (a, b) in enumerate(steps):
        try:
            current = derive(current, a, b)
        except DerivationError as e:
            e.step = i
            raise
    return current


def split_index(x: Sequence[int], y: Sequence[int]) -> int:
    """The unique t with y_1 + ... + y_t <= sum(x) < y_1 + ... + y_{t+1}.

    Defined when y_1 <= sum(x) < sum(y); then 1 <= t < len(y).
    """
    _check_positive(x, "x")
    _check_positive(y, "y")
    total_x = sum(x)
    if y[0] > total_x:
        raise NoSplitError(f"y[0]={y[0]} already exceeds sum(x)={total_x}")
    if sum(y) <= total_x:
        raise NoSplitError(f"sum(y)={sum(y)} does not exceed sum(x)={total_x}")
    prefix = 0
    for j, val in enumerate(y, start=1):
        prefix += val
        if prefix > total_x:
            return j - 1
    raise AssertionError("unreachable: sum(y) > sum(x) was checked")


def _check_positive(seq: Sequence[int], name: str) -> None:
    if not seq:
        raise NoSplitError(f"{name} must be nonempty")
    if any(v <= 0 for v in seq):
        raise NoSplitError(f"{name} must contain positive integers only")


class AllocationResult(_Value):
    """Marble allocation: z[i][j] marbles of color j in bin i.

    Columns 0..t-1 are the fully placed colors (column sums equal y_j),
    column t is the residual capacity of each bin, and the slack
    invariant y_{t+1} > sum of residuals holds strictly.
    """

    __slots__ = _fields = ("t", "z")

    def __init__(self, t: int, z: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "t", t)
        _set(self, "z", z)

    def residuals(self) -> tuple[int, ...]:
        return tuple(row[self.t] for row in self.z)


def allocate_marbles(x: Sequence[int], y: Sequence[int]) -> AllocationResult:
    """Distribute y_1..y_t marbles into bins of capacity x_i, greedily,
    where t = split_index(x, y).

    Colors are placed in order, each filling bins in order up to
    capacity; the final column records what capacity is left.
    """
    t = split_index(x, y)
    n = len(x)
    z = [[0] * (t + 1) for _ in range(n)]
    used = [0] * n
    i = 0
    for j in range(t):
        marbles = y[j]
        while marbles > 0:
            capacity = x[i] - used[i]
            if capacity == 0:
                i += 1
                continue
            put = min(capacity, marbles)
            z[i][j] += put
            used[i] += put
            marbles -= put
    for i in range(n):
        z[i][t] = x[i] - used[i]
    return AllocationResult(t, tuple(tuple(row) for row in z))
