"""Value types for multisets of positive integers, unordered pairs, and
zero-sum integer sequences.

A pair {A, B} of nonempty multisets with equal sums corresponds to the
zero-sum sequence that lists A's elements positively and B's elements
negated.  All types here are immutable values; every operation is pure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# Width guards: values and sums must stay comfortably inside 32-bit signed
# range so serialized output is portable.  Far beyond any desk-scale use.
MAX_VALUE = 10**6
MAX_CARDINALITY = 10**6
MAX_SIGMA = 2**31 - 1
# Most significant digits a numeral read from text may have: above
# MAX_SIGMA's 10, and below 640, the least digit limit int() can be given.
MAX_DIGITS = 20


class NonPositiveValueError(ValueError):
    """A multiset element was zero or negative."""


class NonPositiveCountError(ValueError):
    """A run had a negative multiplicity."""


class EmptyError(ValueError):
    """A multiset or sequence ended up with no elements."""


class LimitExceededError(ValueError):
    """Input exceeds the supported value, cardinality, or sum width."""


class NotZeroSumError(ValueError):
    """Sequence terms do not sum to zero."""


class ContainsZeroError(ValueError):
    """A sequence term was zero."""


class UnbalancedError(ValueError):
    """The two multisets of a pair have different sums."""


class KTooSmallError(ValueError):
    """The requested alphabet bound k admits no such construction."""


class ResourceLimitError(ValueError):
    """The requested work is beyond a fixed budget: a survey k above
    MAX_K, a brute sum cap above MAX_BRUTE_CAP, or a check whose next
    subset-sum fold is too large."""


_set = object.__setattr__


class _Value:
    """An immutable value: equality, hash and repr over the attributes
    named in `_fields`, which are also its constructor's parameters, in
    order.  Assigning or deleting any attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor.
        return self.__class__, self._values()


class Multiset(_Value):
    """A nonempty multiset of positive integers, stored as (value, count)
    runs with values strictly decreasing.

    Multisets compare and order by their run tuples alone, and run
    tuples order lexicographically as the descending element sequences
    do (for equal leading values a higher count wins, exactly as the
    longer prefix of that value would).  Construct via :func:`normalize`
    unless the runs are already canonical.
    """

    # cardinality and sigma are set once from the runs; equality,
    # ordering, hash and repr ignore them.
    __slots__ = ("runs", "cardinality", "sigma")
    _fields = ("runs",)

    def __init__(self, runs: tuple[tuple[int, int], ...]) -> None:
        if not runs:
            raise EmptyError("multiset has no elements")
        prev = None
        card = 0
        sigma = 0
        for value, count in runs:
            if value <= 0:
                raise NonPositiveValueError(f"value {value} must be positive")
            if count <= 0:
                raise NonPositiveCountError(f"count {count} must be positive")
            if value > MAX_VALUE:
                raise LimitExceededError(f"value {value} exceeds {MAX_VALUE}")
            if prev is not None and value >= prev:
                raise ValueError("runs must have strictly decreasing values")
            prev = value
            card += count
            sigma += value * count
        if card > MAX_CARDINALITY:
            raise LimitExceededError(f"cardinality {card} exceeds {MAX_CARDINALITY}")
        if sigma > MAX_SIGMA:
            raise LimitExceededError(f"sum {sigma} exceeds {MAX_SIGMA}")
        _set(self, "runs", runs)
        _set(self, "cardinality", card)
        _set(self, "sigma", sigma)

    def __lt__(self, other):
        return self.runs < other.runs if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self.runs <= other.runs if other.__class__ is self.__class__ else NotImplemented

    @property
    def max_value(self) -> int:
        return self.runs[0][0]

    def count_of(self, value: int) -> int:
        for v, c in self.runs:
            if v == value:
                return c
        return 0

    def __contains__(self, value: int) -> bool:
        return self.count_of(value) > 0

    def values(self) -> tuple[int, ...]:
        """Distinct values, descending."""
        return tuple(v for v, _ in self.runs)

    def elements(self) -> Iterator[int]:
        """All elements with multiplicity, descending."""
        for v, c in self.runs:
            for _ in range(c):
                yield v


def normalize(raw: Iterable[tuple[int, int]]) -> Multiset:
    """Build a canonical Multiset from arbitrary (value, count) items.

    Duplicate values merge, zero counts are dropped, values sort
    descending.  Rejects non-positive values, negative counts, and an
    empty result.
    """
    merged: dict[int, int] = {}
    for value, count in raw:
        if value <= 0:
            raise NonPositiveValueError(f"value {value} must be positive")
        if count < 0:
            raise NonPositiveCountError(f"count {count} must be non-negative")
        if count == 0:
            continue
        merged[value] = merged.get(value, 0) + count
    if not merged:
        raise EmptyError("multiset has no elements")
    return Multiset(tuple(sorted(merged.items(), reverse=True)))


def multiset(*elements: int) -> Multiset:
    """Convenience constructor from explicit elements, e.g. multiset(7, 7, 1)."""
    return normalize([(e, 1) for e in elements])


class Pair(_Value):
    """An unordered pair {A, B} of nonempty multisets, canonically oriented.

    Orientation: A's descending element sequence is lexicographically >=
    B's (equal multisets are allowed, as in {{1},{1}}).  Whether the two
    sums agree is exposed as `balanced`; irreducibility requires it.
    """

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Multiset, b: Multiset) -> None:
        if a < b:
            raise ValueError("pair is not canonically oriented; use pair_canonical")
        _set(self, "a", a)
        _set(self, "b", b)

    @property
    def balanced(self) -> bool:
        return self.a.sigma == self.b.sigma

    @property
    def length(self) -> int:
        """Total number of elements, counted with multiplicity."""
        return self.a.cardinality + self.b.cardinality

    @property
    def max_element(self) -> int:
        """Largest element on either side: the least k this pair fits under."""
        return max(self.a.max_value, self.b.max_value)


def pair_canonical(x: Multiset, y: Multiset) -> Pair:
    """The canonical Pair containing x and y; symmetric in its arguments."""
    if x < y:
        x, y = y, x
    return Pair(x, y)


class ZeroSumSequence(_Value):
    """A finite sequence of nonzero integers summing to zero."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[int, ...]) -> None:
        if not terms:
            raise EmptyError("sequence has no terms")
        if any(t == 0 for t in terms):
            raise ContainsZeroError("sequence terms must be nonzero")
        if sum(terms) != 0:
            raise NotZeroSumError(f"terms sum to {sum(terms)}, not 0")
        _set(self, "terms", terms)


def sequence_to_pair(seq: ZeroSumSequence) -> Pair:
    """Split a zero-sum sequence into the pair (positives, |negatives|)."""
    pos, neg = [t for t in seq.terms if t > 0], [-t for t in seq.terms if t < 0]
    return pair_canonical(multiset(*pos), multiset(*neg))


def pair_to_sequence(p: Pair) -> ZeroSumSequence:
    """The zero-sum sequence listing A descending, then -B descending.

    Any term order represents the same multiset pair; this fixed order
    makes the round trip with sequence_to_pair exact.
    """
    if not p.balanced:
        raise UnbalancedError(
            f"sums differ: {p.a.sigma} != {p.b.sigma}; no zero-sum sequence exists"
        )
    terms = list(p.a.elements()) + [-v for v in p.b.elements()]
    return ZeroSumSequence(tuple(terms))


def extremal_construction(k: int) -> Pair:
    """The pair of k repeated k-1 times against k-1 repeated k times.

    Its length is 2k-1 and both sides sum to k*(k-1); defined for k > 1.
    """
    if k <= 1:
        raise KTooSmallError(f"k must be at least 2, got {k}")
    return pair_canonical(
        Multiset(((k, k - 1),)),
        Multiset(((k - 1, k),)),
    )
