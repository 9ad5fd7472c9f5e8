"""Shared constructors and hypothesis strategies for the test suite."""

from __future__ import annotations

from math import gcd

from hypothesis import strategies as st

from zspairs import (
    Multiset,
    Pair,
    enumerate_multisets,
    multiset,
    normalize,
    pair_canonical,
)
from zspairs.core import MAX_VALUE
from zspairs.formats import _RUN_RE, FormatError, _check_run, _int, _quoted


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


def subset_sums_reference(m: Multiset) -> int:
    """Every submultiset sum of m as the set bits of an int, over the full
    width sigma + 1; independent of the package's folds."""
    bits = 1
    for value, count in m.runs:
        # Copies in doubling chunks; their subsets give every take 0..count.
        chunk = 1
        while count > 0:
            take = min(chunk, count)
            bits |= bits << (value * take)
            count -= take
            chunk *= 2
    return bits


def shared_sum_reference(p: Pair) -> int | None:
    """The smallest shared interior sum of a balanced pair from full-width
    folds: the smallest set bit of sums(A) & sums(B) & bits 1..S-1."""
    shared = (
        subset_sums_reference(p.a)
        & subset_sums_reference(p.b)
        & ((1 << p.a.sigma) - 2)
    )
    return (shared & -shared).bit_length() - 1 if shared else None


def extract_reference(m: Multiset, target: int) -> Multiset:
    """The witness rule at full width: walk the runs from the largest value
    and take as many copies as leave `target` reachable from the rest."""
    taken = []
    remaining = target
    for i, (value, count) in enumerate(m.runs):
        rest = m.runs[i + 1:]
        rest_sums = subset_sums_reference(Multiset(rest)) if rest else 1
        take = min(count, remaining // value)
        while take > 0 and not (rest_sums >> (remaining - take * value)) & 1:
            take -= 1
        if take > 0:
            taken.append((value, take))
            remaining -= take * value
    assert remaining == 0
    return Multiset(tuple(taken))


def _coprime_split(t: int) -> list[tuple[int, int]]:
    return [
        (a, t // a)
        for a in range(1, int(t**0.5) + 1)
        if t % a == 0 and gcd(a, t // a) == 1
    ]


@st.composite
def boundary_pairs(draw) -> Pair:
    """a^(b*m) | b^(a*m) with gcd(a, b) = 1 and a*b = t near a search width
    (4096, 65536): the shared sums are the multiples of t, so the smallest
    is t when m >= 2, and m = 1 is irreducible.  An optional element e
    near t on both sides changes the parity of S and, with m = 1, usually
    puts the smallest shared sum, min(e, t), at or just below S // 2."""
    t = draw(st.sampled_from((4096, 65536))) + draw(st.integers(-2, 2))
    a, b = draw(st.sampled_from(_coprime_split(t)))
    m = draw(st.integers(1, 3))
    xs, ys = [(a, b * m)], [(b, a * m)]
    if draw(st.booleans()):
        e = t + draw(st.integers(-3, 3))
        xs.append((e, 1))
        ys.append((e, 1))
    return pair_canonical(normalize(xs), normalize(ys))


@st.composite
def wide_pairs(draw) -> Pair:
    """Random runs with values up to MAX_VALUE on both sides, the lighter
    side topped up with elements of at most MAX_VALUE to balance it."""
    sides = [
        draw(st.lists(st.tuples(st.integers(1, MAX_VALUE), st.integers(1, 3)),
                      min_size=1, max_size=4))
        for _ in range(2)
    ]
    diff = sum(v * c for v, c in sides[0]) - sum(v * c for v, c in sides[1])
    light = sides[1] if diff > 0 else sides[0]
    diff = abs(diff)
    while diff > 0:
        light.append((min(diff, MAX_VALUE), 1))
        diff -= MAX_VALUE
    return pair_canonical(normalize(sides[0]), normalize(sides[1]))


@st.composite
def residue_pairs(draw) -> Pair:
    """Pairs for the residue test: one side x is a single run h^m, or h
    times two or more random runs with h > 1; the other side y is random,
    and the sides are padded to equal sums keeping every value of x a
    multiple of h.  Values reach MAX_VALUE, and the whole pair may be
    scaled by t so that its values share a gcd > 1."""
    vmax = draw(st.sampled_from((9, 1000, MAX_VALUE)))
    ys = draw(st.lists(st.tuples(st.integers(1, vmax), st.integers(1, 3)),
                       min_size=1, max_size=4))
    sy = sum(v * c for v, c in ys)
    if draw(st.booleans()):
        # At most 12,001 copies when vmax >= 1000.
        h = draw(st.integers(max(1, vmax // 1000), vmax))
        pad = -sy % h
        if pad:
            ys.append((pad, 1))
        xs = [(h, (sy + pad) // h)]
    else:
        h = draw(st.integers(2, max(2, vmax // 9)))
        units = draw(st.lists(st.tuples(st.integers(1, vmax // h or 1), st.integers(1, 3)),
                              min_size=2, max_size=3, unique_by=lambda r: r[0]))
        xs = [(h * u, c) for u, c in units]
        pad = -sy % h
        if pad:
            ys.append((pad, 1))
            sy += pad
        diff = sy - sum(v * c for v, c in xs)
        chunk = h * (MAX_VALUE // h)
        side = xs if diff > 0 else ys
        diff = abs(diff)
        while diff > 0:
            side.append((min(diff, chunk), 1))
            diff -= chunk
    top = max(v for v, _ in xs + ys)
    t = draw(st.one_of(st.just(1), st.integers(1, MAX_VALUE // top)))
    return pair_canonical(
        normalize([(v * t, c) for v, c in xs]), normalize([(v * t, c) for v, c in ys])
    )


def scan_sum_reference(k: int, total: int, mode: str):
    """The all-pairs scan a survey's read of one sum must reproduce:
    every same-sum candidate pair (i <= j) visited, pruned mode's exact
    predicates, then the interior-mask AND test.  Returns (hits as run
    tuples, pairs visited).

    This keeps the cardinality and shared-value predicates, which the
    search never applies: it grows both sides of a pair at once, in
    either mode, and drops a prefix pair only when its subset sums share
    a positive value.  Agreement at pruned k <= 8 shows that neither
    predicate ever removes a hit there."""
    if mode == "brute":
        sides = list(enumerate_multisets(k, total))
    else:
        # Pruned mode's candidates: the same order, at most k elements.
        sides = [m for m in enumerate_multisets(k, total) if m.cardinality <= k]
    interior = (1 << total) - 2
    masks = [subset_sums_reference(m) & interior for m in sides]
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


def parse_multiset_reference(text: str, offset: int = 0) -> Multiset:
    """The text grammar as a token loop: every run checked by the
    per-token rules, then merged and checked again by `normalize`."""
    toks = []
    i = 0
    for tok in text.split(" "):
        if tok:
            toks.append((offset + i, tok))
        i += len(tok) + 1
    if not toks:
        raise FormatError("expected a multiset, got nothing", offset)
    raw = []
    for pos, tok in toks:
        m = _RUN_RE.fullmatch(tok)
        if not m:
            raise FormatError(f"expected value^count, got {_quoted(tok)}", pos)
        value = _int(m.group(1), "value")
        count = _int(m.group(2) or "1", "cardinality")
        _check_run(value, count, pos)
        raw.append((value, count))
    return normalize(raw)


def pair_from_obj_reference(obj) -> Pair:
    """The JSON pair grammar, each check a pass of its own: the shape of
    every run of a side, an empty side, each run's values, then the
    merged side; A before B."""
    if not isinstance(obj, dict) or set(obj) != {"A", "B"}:
        raise FormatError('expected an object with exactly the keys "A" and "B"')
    sides = []
    for key in ("A", "B"):
        runs = obj[key]
        if not isinstance(runs, list) or not all(
            isinstance(r, list) and len(r) == 2 and all(type(x) is int for x in r)
            for r in runs
        ):
            raise FormatError(f'key "{key}" must be a list of [value, count] pairs')
        if not runs:
            raise FormatError("expected a multiset, got nothing")
        for value, count in runs:
            _check_run(value, count)
        sides.append(normalize((v, c) for v, c in runs))
    return pair_canonical(sides[0], sides[1])
