"""The zero-violation sweeps of acceptance criteria c05-c08, each returning
(instances checked, violations): the acceptance suite runs them at full
scale, `zspairs selftest` at reduced scale."""

from __future__ import annotations

from itertools import combinations_with_replacement
from random import Random

from .core import Pair, normalize, pair_canonical
from .derivation import allocate_marbles, derive
from .enumeration import EnumConfig, enumerate_irreducible, enumerate_multisets
from .enumeration import verify_theorem_bounds
from .irreducibility import is_irreducible, is_irreducible_naive


def oracle_sweep(k: int, max_total: int) -> tuple[int, int]:
    """Engine vs naive oracle on same-sum pairs with values <= k, sums <= max_total."""
    checked = mismatches = 0
    for total in range(1, max_total + 1):
        for a, b in combinations_with_replacement(enumerate_multisets(k, total), 2):
            p = Pair(a, b)
            checked += 1
            mismatches += is_irreducible(p) != is_irreducible_naive(p)
    return checked, mismatches


def derivation_sweep(cfg: EnumConfig, samples: int, rng: Random) -> tuple[int, int]:
    """Random single derivations of the survey's pairs longer than 2: each result
    must equal the literal recomputation, be irreducible and keep both maxima."""
    pool = [p for p in enumerate_irreducible(cfg) if p.length > 2]
    violations = 0
    for _ in range(samples):
        p = rng.choice(pool)
        a = rng.choice(p.a.values())
        b = rng.choice(p.b.values())
        first, second = dict(p.a.runs), dict(p.b.runs)
        first[a] -= 1
        second[b] -= 1
        gains = first if a > b else second
        gains[abs(a - b)] = gains.get(abs(a - b), 0) + 1
        raw = pair_canonical(normalize(first.items()), normalize(second.items()))
        derived = derive(p, a, b)
        violations += (
            (derived != raw)
            + (not is_irreducible(derived))
            + (max(v for v, c in first.items() if c) > p.a.max_value)
            + (max(v for v, c in second.items() if c) > p.b.max_value)
        )
    return samples, violations


def allocation_sweep(
    trials: int, rng: Random, max_bins: int, max_value: int
) -> tuple[int, int]:
    """Random allocations (up to max_bins bins, values <= max_value): exact column
    sums, residual = capacity minus contents, and slack y[t] > sum(residuals)."""
    violations = 0
    for _ in range(trials):
        x = [rng.randint(1, max_value) for _ in range(rng.randint(1, max_bins))]
        y = [rng.randint(1, min(max_value, sum(x)))]
        while sum(y) <= sum(x):
            y.append(rng.randint(1, max_value))
        alloc = allocate_marbles(x, y)
        t = alloc.t
        violations += sum(sum(row[j] for row in alloc.z) != y[j] for j in range(t))
        violations += sum(
            row[t] != x[i] - sum(row[:t]) or row[t] < 0 for i, row in enumerate(alloc.z)
        )
        violations += not y[t] > sum(alloc.residuals())
    return trials, violations


def bounds_sweep(cfg: EnumConfig) -> tuple[int, int]:
    """The length bounds on every pair the survey finds."""
    pairs = list(enumerate_irreducible(cfg))
    return len(pairs), sum(not verify_theorem_bounds(p) for p in pairs)
