"""Workload inputs, the operations that feed them to zspairs, and the
correctness gate every operation's output must pass.

Inputs are made from the seed alone and handed to the program only as
argv or text.  The gate never asks zspairs whether zspairs was right: it
checks outputs against pinned facts, against how an input was built, or
with the small subset-sum checker in this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

# zspairs.core.MAX_VALUE, restated so generated inputs stay valid without
# reading the value from the program under test.
MAX_VALUE = 10**6

# Survey facts of the scanned range at the default cap k*k, fixed when the
# benchmark was defined: (mode, k) -> (pairs_scanned, irreducible_count).
PINNED_SURVEYS = {
    ("brute", 6): (13_811_617, 108),
    ("pruned", 9): (29_089_687, 1_270),
}


@dataclass(frozen=True)
class Op:
    """One request: `kind` selects the runner and gate, `payload` is the
    argv or text the program receives, `expect` is what the gate needs."""

    kind: str
    payload: tuple
    expect: Any = None


@dataclass
class Lib:
    """The zspairs entry points the operations call.  The traced run swaps
    in wrapped versions of the same functions."""

    main: Callable
    parse_pair: Callable
    format_pair: Callable
    pair_to_json: Callable
    pair_from_json: Callable
    parse_plan: Callable
    plan_of: Callable
    derive: Callable
    derive_product: Callable

    @classmethod
    def from_modules(cls, mods) -> Lib:
        return cls(
            main=mods.cli.main,
            parse_pair=mods.formats.parse_pair,
            format_pair=mods.formats.format_pair,
            pair_to_json=mods.formats.pair_to_json,
            pair_from_json=mods.formats.pair_from_json,
            parse_plan=mods.formats.parse_plan,
            plan_of=mods.derivation.DerivationPlan.of,
            derive=mods.derivation.derive,
            derive_product=mods.derivation.derive_product,
        )


# ---------------------------------------------------------------------------
# Pair text and a reference irreducibility check, independent of zspairs.

Runs = tuple  # ((value, count), ...) with values strictly decreasing


def canon(counts: dict[int, int]) -> Runs:
    return tuple(sorted(((v, c) for v, c in counts.items() if c > 0), reverse=True))


def runs_text(runs: Runs) -> str:
    return " ".join(f"{v}^{c}" if c > 1 else str(v) for v, c in runs)


def oriented(a: Runs, b: Runs) -> tuple[Runs, Runs]:
    """The canonical orientation zspairs uses: A's runs compare >= B's."""
    return (a, b) if a >= b else (b, a)


def pair_text(a: Runs, b: Runs) -> str:
    a, b = oriented(a, b)
    return f"{runs_text(a)} | {runs_text(b)}"


def pair_json(a: Runs, b: Runs) -> str:
    a, b = oriented(a, b)
    obj = {"A": [[v, c] for v, c in a], "B": [[v, c] for v, c in b]}
    return json.dumps(obj, separators=(",", ":"))


def parse_runs(text: str) -> Runs:
    counts: dict[int, int] = {}
    for tok in text.split():
        value, _, count = tok.partition("^")
        counts[int(value)] = counts.get(int(value), 0) + (int(count) if count else 1)
    return canon(counts)


def parse_pair_text(text: str) -> tuple[Runs, Runs]:
    left, _, right = text.partition("|")
    return parse_runs(left), parse_runs(right)


def sigma(runs: Runs) -> int:
    return sum(v * c for v, c in runs)


def cardinality(runs: Runs) -> int:
    return sum(c for _, c in runs)


def elements(runs: Runs) -> list[int]:
    return [v for v, c in runs for _ in range(c)]


def _sums(runs: Runs) -> int:
    bits = 1
    for v, c in runs:
        for _ in range(c):
            bits |= bits << v
    return bits


def reference_irreducible(a: Runs, b: Runs) -> bool:
    """Equal sums and no shared sum strictly inside (0, S): the definition,
    one element at a time.  Meant for the small pairs of `pair-ops`."""
    total = sigma(a)
    if total != sigma(b):
        return False
    return _sums(a) & _sums(b) & ((1 << total) - 2) == 0


def is_submultiset(sub: Runs, whole: Runs) -> bool:
    have = dict(whole)
    return all(have.get(v, 0) >= c for v, c in sub)


# ---------------------------------------------------------------------------
# Runners: each takes the Lib and a payload and returns the raw output.


def run_cli(lib: Lib, argv: tuple) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_derive(lib: Lib, payload: tuple) -> str:
    text, a, b = payload
    return lib.format_pair(lib.derive(lib.parse_pair(text), a, b))


def run_product(lib: Lib, payload: tuple) -> str:
    text, plan = payload
    p = lib.parse_pair(text)
    return lib.format_pair(lib.derive_product(p, lib.plan_of(lib.parse_plan(plan))))


def run_roundtrip(lib: Lib, payload: tuple) -> tuple[str, str, bool]:
    (text,) = payload
    p = lib.parse_pair(text)
    js = lib.pair_to_json(p)
    return lib.format_pair(p), js, lib.pair_from_json(js) == p


# ---------------------------------------------------------------------------
# Gates: each returns True when the output is right.


def survey_expect(mode: str, k: int) -> dict:
    """Every report field but wall_time, for the default cap k*k."""
    scanned, irreducible = PINNED_SURVEYS[(mode, k)]
    return {
        "k": k,
        "ell": 2 * k - 1,
        "witnesses": [{"A": [[k, k - 1]], "B": [[k - 1, k]]}],
        "pairs_scanned": scanned,
        "irreducible_count": irreducible,
        "mode": mode,
        "sum_cap": k * k,
    }


def _report(stdout: str) -> dict | None:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    if not isinstance(rep, dict) or not isinstance(rep.pop("wall_time", None), float):
        return None
    return rep


def gate_survey(op: Op, out) -> bool:
    code, stdout, stderr = out
    return code == 0 and stderr == "cache: off\n" and _report(stdout) == op.expect


def _known_facts_hold(rep: dict | None) -> bool:
    # For the small warm-cache configs only the extremal facts are known.
    if rep is None:
        return False
    k = rep.get("k")
    return (
        isinstance(k, int)
        and rep.get("ell") == 2 * k - 1
        and rep.get("witnesses") == [{"A": [[k, k - 1]], "B": [[k - 1, k]]}]
        and rep.get("sum_cap") == k * k
    )


def gate_warm_ell(op: Op, out) -> bool:
    code, stdout, stderr = out
    cold_stdout = op.expect
    return (
        code == 0
        and stdout == cold_stdout
        and stderr.startswith("cache: hit ")
        and _known_facts_hold(_report(cold_stdout))
    )


def gate_check(op: Op, out) -> bool:
    code, stdout, _ = out
    irreducible, a, b = op.expect
    lines = stdout.splitlines()
    head = [
        f"irreducible: {'true' if irreducible else 'false'}",
        f"k-threshold: {max(a[0][0], b[0][0])}",
    ]
    if irreducible:
        return code == 0 and lines == head
    if code != 1 or len(lines) != 3 or lines[:2] != head:
        return False
    if not lines[2].startswith("witness: ") or "|" not in lines[2]:
        return False
    sub_a, sub_b = parse_pair_text(lines[2][len("witness: "):])
    s = sigma(sub_a)
    return (
        bool(sub_a)
        and bool(sub_b)
        and s == sigma(sub_b)
        and 0 < s < sigma(a)
        and is_submultiset(sub_a, a)
        and is_submultiset(sub_b, b)
    )


def gate_derived(op: Op, out: str) -> bool:
    length = op.expect
    if not isinstance(out, str) or "|" not in out:
        return False
    a, b = parse_pair_text(out)
    return (
        bool(a)
        and bool(b)
        and cardinality(a) + cardinality(b) == length
        and out == pair_text(a, b)
        and reference_irreducible(a, b)
    )


def gate_roundtrip(op: Op, out) -> bool:
    text, js = op.expect
    return out == (text, js, True)


RUNNERS = {
    "survey": lambda lib, op: run_cli(lib, op.payload),
    "check": lambda lib, op: run_cli(lib, op.payload),
    "ell-warm": lambda lib, op: run_cli(lib, op.payload),
    "derive": lambda lib, op: run_derive(lib, op.payload),
    "product": lambda lib, op: run_product(lib, op.payload),
    "roundtrip": lambda lib, op: run_roundtrip(lib, op.payload),
}

GATES = {
    "survey": gate_survey,
    "check": gate_check,
    "ell-warm": gate_warm_ell,
    "derive": gate_derived,
    "product": gate_derived,
    "roundtrip": gate_roundtrip,
}


def run_op(lib: Lib, op: Op):
    return RUNNERS[op.kind](lib, op)


def gate(op: Op, out) -> bool:
    return GATES[op.kind](op, out)


# ---------------------------------------------------------------------------
# Generators.  Each returns one round: the batch of ops a run repeats.


def _survey_round(mode: str, k: int, workers: int) -> list[Op]:
    argv = ("ell", str(k), "--mode", mode, "--no-cache", "--workers", str(workers))
    return [Op("survey", argv, survey_expect(mode, k))]


def serial_variant(ops: list[Op]) -> list[Op]:
    """The same survey ops with one worker: the fan-out baseline."""
    out = []
    for op in ops:
        argv = list(op.payload)
        argv[argv.index("--workers") + 1] = "1"
        out.append(Op(op.kind, tuple(argv), op.expect))
    return out


def _irreducible_pool(mods, k: int) -> list[tuple[Runs, Runs]]:
    cfg = mods.enumeration.EnumConfig(k=k, mode="pruned")
    return [
        (p.a.runs, p.b.runs)
        for p in mods.enumeration.enumerate_irreducible(cfg)
        if p.length > 2
    ]


def _stratum(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    """A log-uniform draw from the middle half of the i-th of n equal
    slices of [lo, hi]: every seed covers the whole range with the same
    spread of sizes, so the cost of a round varies little with the seed."""
    u = (i + 0.25 + 0.5 * rng.random()) / n
    return lo * (hi / lo) ** u


def _dense_side(rng: random.Random, distinct: int, total: int) -> dict[int, int]:
    # Counts grow with the total so that every value stays <= MAX_VALUE.
    base = max(1, math.ceil(3 * total / (distinct * MAX_VALUE)))
    counts = [base + rng.randrange(3) for _ in range(distinct)]
    weights = [rng.uniform(0.5, 1.5) for _ in range(distinct)]
    scale = total / sum(w * c for w, c in zip(weights, counts))
    side: dict[int, int] = {}
    for w, c in zip(weights, counts):
        v = max(1, int(w * scale))
        side[v] = side.get(v, 0) + c
    rest = total - sigma(canon(side))
    if rest > 0:
        side[rest] = side.get(rest, 0) + 1
    return side


CHECK_PER_CLASS = 32
CHECK_LO, CHECK_HI = 1_000_000, 20_000_000


def check_large_round(seed: int, mods) -> list[Op]:
    rng = random.Random(f"check-large/{seed}")
    n = CHECK_PER_CLASS
    ops = []
    # Irreducible k<=5 survey pairs scaled by t: scaling keeps every
    # shared-sum relation, so the pair stays irreducible.
    pool = [
        (a, b)
        for a, b in _irreducible_pool(mods, 5)
        if sigma(a) >= 2 * max(a[0][0], b[0][0])
    ]
    for i in range(n):
        a, b = rng.choice(pool)
        top = max(a[0][0], b[0][0])
        target = _stratum(rng, i, n, CHECK_LO, 2 * CHECK_LO)
        t = min(max(round(target / sigma(a)), math.ceil(CHECK_LO / sigma(a))), MAX_VALUE // top)
        a = tuple((v * t, c) for v, c in a)
        b = tuple((v * t, c) for v, c in b)
        ops.append(_check_op(a, b, True))
    # k^(k-1) | (k-1)^k, irreducible since gcd(k, k-1) = 1.
    k_lo = math.isqrt(CHECK_LO) + 1
    k_hi = math.isqrt(CHECK_HI)
    for i in range(n):
        k = round(_stratum(rng, i, n, k_lo, k_hi))
        ops.append(_check_op(((k, k - 1),), ((k - 1, k),), True))
    # Random dense pairs sharing one value s: {s} | {s} is a proper
    # equal-sum sub-pair, so each is reducible by construction.  Larger
    # sums get fewer distinct values, which bounds the costliest check.
    for i in range(n):
        total = round(_stratum(rng, i, n, CHECK_LO, CHECK_HI))
        d_a = 60 - round(50 * (i + 0.25 + 0.5 * rng.random()) / n)
        d_b = 60 - round(50 * (i + 0.25 + 0.5 * rng.random()) / n)
        shared = rng.randint(1, 1000)
        a = _dense_side(rng, d_a, total)
        b = _dense_side(rng, d_b, total)
        a[shared] = a.get(shared, 0) + 1
        b[shared] = b.get(shared, 0) + 1
        ops.append(_check_op(canon(a), canon(b), False))
    rng.shuffle(ops)
    return ops


def _check_op(a: Runs, b: Runs, irreducible: bool) -> Op:
    a, b = oriented(a, b)
    return Op("check", ("check", pair_text(a, b)), (irreducible, a, b))


PAIR_OPS_PER_KIND = 10
WARM_CONFIGS = (("brute", 3), ("brute", 4), ("brute", 5), ("pruned", 5), ("pruned", 6), ("pruned", 7))


def pair_ops_round(seed: int, mods, cache_dir: str) -> list[Op]:
    rng = random.Random(f"pair-ops/{seed}")
    n = PAIR_OPS_PER_KIND
    pool = _irreducible_pool(mods, 7)
    ops = []
    for a, b in rng.sample(pool, n):
        ops.append(_check_op(a, b, True))
    for a, b in rng.sample(pool, n):
        ops.append(
            Op(
                "derive",
                (pair_text(a, b), rng.choice(elements(a)), rng.choice(elements(b))),
                cardinality(a) + cardinality(b) - 1,
            )
        )
    wide = [(a, b) for a, b in pool if min(cardinality(a), cardinality(b)) >= 2]
    for a, b in rng.sample(wide, n):
        # Draw every consumed element from the original pair, leaving at
        # least one element on each side: the plan is always feasible.
        steps = rng.randint(1, min(cardinality(a), cardinality(b)) - 1)
        taken_a = rng.sample(elements(a), steps)
        taken_b = rng.sample(elements(b), steps)
        plan: dict[tuple[int, int], int] = {}
        for x, y in zip(taken_a, taken_b):
            plan[(x, y)] = plan.get((x, y), 0) + 1
        plan_text = ";".join(
            f"{x},{y}^{c}" if c > 1 else f"{x},{y}" for (x, y), c in sorted(plan.items())
        )
        ops.append(
            Op(
                "product",
                (pair_text(a, b), plan_text),
                cardinality(a) + cardinality(b) - steps,
            )
        )
    for a, b in rng.sample(pool, n):
        ops.append(Op("roundtrip", (pair_text(a, b),), (pair_text(a, b), pair_json(a, b))))
    # Warm-cache survey hits: a cold run per config fills the cache first.
    # cache_dir is the ZSPAIRS_CACHE_DIR the CLI reads.
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    cold = {}
    for mode, k in WARM_CONFIGS:
        argv = ("ell", str(k), "--mode", mode)
        code, stdout, _ = run_cli(Lib.from_modules(mods), argv)
        cold[argv] = stdout if code == 0 else ""
    for _ in range(n):
        argv = rng.choice(sorted(cold))
        ops.append(Op("ell-warm", argv, cold[argv]))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (seed, mods, cache_dir) -> one round of ops
    min_ops: int = 1
    workers: int = 1


def workers_for(wanted: int) -> int:
    """Never more workers than this machine has cores."""
    return max(1, min(wanted, os.cpu_count() or 1))


FANOUT_WORKERS = workers_for(2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey-brute-k6",
            "every same-sum pair tested, no fan-out: the scan kernel and partition workload",
            lambda seed, mods, cache: _survey_round("brute", 6, 1),
        ),
        Workload(
            "survey-pruned-k9-w2",
            "pruned filters skip most candidates, two worker processes: the fan-out workload",
            lambda seed, mods, cache: _survey_round("pruned", 9, FANOUT_WORKERS),
            workers=FANOUT_WORKERS,
        ),
        Workload(
            "check-large",
            "check on sums 1e6..2e7: big-int fold and witness, enumeration bypassed",
            lambda seed, mods, cache: check_large_round(seed, mods),
            min_ops=200,
        ),
        Workload(
            "pair-ops",
            "small k=7 pairs: per-call overhead of check, derive, formats and warm cache",
            lambda seed, mods, cache: pair_ops_round(seed, mods, cache),
        ),
    )
}


def inputs_digest(ops: list[Op]) -> str:
    """sha256 of everything the program receives in one round."""
    blob = json.dumps([[op.kind, list(op.payload)] for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
