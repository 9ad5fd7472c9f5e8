"""A pinned differential of the command line: fixed lists of commands,
run in-process, and one sha256 per group over every command's argv,
exit code, stdout and stderr.

Stdout is hashed with each report's `wall_time` masked; stderr with the
cache directory, `created_at` and `wall_time` masked.  A change to any
output a group covers changes that group's digest, so a contract change
shows as a named group here, and is pinned again on purpose.  The
inputs are built from fixed seeds alone, never from the program under
test.  The usage groups hold argparse's own wording.  All ten digests
match on Python 3.10, 3.11, 3.12 and 3.13, because `cli._Parser` words
the one message that differs: `_check_value` quotes each choice, as
3.11 does, where 3.13's own argparse prints `choose from brute, pruned`.
That override is not redundant; deleting it changes the usage groups.
"""

import contextlib
import hashlib
import io
import json
import random
import re

import pytest

from zspairs.cache import CACHE_DIR_ENV
from zspairs.cli import main

_MAX_K = 12


def _side(values) -> str:
    return " ".join(map(str, sorted(values, reverse=True)))


def _composition(rng: random.Random, total: int, top: int) -> list[int]:
    parts = []
    while total > 0:
        parts.append(rng.randint(1, min(total, top)))
        total -= parts[-1]
    return parts


def _ell_commands(mode: str) -> list[tuple[str, ...]]:
    """Fresh (`--no-cache`), stored, then a hit, at each k and cap."""
    commands = []
    for k in range(1, _MAX_K + 1):
        for cap in dict.fromkeys([None, 1, k, k * (k - 1) - 1, 100]):
            argv = ("ell", str(k), "--mode", mode)
            if cap is not None:
                argv += ("--sum-cap", str(cap))
            commands += [argv + ("--no-cache",), argv, argv]
    return commands


def _enumerate_commands() -> list[tuple[str, ...]]:
    commands = []
    for mode in ("brute", "pruned"):
        for k in range(1, 9):
            for fmt in ("plain", "json", "csv"):
                commands.append(("enumerate", str(k), "--mode", mode, "--format", fmt))
        commands += [
            ("enumerate", "6", "--mode", mode, "--min-len", "4", "--max-len", "6"),
            ("enumerate", "5", "--mode", mode, "--sum-cap", "12", "--min-len", "5"),
            ("enumerate", "4", "--mode", mode, "--max-len", "0"),
        ]
    # Caps past the search's end, k(k-1): no pair lies above it.
    commands += [
        ("enumerate", "7", "--sum-cap", "100000"),
        ("enumerate", "12", "--sum-cap", "100000", "--min-len", "20", "--format", "csv"),
        ("enumerate", "12", "--sum-cap", "131", "--min-len", "21"),
        ("enumerate", "9", "--mode", "pruned", "--sum-cap", "9" * 20),
    ]
    return commands


def _extremal_commands() -> list[tuple[str, ...]]:
    commands = []
    for mode in ("brute", "pruned"):
        for k in range(1, 10):
            for fmt in ("plain", "json", "csv"):
                commands.append(("extremal", str(k), "--mode", mode, "--format", fmt))
        commands.append(("extremal", "6", "--mode", mode, "--sum-cap", "20"))
    commands += [("extremal", str(k), "--mode", "pruned") for k in range(10, _MAX_K + 1)]
    commands += [
        ("extremal", "12", "--sum-cap", "100000"),
        ("extremal", "12", "--mode", "pruned", "--sum-cap", "9" * 20),
    ]
    return commands


def _check_commands() -> list[tuple[str, ...]]:
    """Small balanced pairs drawn from a seed (reducible and irreducible),
    the extremal pairs, pairs scaled by a common factor g, unbalanced
    pairs, and pairs at the limits of the fold budget."""
    rng = random.Random(20261020)
    texts = []
    for _ in range(120):
        a = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
        texts.append((a, _composition(rng, sum(a), 12)))
    texts += [([k] * (k - 1), [k - 1] * k) for k in range(2, _MAX_K + 1)]
    scaled = []
    for a, b in texts[:40] + texts[-6:]:
        g = rng.choice([2, 3, 7, 1000, 99_991, rng.randint(2, 10**6 // max(a + b))])
        scaled.append(([v * g for v in a], [v * g for v in b]))
    pairs = [f"{_side(a)} | {_side(b)}" for a, b in texts + scaled]
    pairs += [
        "2 1 | 2",
        "5 | 3",
        "9 9 | 1",
        "1000000 | 999999 1 1",
        "7^3 1^2 | 6^3 5",
        "6 4 | 4 2 2 1 1",
        "1000000^2000 1 | 999999^2000 1^2001",
        "46341^46340 | 46340^46341",
        "853959^1192 782351^1137 | 916918^525 539157^2645",
        "691615^1020 | 604316^150 927300^663",
    ]
    return [("check", p) for p in pairs]


def _derive_commands() -> list[tuple[str, ...]]:
    """Plans and chains over seeded pairs, the same steps for both: some
    apply, others consume a value twice, name a value an earlier step
    used up, or take equal values."""
    rng = random.Random(7)
    commands = []
    for _ in range(60):
        a = [rng.randint(1, 12) for _ in range(rng.randint(2, 6))]
        b = _composition(rng, sum(a), 12)
        while len(b) < 2:
            b = _composition(rng, sum(a), 12)
        text = f"{_side(a)} | {_side(b)}"
        n = rng.randint(1, min(len(a), len(b)))
        steps = list(zip(rng.sample(a, n), rng.sample(b, n)))
        steps = ";".join(f"{x},{y}" for x, y in steps)
        commands += [("derive", text, "--product", steps), ("derive", text, "--chain", steps)]
    commands += [
        ("derive", "7^3 1^2 | 6^3 5", "--product", "7,6^2;7,5"),
        ("derive", "5^2 | 2^5", "--chain", "5,2;3,2"),
        ("derive", "5^2 | 2^5", "--chain", "3,2;5,2"),
        ("derive", "5^2 | 2^5", "--product", "5,2^3"),
        ("derive", "5^2 | 2^5", "--chain", "5,2^1"),
        ("derive", "948490^1016 397863 | 762380^778 655357^566 1", "--product", "397863,1"),
        ("derive", "948490^1016 397863 | 762380^778 655357^566 1", "--chain", "397863,1"),
    ]
    return commands


_NINES = "9" * 5000


def _error_commands() -> list[tuple[str, ...]]:
    """The error paths that earlier faults ran through, each with a
    short message: parse errors, numerals past the digit bound, and
    survey limits."""
    return [
        ("check", "1 | 1\n"),
        ("check", "1\t| 1"),
        ("check", "1\n| 1"),
        ("check", "\t1 | 1"),
        ("check", "1 | 1\t"),
        ("check", "\u0661 | 1"),
        ("check", "2^x | 1"),
        ("check", "5^0 1 | 1"),
        ("check", f"{_NINES} | 1"),
        ("check", f"{'9' * 4300} | 1"),
        ("check", f"1^{_NINES} | 1"),
        ("check", f"{'0' * 5000}3 | 3"),
        ("check", f"{'9' * 100_000}x | 1"),
        ("derive", "7^3 1^2 | 6^3 5", "--product", f"7,{'6' * 4000}"),
        ("derive", "3 | 2 1", "--chain", f"{_NINES},6"),
        ("derive", "3 | 2 1", "--product", f"3,2^{_NINES}"),
        ("derive", "3 | 2 1", "--chain", f"x{'1' * 100_000}"),
        ("ell", "9" * 4000),
        ("ell", f"{'0' * 5000}3", "--no-cache"),
        ("ell", "3", "--sum-cap", _NINES, "--no-cache"),
        ("enumerate", "3", "--max-len", "9" * 21),
        ("ell", "3", "--mode", "pruned", "--sum-cap", "9" * 20, "--no-cache"),
        ("ell", "13"),
        ("ell", "13", "--mode", "pruned"),
        ("ell", "0"),
        ("ell", "3", "--sum-cap", "0"),
        ("ell", "3", "--sum-cap", "100001", "--no-cache"),
        ("enumerate", "3", "--sum-cap", "100001"),
        ("extremal", "3", "--sum-cap", "100001"),
        ("enumerate", "3", "--min-len", "0"),
        ("enumerate", "3", "--min-len", "4", "--max-len", "3"),
        ("enumerate", "3", "--workers", "0"),
        ("ell", "3", "--workers", "0"),
        ("ell", "3"),
        ("ell", "3", "--workers", "0"),
        ("ell", "6", "--sum-cap", "100", "--no-cache"),
        ("ell", "8", "--no-cache"),
        ("ell", "2", "--sum-cap", "709", "--no-cache"),
        ("ell", "1", "--sum-cap", "11280", "--no-cache"),
        ("ell", "1", "--sum-cap", "11280", "--no-cache", "--workers", "2"),
        # Refusal order: the config, then the length window, then the count.
        ("enumerate", "3", "--workers", "0", "--min-len", "0"),
        ("enumerate", "3", "--workers", "-2", "--min-len", "5", "--max-len", "4",
         "--format", "csv"),
        ("enumerate", "13", "--workers", "0"),
        ("ell", "13", "--workers", "0"),
        ("enumerate", "3", "--sum-cap", "100001", "--workers", "0"),
    ]


def _usage_commands() -> list[tuple[str, ...]]:
    """Usage errors with short values, two of them echoing a newline and
    an escape, and a bare command line."""
    return [
        (),
        ("nonsense",),
        ("ell",),
        ("ell", "x"),
        ("ell", "3", "--mode", "bb"),
        ("enumerate", "3", "--format", "xml"),
        ("extremal", "3", "--format", "xml"),
        ("check", "1 | 1", "extra"),
        ("ell", "3", "--no-cache=x"),
        ("ell", "3", "--bogus"),
        ("derive", "5^2 | 2^5"),
        ("derive", "5^2 | 2^5", "--product", "5,2", "--chain", "5,2"),
        ("enumerate", "3", "--min-len", "1.5"),
        ("ell", "+3"),
        ("check", "1 | 1", "a\nb\x1b[2J"),
        ("enumerate", "3", "--m=a\nb"),
    ]


_LONG = "b" * 100_000


def _usage_long_commands() -> list[tuple[str, ...]]:
    """Usage errors whose offending value is 100,000 characters long."""
    return [
        ("ell", "3", "--mode", _LONG),
        (_LONG,),
        ("enumerate", "3", "--format", _LONG),
        ("check", "1 | 1", _LONG),
        ("ell", "3", f"--no-cache={_LONG}"),
    ]


_GROUPS = {
    "ell-brute": lambda: _ell_commands("brute"),
    "ell-pruned": lambda: _ell_commands("pruned"),
    "enumerate": _enumerate_commands,
    "extremal": _extremal_commands,
    "check": _check_commands,
    "derive": _derive_commands,
    "version": lambda: [("--version",)],
    "errors": _error_commands,
    "usage": _usage_commands,
    "usage-long": _usage_long_commands,
}

_DIGESTS = {
    "ell-brute": "c80094c08b5662026670a9b97f36d35c3c26e74b6d659220fa8db28646d66077",
    "ell-pruned": "76220fa0f129f2504f95c6acff1a344a60b8ccb2a47a4f63c8dcdfc1aa9f41eb",
    "enumerate": "1ea87afe75fccb7fe3ab3aaa28cd4e2630c0c7d8f4b8fdbbc8b160c810ad31ce",
    "extremal": "54944771da3259958f096af4edc9803652157d66421d636635307f53704748d5",
    "check": "782ab67ad40640214b9f1570b86b59abb6516381be578b7cc9ca8651f5426cb2",
    "derive": "909d63adcb626c6b57f42ca36e62f3798d7d2e8e2bc6fefd49ac26f26d6b39f9",
    "version": "c645c0c5c4e51fbb38d41e477022d5713339ab545b394accec8f9c0655de51a1",
    "errors": "588da501c83d0bb0cf05cf712a3a872f18445a721cfdc98d3c7745332d8a48d5",
    "usage": "8a7eeabb71ea2c2bc3985d9c57b82790fab9da9099bae2d95672bb3e911a8f36",
    "usage-long": "23a5e2425c66f9f214c76f63e0edd0706f28b9c7c934d1b405de5d8cb656db40",
}


def _digest(commands, cache) -> str:
    """One sha256 over the commands, run in order against one cache."""
    h = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        stdout = re.sub(r'"wall_time":[^,}]*', '"wall_time":0', out.getvalue())
        stderr = err.getvalue().replace(str(cache), "$CACHE")
        stderr = re.sub(r"(created_at|wall_time)=\S+", r"\1=*", stderr)
        h.update(json.dumps([argv, code, stdout, stderr]).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("group", list(_GROUPS))
def test_corpus_group_matches_its_pinned_digest(tmp_path, monkeypatch, group):
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert _digest(_GROUPS[group](), cache) == _DIGESTS[group]
