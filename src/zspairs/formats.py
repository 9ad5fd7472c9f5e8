"""Text and JSON grammars for multisets, pairs, derivation plans, and chains.

Text multiset: space-separated `value^count` runs, `^1` optional, e.g.
`7^3 1^2`.  Text pair: `A | B`.  JSON pair: {"A": [[7,3],[1,2]], "B": ...}.
Plan: semicolon-separated `a,b^count` triples, e.g. `7,6^2;7,5`.  Chain:
`a,b;a,b` applied left to right.

Emission is always canonical (values descending, merged runs, `^1`
elided), so emit(parse(s)) == s for canonical s and parse(emit(x)) == x
always: a Multiset holds ints only, so every value and count writes as a
numeral.  Pair JSON is written by its grammar, straight from the runs,
with no encoder.  Parsers accept runs in any order.  Each run is checked
once, as it is read, and its count merged into the run of its value; the
merged runs then go to `Multiset`, which enforces the value, cardinality
and sum limits.  A token or JSON run that check refuses is diagnosed by
the per-run rules, which name the first fault and its column.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .core import (MAX_CARDINALITY, MAX_DIGITS, MAX_VALUE, LimitExceededError, Multiset, Pair,
                   pair_canonical)


class FormatError(ValueError):
    """Unparseable input; `position` is the 0-based character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"at column {position}: {message}")
        self.position = position


# [0-9], not \d: \d also matches non-ASCII digits, which int() accepts.
# Matched with fullmatch: `$` also matches before a trailing newline.
_RUN_RE = re.compile(r"([0-9]+)(?:\^([0-9]+))?")
_STEP_RE = re.compile(r"([0-9]+),([0-9]+)(?:\^([0-9]+))?")
# Only the runs _RUN_RE, _int and _check_run all accept: a nonzero value
# and count, each of at most MAX_DIGITS significant digits.
_NUMERAL = f"0*([1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
_VALID_RUN_RE = re.compile(f"{_NUMERAL}(?:\\^{_NUMERAL})?")


def _int(digits: str, what: str) -> int:
    """A numeral's value.  One of more than MAX_DIGITS significant digits
    is past every limit, and is refused as such, unechoed."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        limit = MAX_VALUE if what == "value" else MAX_CARDINALITY
        raise LimitExceededError(f"{what} of {len(digits)} digits exceeds {limit}")
    return int(digits)


def _json_int(text: str) -> int:
    # JSON numerals have no leading zeros, so every digit is significant.
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise FormatError("invalid JSON: a number has too many digits")
    return int(text)


# A JSON text with no run of more than MAX_DIGITS digits has no int that
# _json_int would refuse, and is parsed without it, at the C parser's speed.
_LONG_DIGITS = re.compile(f"[0-9]{{{MAX_DIGITS + 1}}}")


def _quoted(token: str, quote=repr) -> str:
    """A token as `quote` prints it, or as `repr` if a character is not
    printable, cut after 40 characters and then marked."""
    text = quote(token) if token.isprintable() else repr(token)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(token)} characters)"


def parse_multiset(text: str, offset: int = 0) -> Multiset:
    """Parse `v^c v^c ...`; offset shifts reported error positions."""
    merged: dict[int, int] = {}
    pos = offset
    for tok in text.split(" "):
        if tok:
            m = _VALID_RUN_RE.fullmatch(tok)
            if m is None:
                _refuse_token(tok, pos)
            value, count = m.groups()
            value = int(value)
            merged[value] = merged.get(value, 0) + (int(count) if count else 1)
        pos += len(tok) + 1
    if not merged:
        raise FormatError("expected a multiset, got nothing", offset)
    return Multiset(tuple(sorted(merged.items(), reverse=True)))


def _refuse_token(tok: str, pos: int) -> None:
    """Raise the error for a token _VALID_RUN_RE refused: every such token
    breaks one of the rules below."""
    m = _RUN_RE.fullmatch(tok)
    if not m:
        raise FormatError(f"expected value^count, got {_quoted(tok)}", pos)
    value = _int(m.group(1), "value")
    count = _int(m.group(2) or "1", "cardinality")
    _check_run(value, count, pos)


def _check_run(value: int, count: int, pos: int = 0) -> None:
    # The text and JSON grammars reject the same runs with the same words.
    if value <= 0:
        raise FormatError(f"value must be positive, got {value}", pos)
    if count <= 0:
        raise FormatError(f"count must be positive, got {count}", pos)


def parse_pair(text: str) -> Pair:
    """Parse `A | B` into a canonical Pair."""
    if "|" not in text:
        raise FormatError("missing '|' between the two multisets", len(text))
    left, _, right = text.partition("|")
    # Only spaces separate, around `|` as between runs, so a tab or newline
    # stays in its token and is reported there.  An empty B is reported at
    # the end of the text.
    b_text = right.lstrip(" ")
    a = parse_multiset(left)
    b = parse_multiset(b_text, offset=len(text) - len(b_text))
    return pair_canonical(a, b)


def format_multiset(ms: Multiset) -> str:
    return " ".join([f"{v}^{c}" if c > 1 else str(v) for v, c in ms.runs])


def format_pair(p: Pair) -> str:
    return f"{format_multiset(p.a)} | {format_multiset(p.b)}"


def pair_to_obj(p: Pair) -> dict[str, list[list[int]]]:
    return {"A": [[v, c] for v, c in p.a.runs], "B": [[v, c] for v, c in p.b.runs]}


# One encoder for every compact JSON line; its encode() gives the text
# json.dumps(obj, separators=(",", ":")) gives, without building an
# encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def compact_json(obj: Any) -> str:
    """`obj` as JSON on one line, with no space after `,` or `:`."""
    return _COMPACT.encode(obj)


def pair_to_json(p: Pair) -> str:
    """The text compact_json(pair_to_obj(p)) gives."""
    a = ",".join([f"[{v},{c}]" for v, c in p.a.runs])
    b = ",".join([f"[{v},{c}]" for v, c in p.b.runs])
    return f'{{"A":[{a}],"B":[{b}]}}'


def pair_from_obj(obj: Any) -> Pair:
    if not isinstance(obj, dict) or set(obj) != {"A", "B"}:
        raise FormatError('expected an object with exactly the keys "A" and "B"')
    sides = []
    for key in ("A", "B"):
        runs = obj[key]
        if not isinstance(runs, list):
            _refuse_runs(key, runs)
        merged: dict[int, int] = {}
        for run in runs:
            if isinstance(run, list) and len(run) == 2:
                value, count = run
                if type(value) is int and type(count) is int and value > 0 and count > 0:
                    merged[value] = merged.get(value, 0) + count
                    continue
            _refuse_runs(key, runs)
        if not merged:
            raise FormatError("expected a multiset, got nothing")
        sides.append(Multiset(tuple(sorted(merged.items(), reverse=True))))
    return pair_canonical(sides[0], sides[1])


def _refuse_runs(key: str, runs: Any) -> None:
    """Raise the error for a side pair_from_obj refused, which breaks one
    of the rules below: the shape of the side and of every run is checked
    before any run's values."""
    if not isinstance(runs, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(type(x) is int for x in r) for r in runs
    ):
        raise FormatError(f'key "{key}" must be a list of [value, count] pairs')
    for value, count in runs:
        _check_run(value, count)


def pair_from_json(text: str) -> Pair:
    try:
        obj = json.loads(text, parse_int=_json_int if _LONG_DIGITS.search(text) else None)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", e.pos) from e
    except RecursionError as e:
        raise FormatError("invalid JSON: nested too deeply") from e
    return pair_from_obj(obj)


def parse_plan(text: str) -> list[tuple[int, int, int]]:
    """Parse `a,b^c;a,b;...` into (a, b, count) steps, count defaulting to 1."""
    steps = []
    start = 0
    for piece in text.split(";"):
        tok = piece.strip()
        # A step is reported at its token, past the whitespace strip() removed.
        pos = start + len(piece) - len(piece.lstrip())
        if not tok:
            raise FormatError("empty plan step", pos)
        m = _STEP_RE.fullmatch(tok)
        if not m:
            raise FormatError(f"expected a,b or a,b^count, got {_quoted(tok)}", pos)
        a, b = _int(m.group(1), "value"), _int(m.group(2), "value")
        count = _int(m.group(3) or "1", "count")
        if a <= 0 or b <= 0:
            raise FormatError("plan values must be positive", pos)
        if count <= 0:
            raise FormatError(f"count must be positive, got {count}", pos)
        steps.append((a, b, count))
        start += len(piece) + 1
    return steps


def parse_chain(text: str) -> list[tuple[int, int]]:
    """Parse `a,b;a,b;...` into ordered (a, b) steps; `^count` is not allowed."""
    chain = []
    start = 0
    for piece in text.split(";"):
        tok = piece.strip()
        # A step is reported at its token, past the whitespace strip() removed.
        pos = start + len(piece) - len(piece.lstrip())
        if not tok:
            raise FormatError("empty chain step", pos)
        m = _STEP_RE.fullmatch(tok)
        if not m or m.group(3):
            raise FormatError(f"expected a,b, got {_quoted(tok)}", pos)
        a, b = _int(m.group(1), "value"), _int(m.group(2), "value")
        if a <= 0 or b <= 0:
            raise FormatError("chain values must be positive", pos)
        chain.append((a, b))
        start += len(piece) + 1
    return chain
