import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zspairs import (
    FormatError,
    format_multiset,
    format_pair,
    pair_from_json,
    pair_to_json,
    parse_chain,
    parse_multiset,
    parse_pair,
    parse_plan,
)
from zspairs.core import MAX_CARDINALITY, MAX_SIGMA, MAX_VALUE, Multiset, pair_canonical
from zspairs.formats import compact_json, pair_from_obj, pair_to_obj
from helpers import (
    balanced_pairs,
    ms,
    multisets,
    pair,
    pair_from_obj_reference,
    parse_multiset_reference,
)


def test_parse_multiset():
    assert parse_multiset("7^3 1^2") == ms(7, 7, 7, 1, 1)
    assert parse_multiset("6^3 5") == ms(6, 6, 6, 5)
    assert parse_multiset("5^1") == ms(5)


def test_parse_accepts_any_order_and_merges():
    assert parse_multiset("1^2 7^3") == ms(7, 7, 7, 1, 1)
    assert parse_multiset("5 5") == ms(5, 5)


def test_parse_pair():
    p = parse_pair("7^3 1^2 | 6^3 5")
    assert p == pair((7, 7, 7, 1, 1), (6, 6, 6, 5))


def test_parse_pair_canonicalizes():
    assert parse_pair("6^3 5 | 7^3 1^2") == parse_pair("7^3 1^2 | 6^3 5")


def test_format_multiset_elides_unit_counts():
    assert format_multiset(ms(2, 1, 1, 1, 1)) == "2 1^4"
    assert format_multiset(ms(6)) == "6"


def test_format_pair():
    assert format_pair(pair((3, 3), (2, 2, 2))) == "3^2 | 2^3"


@pytest.mark.parametrize(
    "text,column",
    [
        ("7^x 1 | 2", 0),
        ("7 1 | 2 zap", 8),
        ("0^2 | 1", 0),
        ("7^0 | 7", 0),
        ("7 1", 3),  # missing separator, reported at end
        ("1 | 1\n", 4),  # a newline is not part of a token
        ("1\n 2 | 3", 0),
        # Only spaces separate, next to `|` as between runs.
        ("1\t| 1", 0),
        ("1\n| 1", 0),
        ("1 |\t1", 3),
        ("\t1 | 1", 0),
    ],
)
def test_parse_errors_carry_positions(text, column):
    with pytest.raises(FormatError) as exc:
        parse_pair(text)
    assert exc.value.position == column


def test_json_round_trip():
    p = pair((7, 7, 7, 1, 1), (6, 6, 6, 5))
    text = pair_to_json(p)
    assert text == '{"A":[[7,3],[1,2]],"B":[[6,3],[5,1]]}'
    assert pair_from_json(text) == p


def test_json_rejects_bad_shapes():
    # Runs the text grammar rejects are rejected with its messages.
    for text, message in (
        ('{"A":[[7,3]]}', None),
        ('{"A":[[7,3]],"B":[[6]]}', None),
        ("[1,2]", None),
        ("not json", None),
        ('{"A":[[true,1]],"B":[[1,1]]}', None),  # bool is an int subclass in Python
        ('{"A":[[1,1]],"B":[[1,true]]}', None),
        ('{"A":[[5,0],[1,1]],"B":[[1,1]]}', "count must be positive, got 0"),
        ('{"A":[[1,1]],"B":[[1,-2]]}', "count must be positive, got -2"),
        ('{"A":[[-5,1]],"B":[[1,1]]}', "value must be positive, got -5"),
        ('{"A":[[1,1]],"B":[[0,1]]}', "value must be positive, got 0"),
        ('{"A":[],"B":[[1,1]]}', "expected a multiset, got nothing"),
        # Ints of more than MAX_DIGITS digits, past int()'s own limit or not.
        ('{"A":[[%s,1]],"B":[[1,1]]}' % ("9" * 5000), "a number has too many digits"),
        ('{"A":[[%s,1]],"B":[[1,1]]}' % ("9" * 4000), "a number has too many digits"),
        ('{"A":[[1,1]],"B":[[1,-%s]]}' % ("9" * 21), "a number has too many digits"),
        # Nested past the interpreter's recursion limit.
        ("[" * 100_000, "nested too deeply"),
    ):
        with pytest.raises(FormatError, match=message):
            pair_from_json(text)


def test_parse_plan():
    assert parse_plan("7,6^2;7,5") == [(7, 6, 2), (7, 5, 1)]
    assert parse_plan("5,2^1") == [(5, 2, 1)]


def test_parse_chain():
    assert parse_chain("5,2;3,2") == [(5, 2), (3, 2)]
    with pytest.raises(FormatError):
        parse_chain("5,2^2")  # counts belong to plans, not chains
    with pytest.raises(FormatError):
        parse_plan("7,6^2;;7,5")


@pytest.mark.parametrize(
    "parse,text,column,message",
    [
        (parse_plan, "0,2", 0, "plan values must be positive"),
        (parse_plan, "5,2^0", 0, "count must be positive, got 0"),
        (parse_plan, "5,2;5,x", 4, "expected a,b or a,b^count, got '5,x'"),
        (parse_chain, "5,2;;3,2", 4, "empty chain step"),
        (parse_chain, "5,2;0,1", 4, "chain values must be positive"),
        # A step is reported at its token, not at the spaces before it.
        (parse_plan, "7,6;  x", 6, "expected a,b or a,b^count, got 'x'"),
        (parse_chain, "5,2; 0,1", 5, "chain values must be positive"),
        (parse_pair, "| 5", 0, "expected a multiset, got nothing"),
        # A long token is quoted up to 40 characters of its repr, then cut.
        (parse_pair, "1 | 2 " + "9" * 100 + "x", 6,
         "expected value^count, got '" + "9" * 39 + "... (101 characters)"),
        (parse_chain, "5,2;" + "9" * 100 + ",x", 4,
         "expected a,b, got '" + "9" * 39 + "... (102 characters)"),
    ],
    ids=["plan-zero-value", "plan-zero-count", "plan-bad-step", "chain-empty-step",
         "chain-zero-value", "plan-spaced-step", "chain-spaced-step", "pair-empty-side",
         "pair-long-token", "chain-long-token"],
)
def test_plan_chain_and_pair_errors(parse, text, column, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.position == column
    assert str(exc.value) == f"at column {column}: {message}"


@given(multisets)
def test_text_round_trip_multiset(m):
    assert parse_multiset(format_multiset(m)) == m


@given(balanced_pairs())
def test_text_round_trip_pair(p):
    assert parse_pair(format_pair(p)) == p


@given(balanced_pairs())
def test_json_round_trip_pair(p):
    assert pair_from_json(pair_to_json(p)) == p


def _outcome(parse, *args):
    """What a reader gives: its value, or its exception's type, text and
    column."""
    try:
        return "ok", parse(*args)
    except ValueError as e:
        return "error", type(e), str(e), getattr(e, "position", None)


def _weighted(*choices):
    """One of the strategies, each drawn with its weight: one_of draws
    its branches evenly and counts a repeated branch once."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(
        lambda s: s
    )


# Numerals around every limit a run meets: zero, MAX_VALUE, MAX_CARDINALITY,
# and 20 and 21 significant digits, with and without leading zeros.
_small = st.integers(1, 12)
_limits = st.sampled_from([0, MAX_VALUE, MAX_VALUE + 1, MAX_CARDINALITY + 1, 3000])
_numerals = st.builds(
    lambda zeros, n: "0" * zeros + str(n),
    st.sampled_from([0, 0, 0, 1, 2]),
    _weighted(
        (12, _small),
        (1, _limits),
        (1, st.sampled_from([10**19, 10**20 - 1, 10**20, 10**21 - 1])),
        (1, st.integers(0, 10**21)),
    ),
)
_marks = st.sampled_from([""] * 8 + ["^"] * 8 + ["x", "\t", "\n", "^^"])
_tokens = st.builds(
    lambda value, mark, count: value + mark + (count if mark == "^" else ""),
    _numerals, _marks, _numerals,
)
# An empty separator glues two tokens into one.
_run_texts = st.lists(
    st.tuples(st.sampled_from([" "] * 6 + ["  ", ""]), _tokens), max_size=6
).map(lambda parts: "".join(sep + tok for sep, tok in parts))


@settings(max_examples=500)
@given(_run_texts, st.integers(0, 5))
def test_parse_multiset_matches_the_token_loop(text, offset):
    got = _outcome(parse_multiset, text, offset)
    assert got == _outcome(parse_multiset_reference, text, offset)


_json_ints = _weighted((8, _small), (2, st.integers(-3, 12)), (2, _limits))
# Not ints to JSON's reader: bool is an int subclass in Python.
_json_non_ints = st.sampled_from([True, False, True, 1.0, 2.5, None, "7"])
_json_scalars = st.sampled_from([5, 0, -1, True, 1.5, None, "7"])
_json_runs = _weighted(
    (12, st.lists(_json_ints, min_size=2, max_size=2)),
    # Often two faulty runs in one side: the first is the one reported.
    (4, st.lists(st.integers(-2, 3), min_size=2, max_size=2)),
    (3, st.lists(_json_non_ints | _json_ints, min_size=2, max_size=2)),
    (1, st.lists(_json_ints, max_size=3)),
    (1, st.tuples(_json_ints, _json_ints)),
    (1, _json_scalars),
)
# Values from 1 to 12 over up to five runs: duplicate values are common.
_json_sides = _weighted(
    (20, st.lists(_json_runs, max_size=5)),
    (1, _json_scalars),
    (1, st.dictionaries(st.sampled_from("AB"), _json_scalars, max_size=1)),
)
_json_objects = st.fixed_dictionaries({"A": _json_sides, "B": _json_sides})


@settings(max_examples=500)
@given(_json_objects)
def test_pair_from_obj_matches_the_check_passes(obj):
    assert _outcome(pair_from_obj, obj) == _outcome(pair_from_obj_reference, obj)


@given(balanced_pairs(), st.floats(allow_nan=True))
def test_compact_json_is_json_dumps(p, wall_time):
    obj = {"pair": pair_to_obj(p), "wall_time": wall_time, "name": "é\n"}
    assert compact_json(obj) == json.dumps(obj, separators=(",", ":"))


@st.composite
def _wide_multisets(draw) -> Multiset:
    """1 to 60 runs, values up to MAX_VALUE, counts up to MAX_CARDINALITY:
    each run leaves room under the cardinality and sum limits for every
    run after it."""
    values = sorted(
        draw(st.lists(st.integers(1, MAX_VALUE), min_size=1, max_size=60, unique=True)),
        reverse=True,
    )
    runs, card, total = [], 0, 0
    for i, v in enumerate(values):
        left = len(values) - i
        room = min((MAX_CARDINALITY - card) // left, (MAX_SIGMA - total) // (v * left))
        count = draw(st.integers(1, room))
        runs.append((v, count))
        card += count
        total += v * count
    return Multiset(tuple(runs))


@given(_wide_multisets(), _wide_multisets())
def test_pair_to_json_writes_what_the_encoder_writes(x, y):
    p = pair_canonical(x, y)
    assert pair_to_json(p) == compact_json(pair_to_obj(p))
