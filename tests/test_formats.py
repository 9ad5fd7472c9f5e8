import pytest
from hypothesis import given

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
from helpers import balanced_pairs, ms, multisets, pair


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
        (parse_pair, "| 5", 0, "expected a multiset, got nothing"),
        # A long token is quoted up to 40 characters of its repr, then cut.
        (parse_pair, "1 | 2 " + "9" * 100 + "x", 6,
         "expected value^count, got '" + "9" * 39 + "... (101 characters)"),
        (parse_chain, "5,2;" + "9" * 100 + ",x", 4,
         "expected a,b, got '" + "9" * 39 + "... (102 characters)"),
    ],
    ids=["plan-zero-value", "plan-zero-count", "plan-bad-step", "chain-empty-step",
         "chain-zero-value", "pair-empty-side", "pair-long-token", "chain-long-token"],
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
