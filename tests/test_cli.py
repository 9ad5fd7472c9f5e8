import argparse
import contextlib
import io
import json
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zspairs
from zspairs import (
    format_multiset,
    format_pair,
    is_irreducible,
    pair_canonical,
    parse_pair,
    reducibility_witness,
)
from zspairs.cache import CACHE_DIR_ENV
from zspairs.cli import build_parser, main
from zspairs.core import MAX_CARDINALITY, MAX_SIGMA, MAX_VALUE
from zspairs.enumeration import _MODES, MAX_BRUTE_CAP, MAX_K
from helpers import balanced_pairs, multisets, pair


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_irreducible_pair(self, capsys):
        code, out, _ = run(capsys, "check", "7^3 1^2 | 6^3 5")
        assert code == 0
        assert "irreducible: true" in out
        assert "k-threshold: 7" in out

    def test_reducible_pair_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "2^2 | 1^4")
        assert code == 1
        assert "irreducible: false" in out
        assert "witness: 2 | 1^2" in out

    def test_smallest_pair(self, capsys):
        code, out, _ = run(capsys, "check", "1 | 1")
        assert code == 0
        assert "irreducible: true" in out

    def test_unbalanced_pair(self, capsys):
        code, out, _ = run(capsys, "check", "2 1 | 2")
        assert code == 1
        assert "irreducible: false" in out
        assert "unbalanced: sum 3 != 2" in out
        assert "witness" not in out

    def test_reducible_pair_near_max_sigma(self, capsys):
        # Sigma 2,000,000,001: the smallest shared sum is 1, so neither the
        # check nor the witness folds anywhere near sigma bits.
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "1000000^2000 1 | 999999^2000 1^2001")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == "irreducible: false\nk-threshold: 1000000\nwitness: 1 | 1\n"
        assert err == ""

    def test_single_run_pair_near_max_sigma(self, capsys):
        # Sigma 2,147,441,940: A is a single run, so the verdict is whether
        # B less one copy has a nonempty zero-sum mod 46341.
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "46341^46340 | 46340^46341")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "irreducible: true\nk-threshold: 46341\n", "")

    def test_single_run_against_many_runs(self, capsys):
        # 1000^499501 | {1000 j + 1 : j < 1000}: every proper subset of B has
        # a nonzero residue mod 1000, so the pair is irreducible.
        b = " ".join(str(1000 * j + 1) for j in range(999, -1, -1))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", f"1000^499501 | {b}")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "irreducible: true\nk-threshold: 999001\n", "")

    def test_fold_over_budget_fails_fast(self, capsys):
        # Two runs a side, gcd 1, sigma 1,907,452,215, and no shared sum
        # below 2^24: the search would next fold at 2^28 bits.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "check", "853959^1192 782351^1137 | 916918^525 539157^2645"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: no shared sum below 16777216")
        assert err.count("\n") == 1

    def test_witness_search_over_budget_prints_no_verdict(self, capsys):
        # A is a single run, so the residue test finds the pair reducible,
        # but the witness search finds no shared sum below 2^24 and would
        # next fold at 2^28 bits: the check fails before printing anything.
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "691615^1020 | 604316^150 927300^663")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: no shared sum below 16777216")
        assert err.count("\n") == 1

    @given(st.one_of(balanced_pairs(), st.builds(pair_canonical, multisets, multisets)))
    def test_verdict_and_witness_match_the_library(self, p):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", format_pair(p)])
        irreducible = is_irreducible(p)
        witness = reducibility_witness(p)
        assert code == (0 if irreducible else 1)
        lines = out.getvalue().splitlines()
        assert lines[:2] == [
            f"irreducible: {'true' if irreducible else 'false'}",
            f"k-threshold: {p.max_element}",
        ]
        if witness is None:
            assert lines[2:] == ([] if p.balanced else [
                f"unbalanced: sum {p.a.sigma} != {p.b.sigma}"
            ])
        else:
            assert lines[2:] == [
                f"witness: {format_multiset(witness.a_sub)} | "
                f"{format_multiset(witness.b_sub)}"
            ]

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "2^x | 1")
        assert code == 2
        assert "parse error" in err
        assert "column 0" in err

    def test_trailing_newline_rejected(self, capsys):
        code, out, err = run(capsys, "check", "1 | 1\n")
        assert code == 2
        assert out == ""
        assert "column 4" in err

    def test_non_ascii_digits_rejected(self, capsys):
        # U+0661 ARABIC-INDIC DIGIT ONE: int() reads it, the grammar must not.
        code, out, err = run(capsys, "check", "\u0661 | 1")
        assert code == 2
        assert out == ""
        assert "parse error" in err


class TestDerive:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "derive", "7^3 1^2 | 6^3 5", "--product", "7,6^2;7,5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "6 | 2 1^4"
        assert lines[1] == "irreducible: true"

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "derive", "5^2 | 2^5", "--chain", "5,2;3,2")
        assert code == 0
        assert out.splitlines()[0] == "5 1 | 2^3"

    def test_chain_in_reverse_order_fails(self, capsys):
        code, _, err = run(capsys, "derive", "5^2 | 2^5", "--chain", "3,2;5,2")
        assert code == 1
        assert "step 0" in err

    @pytest.mark.parametrize("flag", ["--chain", "--product"])
    def test_result_too_large_to_decide_prints_nothing(self, capsys, flag):
        # The derived pair has no shared sum below 2^24 and would next fold
        # past the budget: the run fails before the pair is printed.
        pair_text = "948490^1016 397863 | 762380^778 655357^566 1"
        code, out, err = run(capsys, "derive", pair_text, flag, "397863,1")
        assert (code, out) == (1, "")
        assert err.startswith("error: no shared sum below 16777216")
        assert err.count("\n") == 1

    def test_infeasible_product(self, capsys):
        code, _, err = run(capsys, "derive", "5^2 | 2^5", "--product", "5,2^3")
        assert code == 1
        assert "consumes" in err

    def test_requires_exactly_one_flag(self, capsys):
        code, _, _ = run(capsys, "derive", "5^2 | 2^5")
        assert code == 2


_NINES = "9" * 5000  # more digits than int() converts by default
# Each over MAX_DIGITS significant digits, with its count: past the
# conversion limit, short of it, and padded with zeros that do not count.
_OVER_LONG = [(_NINES, 5000), ("9" * 4000, 4000), ("0" * 5000 + "9" * 21, 21)]


@pytest.mark.parametrize(
    "argv,what",
    [
        (("check", "{} | 1"), "value"),
        (("check", "1^{} | 1"), "cardinality"),
        (("derive", "3 | 2 1", "--chain", "{},6"), "value"),
        (("derive", "3 | 2 1", "--product", "3,2^{}"), "count"),
    ],
    ids=["text-value", "text-count", "chain-number", "plan-count"],
)
def test_numeral_past_the_conversion_limit_is_over_the_limit(capsys, argv, what):
    # Refused as any other over-limit number is, on one short line.
    for numeral, digits in _OVER_LONG:
        expected = (1, "", f"error: {what} of {digits} digits exceeds 1000000\n")
        assert run(capsys, *(a.format(numeral) for a in argv)) == expected


@pytest.mark.parametrize("option", ["k", "--sum-cap", "--workers", "--min-len", "--max-len"])
def test_survey_numeral_past_the_conversion_limit_is_a_usage_error(capsys, option):
    # Told by its digit count, not echoed.
    for numeral, digits in _OVER_LONG:
        argv = ("ell", numeral) if option == "k" else ("enumerate", "3", option, numeral)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f": error: argument {option}: invalid int value: a numeral of {digits} digits is too long"
        )
        assert len(err) < 500


def test_survey_numeral_leading_zeros_do_not_count(capsys):
    # The text grammars' rule: a padded 3 is the numeral 3.
    assert run(capsys, "enumerate", "0" * 5000 + "3") == run(capsys, "enumerate", "3")


def test_numeral_rule_does_not_rest_on_the_interpreter_digit_limit():
    # With int()'s own digit limit lifted, a long numeral is still refused
    # by its count of significant digits.
    src = Path(zspairs.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "zspairs.cli", "check", f"{_NINES} | 1"],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "0"},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: value of 5000 digits exceeds 1000000\n"


@pytest.mark.parametrize("text", ["x", "\u0663", "1_2", "+3", " 3", "3\n"])
def test_survey_numerals_are_ascii_digits(capsys, text):
    # The text grammars' numerals: int() would read all but "x".
    code, out, err = run(capsys, "ell", text, "--no-cache")
    assert (code, out) == (2, "")
    assert err.endswith(f"\nzspairs ell: error: argument k: invalid int value: {text!r}\n")


_LONG = "b" * 100_000
_LONG_QUOTED = f"'{'b' * 39}... (100000 characters)"


@pytest.mark.parametrize(
    "argv,line",
    [
        (("ell", "3", "--mode", _LONG), "zspairs ell: error: argument --mode: invalid choice: "
         f"{_LONG_QUOTED} (choose from 'brute', 'pruned')"),
        ((_LONG,), f"zspairs: error: argument command: invalid choice: {_LONG_QUOTED} "
         "(choose from 'check', 'derive', 'ell', 'enumerate', 'extremal', 'selftest')"),
        (("enumerate", "3", "--format", _LONG), "zspairs enumerate: error: argument --format: "
         f"invalid choice: {_LONG_QUOTED} (choose from 'json', 'csv', 'plain')"),
        (("check", "1 | 1", _LONG),
         f"zspairs: error: unrecognized arguments: {'b' * 40}... (100000 characters)"),
        (("ell", "3", f"--no-cache={_LONG}"),
         f"zspairs ell: error: argument --no-cache: ignored explicit argument {_LONG_QUOTED}"),
        (("enumerate", "3", f"--m={_LONG}"), "zspairs enumerate: error: ambiguous option: "
         f"--m={'b' * 36}... (100004 characters) could match --mode, --min-len, --max-len"),
        # Short values are echoed whole, as argparse words them.
        (("ell", "3", "--mode", "bb"),
         "zspairs ell: error: argument --mode: invalid choice: 'bb' (choose from 'brute', 'pruned')"),
        (("check", "1 | 1", "x", "y"), "zspairs: error: unrecognized arguments: x y"),
        (("ell", "3", "--no-cache=it's"),
         "zspairs ell: error: argument --no-cache: ignored explicit argument \"it's\""),
        (("enumerate", "3", "--m=x"),
         "zspairs enumerate: error: ambiguous option: --m=x could match --mode, --min-len, --max-len"),
    ],
    ids=[
        "long-mode", "long-command", "long-format", "long-extra", "long-explicit", "long-ambiguous",
        "short-mode", "short-extra", "short-explicit", "short-ambiguous",
    ],
)
def test_usage_error_quotes_at_most_40_characters_of_a_value(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"\n{line}\n")


def _strayed(texts):
    """The texts, and the texts with stray characters put in anywhere."""
    def put(t):
        text, stray, at = t
        at %= len(text) + 1
        return text[:at] + stray + text[at:]

    return st.one_of(texts, st.tuples(texts, st.text(min_size=1, max_size=3), st.integers(0)).map(put))


# Numerals near each limit, of 20 and 4,300 digits, and padded with zeros.
_limit_numerals = st.one_of(
    st.sampled_from([MAX_VALUE, MAX_CARDINALITY, MAX_SIGMA]).flatmap(
        lambda n: st.integers(n - 2, n + 2)
    ).map(str),
    st.integers(1, 40).map(str),
    st.sampled_from(["9" * 20, "1" + "0" * 19, "9" * 4300]),
)
_numerals = st.one_of(
    _limit_numerals,
    st.tuples(st.integers(1, 30), _limit_numerals).map(lambda t: "0" * t[0] + t[1]),
)
_counts = st.one_of(st.just(""), _numerals.map("^".__add__))
_sides = st.lists(st.tuples(_numerals, _counts).map("".join), min_size=1, max_size=3).map(" ".join)
_pair_texts = _strayed(st.tuples(_sides, _sides).map(" | ".join))
_step_texts = _strayed(
    st.lists(
        st.tuples(_numerals, st.just(","), _numerals, _counts).map("".join), min_size=1, max_size=3
    ).map(";".join)
)
_json_sides = st.lists(
    st.tuples(_limit_numerals, _limit_numerals).map(",".join).map("[{}]".format), min_size=1, max_size=3
).map(",".join)
_json_texts = _strayed(st.tuples(_json_sides, _json_sides).map(lambda t: '{"A":[%s],"B":[%s]}' % t))


def _one_short_line(err: str) -> None:
    assert "Traceback" not in err
    assert err.count("\n") <= 1 and len(err.encode("utf-8", "backslashreplace")) <= 300


@settings(deadline=None)
@given(st.sampled_from(["check", "--product", "--chain"]), _pair_texts, _step_texts)
def test_any_pair_or_step_text_ends_on_one_short_line(command, pair_text, steps):
    # The pair comes after `--`, so a leading `-` stays text.
    argv = ["check"] if command == "check" else ["derive", f"{command}={steps}"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--", pair_text])
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    _one_short_line(err.getvalue())


@settings(deadline=None)
@given(_json_texts)
def test_any_json_pair_text_ends_on_one_short_line(text):
    start = time.perf_counter()
    try:
        zspairs.pair_from_json(text)
    except ValueError as e:  # FormatError and every limit error
        _one_short_line(f"{e}\n")
    assert time.perf_counter() - start < 2


# Survey arguments from three pools: valid values, values at a limit, and
# junk text, some of it a short text repeated to 100,000 characters and
# more, some of it led by an option's prefix.
_junk = st.one_of(
    st.text(max_size=20),
    st.tuples(
        st.sampled_from(["", "-", "--", "-h", "--m=", "--no-cache="]),
        st.text(min_size=1, max_size=3),
        st.integers(1, 40_000),
    ).map(lambda t: t[0] + t[1] * t[2]),
)
_edges = st.sampled_from(["0", "-1", "9" * 20, "1" + "0" * 20, str(MAX_K + 1)])
_survey_values = {
    "k": st.integers(1, MAX_K).map(str),
    "--mode": st.sampled_from(_MODES),
    # Mostly below 1,000, so the property stays cheap; the limit is an edge.
    "--sum-cap": st.integers(1, 1000).map(str) | st.just(str(MAX_BRUTE_CAP)),
    "--min-len": st.integers(1, 25).map(str),
    "--max-len": st.integers(0, 25).map(str),
    "--format": st.sampled_from(["plain", "json", "csv"]),
    "--workers": st.sampled_from(["1", "2"]),
}
_survey_options = {
    "ell": ["--mode", "--sum-cap", "--workers"],
    "enumerate": ["--mode", "--sum-cap", "--min-len", "--max-len", "--format", "--workers"],
    "extremal": ["--mode", "--sum-cap", "--format"],
}


def _pooled(valid):
    # Four in six from the valid pool, so that most surveys run.
    return st.sampled_from([valid] * 4 + [_edges, _junk]).flatmap(lambda pool: pool)


@st.composite
def _survey_argvs(draw):
    command = draw(st.sampled_from(list(_survey_options)))
    argv = [command, draw(_pooled(_survey_values["k"]))]
    for option in _survey_options[command]:
        if draw(st.booleans()):
            argv += [option, draw(_pooled(_survey_values[option]))]
    if command == "ell":
        argv.append("--no-cache")
    extra = draw(_pooled(st.none()))
    return argv if extra is None else argv + [extra]


@settings(deadline=None)
@given(_survey_argvs())
@example(["ell", "3", "--mode", _LONG, "--no-cache"])
# Echoes argparse prints as typed, with a newline and a terminal escape.
@example(["check", "1 | 1", "a\nb\x1b[2J"])
@example(["enumerate", "3", "--m=a\nb"])
def test_any_survey_arguments_end_on_a_short_line(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines() or [""]
    assert all(line.isprintable() for line in lines)
    if code == 2:
        errors = [i for i, line in enumerate(lines) if re.match(r"zspairs( \w+)?: error: ", line)]
        assert errors == [len(lines) - 1]
    assert len(lines[-1].encode("utf-8", "backslashreplace")) <= 300


class TestEll:
    def test_k3_brute(self, capsys):
        code, out, _ = run(capsys, "ell", "3", "--mode", "brute", "--no-cache")
        assert code == 0
        report = json.loads(out)
        assert report["ell"] == 5
        assert report["witnesses"] == [{"A": [[3, 2]], "B": [[2, 3]]}]
        assert report["mode"] == "brute"
        assert report["sum_cap"] == 9

    def test_k2(self, capsys):
        code, out, _ = run(capsys, "ell", "2", "--no-cache")
        assert json.loads(out)["ell"] == 3 and code == 0

    def test_k1(self, capsys):
        code, out, _ = run(capsys, "ell", "1", "--sum-cap", "4", "--no-cache")
        assert json.loads(out)["ell"] == 2 and code == 0

    def test_resource_limit(self, capsys):
        for mode in ("brute", "pruned"):
            code, _, err = run(capsys, "ell", "13", "--mode", mode, "--no-cache")
            assert code == 1
            assert err == "error: k=13 exceeds the survey limit of 12\n"

    def test_cache_round_trip(self, capsys, isolated_cache):
        code1, out1, err1 = run(capsys, "ell", "3")
        assert code1 == 0
        assert "cache: stored" in err1
        assert list(isolated_cache.glob("*.json"))
        code2, out2, err2 = run(capsys, "ell", "3")
        assert code2 == 0
        assert "cache: hit" in err2
        assert out2 == out1  # byte-identical report

    def test_cache_hit_names_its_provenance(self, capsys, isolated_cache):
        _, out1, _ = run(capsys, "ell", "3")
        data = json.loads(next(isolated_cache.glob("*.json")).read_text())
        code, out2, err = run(capsys, "ell", "3")
        assert code == 0
        assert out2 == out1
        path = next(isolated_cache.glob("*.json"))
        assert err == (
            f"cache: hit {path} created_at={data['created_at']}"
            f" version={data['tool_version']}"
            f" wall_time={json.loads(out1)['wall_time']}\n"
        )

    def test_cache_entry_without_a_key_field_is_a_hit(self, capsys, isolated_cache):
        # The file name finds the entry and the report's own fields are
        # checked, so the entry restates no key.
        _, out1, _ = run(capsys, "ell", "3")
        entry = next(isolated_cache.glob("*.json"))
        stored = json.loads(entry.read_text())
        entry.write_text(json.dumps({f: v for f, v in stored.items() if f != "key"}))
        code, out2, err = run(capsys, "ell", "3")
        assert (code, out2) == (0, out1)
        assert err.startswith("cache: hit ")
        assert list(stored) == ["tool_version", "created_at", "report"]

    def test_cache_entry_with_a_key_field_is_still_a_hit(self, capsys, isolated_cache):
        # An entry as earlier versions wrote it, with the key restated.
        report = {
            "k": 3, "ell": 5, "witnesses": [{"A": [[3, 2]], "B": [[2, 3]]}],
            "pairs_scanned": 232, "irreducible_count": 8, "mode": "brute", "sum_cap": 9,
            "wall_time": 7.595300121465698e-05,
        }
        entry = {
            "key": {"k": 3, "mode": "brute", "sum_cap": 9},
            "tool_version": zspairs.__version__,
            "created_at": "2026-10-20T10:04:58.440747+00:00",
            "report": report,
        }
        isolated_cache.mkdir()
        (isolated_cache / "ell-k3-brute-cap9.json").write_text(json.dumps(entry, indent=2))
        code, out, err = run(capsys, "ell", "3")
        assert (code, out) == (0, json.dumps(report, separators=(",", ":")) + "\n")
        assert err.startswith("cache: hit ") and "created_at=2026-10-20T10:04:58" in err

    def test_fresh_and_cached_reports_match_the_pinned_stdout(self, capsys, isolated_cache):
        # Witnesses at sums 4, 6, 6 and 8: the order across sums and
        # within one sum, printed the same from a survey and from a hit.
        code1, fresh, _ = run(capsys, "ell", "4", "--sum-cap", "8")
        code2, hit, err = run(capsys, "ell", "4", "--sum-cap", "8")
        assert (code1, code2) == (0, 0)
        assert hit == fresh
        assert re.sub(r'"wall_time":[^,}]*', '"wall_time":0', fresh) == (
            '{"k":4,"ell":5,"witnesses":[{"A":[[4,1]],"B":[[1,4]]},'
            '{"A":[[4,1],[1,2]],"B":[[3,2]]},{"A":[[3,2]],"B":[[2,3]]},'
            '{"A":[[4,2]],"B":[[3,2],[2,1]]}],"pairs_scanned":277,'
            '"irreducible_count":17,"mode":"brute","sum_cap":8,"wall_time":0}\n'
        )
        created_at = json.loads(next(isolated_cache.glob("*.json")).read_text())["created_at"]
        assert err.startswith("cache: hit ") and f" created_at={created_at} " in err

    def test_cache_versioning(self, capsys, isolated_cache):
        run(capsys, "ell", "2")
        entry = next(isolated_cache.glob("*.json"))
        data = json.loads(entry.read_text())
        data["tool_version"] = "0.0.0-stale"
        entry.write_text(json.dumps(data))
        _, _, err = run(capsys, "ell", "2")
        assert "cache: stored" in err  # recomputed, not served stale

    def test_cache_write_failure_is_a_warning(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv(CACHE_DIR_ENV, str(blocker / "cache"))
        code, out, err = run(capsys, "ell", "3")
        assert code == 0
        _, expected, _ = run(capsys, "ell", "3", "--no-cache")
        assert json.loads(out) | {"wall_time": 0} == json.loads(expected) | {"wall_time": 0}
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cache: not stored (")

    def test_no_home_directory_is_an_unavailable_cache(self, capsys, monkeypatch):
        # No HOME and a uid with no passwd entry: Path.home() raises.
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", no_home)
        code, out, err = run(capsys, "ell", "3")
        assert code == 0
        _, expected, _ = run(capsys, "ell", "3", "--no-cache")
        assert json.loads(out) | {"wall_time": 0} == json.loads(expected) | {"wall_time": 0}
        assert err == "cache: not stored (no cache directory: Could not determine home directory.)\n"

    def test_workers_below_one(self, capsys):
        code, out, err = run(capsys, "ell", "3", "--no-cache", "--workers", "0")
        assert code == 1
        assert out == ""
        assert err == "error: workers must be at least 1, got 0\n"

    def test_workers_below_one_on_a_cache_hit(self, capsys, isolated_cache):
        # The count is refused before the cache is read, so a stored
        # entry does not turn the refusal into a report.
        run(capsys, "ell", "3")
        assert list(isolated_cache.glob("*.json"))
        for bad in ("0", "-3"):
            code, out, err = run(capsys, "ell", "3", "--workers", bad)
            assert (code, out, err) == (
                1,
                "",
                f"error: workers must be at least 1, got {bad}\n",
            )

    def test_two_workers_print_the_serial_report(self, capsys):
        argv = ("ell", "7", "--mode", "pruned", "--no-cache")
        code1, out1, err1 = run(capsys, *argv, "--workers", "1")
        code2, out2, err2 = run(capsys, *argv, "--workers", "2")
        assert (code2, err2) == (code1, err1) == (0, "cache: off\n")
        assert json.loads(out2) | {"wall_time": 0} == json.loads(out1) | {"wall_time": 0}

    @pytest.mark.parametrize(
        "content",
        [b"[]", b"\xff\xfe{bad", b"[" * 200_000 + b"]" * 200_000,
         b'"x"', b"3", b"null", b"{}"],
        ids=["list", "not-utf8", "deep-nesting", "string", "number", "null", "empty-object"],
    )
    def test_corrupt_cache_entry_is_a_miss(self, capsys, isolated_cache, content):
        _, expected, _ = run(capsys, "ell", "2")
        entry = next(isolated_cache.glob("*.json"))
        entry.write_bytes(content)
        code, out, err = run(capsys, "ell", "2")
        assert code == 0
        assert json.loads(out) | {"wall_time": 0} == json.loads(expected) | {"wall_time": 0}
        assert "cache: stored" in err
        assert json.loads(entry.read_text())["report"] == json.loads(out)

    @pytest.mark.parametrize(
        "edit",
        [
            # An inflated ell with no witness to show for it.
            lambda r: r | {"ell": 99, "witnesses": []},
            # A witness of the right length and range that is reducible.
            lambda r: r | {"witnesses": [{"A": [[3, 1], [1, 1]], "B": [[2, 1], [1, 2]]}]},
            # A report computed under another key.
            lambda r: r | {"sum_cap": 4},
            lambda r: r | {"k": 4},
            lambda r: r | {"mode": "pruned"},
            lambda r: r | {"ell": 5.0},
            lambda r: r | {"witnesses": [{"A": [[3, 0]], "B": [[2, 3]]}]},
            lambda r: r | {"pairs_scanned": "x"},
            lambda r: {key: v for key, v in r.items() if key != "wall_time"},
            lambda r: r | {"ell": -1, "witnesses": []},
            # Reports that hold up but print other than a survey's.
            lambda r: r | {"k": 3.0},
            lambda r: r | {"sum_cap": 9.0},
            lambda r: r | {"witnesses": [{"A": [[2, 3]], "B": [[3, 2]]}]},
            lambda r: r | {"witnesses": [{"A": [[3, 1], [3, 1]], "B": [[2, 3]]}]},
            lambda r: dict(reversed(r.items())),
            lambda r: r | {"witnesses": r["witnesses"] * 2},
            lambda r: r | {"wall_time": -1.0},
            lambda r: r | {"wall_time": float("inf")},
        ],
        ids=[
            "inflated-ell",
            "reducible-witness",
            "sum-cap-mismatch",
            "k-mismatch",
            "mode-mismatch",
            "float-ell",
            "bad-witness",
            "bad-count",
            "missing-field",
            "negative-ell",
            "float-k",
            "float-sum-cap",
            "swapped-sides",
            "split-run",
            "reordered-keys",
            "duplicate-witness",
            "negative-wall-time",
            "infinite-wall-time",
        ],
    )
    def test_cache_entry_that_fails_reverification_is_a_miss(
        self, capsys, isolated_cache, edit
    ):
        _, expected, _ = run(capsys, "ell", "3")
        entry = next(isolated_cache.glob("*.json"))
        data = json.loads(entry.read_text())
        data["report"] = edit(data["report"])
        entry.write_text(json.dumps(data))
        code, out, err = run(capsys, "ell", "3")
        assert code == 0
        assert json.loads(out) | {"wall_time": 0} == json.loads(expected) | {"wall_time": 0}
        assert err.startswith("cache: stored")
        assert json.loads(entry.read_text())["report"] == json.loads(out)

    @pytest.mark.parametrize(
        "cap,edit",
        [
            ("4", lambda e: e | {"report": e["report"] | {
                "witnesses": e["report"]["witnesses"][::-1]}}),
            ("9", lambda e: e | {"created_at": 0}),
            ("9", lambda e: {key: v for key, v in e.items() if key != "created_at"}),
            ("9", lambda e: {key: v for key, v in e.items() if key != "tool_version"}),
            ("9", lambda e: e | {"tool_version": 0}),
            ("9", lambda e: {key: v for key, v in e.items() if key != "report"}),
            ("9", lambda e: e | {"report": []}),
            ("9", lambda e: e | {"report": "report"}),
            ("9", lambda e: e | {"report": e["report"] | {"witnesses": {}}}),
        ],
        ids=[
            "reordered-witnesses",
            "non-string-created-at",
            "missing-created-at",
            "missing-tool-version",
            "numeric-tool-version",
            "missing-report",
            "list-report",
            "string-report",
            "object-witnesses",
        ],
    )
    def test_cache_entry_edit_is_a_miss(self, capsys, isolated_cache, cap, edit):
        # Edits to the whole entry; at cap 4 `ell 3` has two witnesses.
        _, expected, _ = run(capsys, "ell", "3", "--sum-cap", cap)
        entry = next(isolated_cache.glob("*.json"))
        entry.write_text(json.dumps(edit(json.loads(entry.read_text()))))
        code, out, err = run(capsys, "ell", "3", "--sum-cap", cap)
        assert code == 0
        assert json.loads(out) | {"wall_time": 0} == json.loads(expected) | {"wall_time": 0}
        assert err.startswith("cache: stored")
        stored = json.loads(entry.read_text())
        assert stored["report"] == json.loads(out) and isinstance(stored["created_at"], str)

    def test_sum_cap_over_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "ell", "6", "--sum-cap", "100001", "--no-cache")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: sum cap 100001 is too large for brute mode")

    @pytest.mark.parametrize("command", ["enumerate", "extremal"])
    def test_sum_cap_over_budget_prints_no_header(self, capsys, command):
        code, out, err = run(capsys, command, "6", "--sum-cap", "100001", "--format", "csv")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: sum cap 100001 ")

    def test_brute_cap_past_k_squared_runs(self, capsys):
        code, out, _ = run(capsys, "ell", "6", "--sum-cap", "100", "--no-cache")
        assert code == 0
        assert json.loads(out)["ell"] == 11

    def test_no_cache_skips_write(self, capsys, isolated_cache):
        _, _, err = run(capsys, "ell", "2", "--no-cache")
        assert "cache: off" in err
        assert not list(isolated_cache.glob("*.json"))


class TestEnumerate:
    def test_three_pairs_for_k2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--sum-cap", "4")
        assert code == 0
        assert out.splitlines() == ["1 | 1", "2 | 2", "2 | 1^2"]

    def test_min_len_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--min-len", "5")
        assert code == 0
        assert out.splitlines() == ["3^2 | 2^3"]

    def test_k1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "--sum-cap", "3")
        assert code == 0
        assert out.splitlines() == ["1 | 1"]

    def test_json_lines(self, capsys):
        _, out, _ = run(capsys, "enumerate", "2", "--sum-cap", "4", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"A": [[1, 1]], "B": [[1, 1]]}
        assert rows[2] == {"A": [[2, 1]], "B": [[1, 2]]}

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "enumerate", "2", "--sum-cap", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,sum,length,A,B"
        assert lines[3] == "2,2,3,2,1^2"

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_max_len_zero_is_an_empty_window(self, capsys, fmt):
        # Refused before anything is printed, a CSV header included.
        code, out, err = run(capsys, "enumerate", "3", "--max-len", "0", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "error: bad length window (1, 0)\n"

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_min_len_zero_is_a_bad_window(self, capsys, fmt):
        code, out, err = run(capsys, "enumerate", "3", "--min-len", "0", "--format", fmt)
        assert (code, out, err) == (1, "", "error: bad length window (0, inf)\n")

    def test_min_len_without_max_len_is_open_above(self, capsys):
        code, out, err = run(capsys, "enumerate", "3", "--min-len", "2000000000")
        assert (code, out, err) == (0, "", "")

    def test_printed_pairs_reparse(self, capsys):
        _, out, _ = run(capsys, "enumerate", "3", "--sum-cap", "9")
        for line in out.splitlines():
            assert format_pair(parse_pair(line)) == line


    def test_workers_below_one(self, capsys):
        code, out, err = run(capsys, "enumerate", "3", "--format", "csv", "--workers", "-1")
        assert (code, out, err) == (1, "", "error: workers must be at least 1, got -1\n")


class TestExtremal:
    def test_k3(self, capsys):
        code, out, _ = run(capsys, "extremal", "3")
        assert code == 0
        assert out.splitlines() == ["3^2 | 2^3"]

    def test_k4_pruned(self, capsys):
        code, out, _ = run(capsys, "extremal", "4", "--mode", "pruned")
        assert code == 0
        assert out.splitlines() == ["4^3 | 3^4"]


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.splitlines() == [
            "oracle-equivalence: ok (1111 pairs, 0 mismatches)",
            "derivation-preservation: ok (2000 samples, 0 violations)",
            "allocation-invariants: ok (2000 instances, 0 violations)",
            "length-bounds: ok (0 violations)",
        ]


def test_exit_code_contract(capsys):
    assert run(capsys, "check", "7^3 1^2 | 6^3 5")[0] == 0  # success
    assert run(capsys, "check", "2^2 | 1^4")[0] == 1  # negative result
    assert run(capsys, "check", "oops")[0] == 2  # parse error
    assert run(capsys, "nonsense")[0] == 2  # usage error


@pytest.mark.parametrize("command", ["ell", "enumerate", "extremal"])
def test_survey_commands_accept_exactly_the_modes(command):
    parser = build_parser()
    for mode in _MODES:
        assert parser.parse_args([command, "3", "--mode", mode]).mode == mode
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (mode_action,) = [a for a in sub.choices[command]._actions if a.dest == "mode"]
    assert tuple(mode_action.choices) == _MODES


# sha256 of stdout, with the report's wall_time removed, for `ell K
# --no-cache` and `enumerate K --format csv` at the default cap: brute
# k = 1..7 and pruned k = 8..12.
_PINNED_STDOUT = {
    ("brute", 1): (
        "2c3b695d6e182c1aa49ea42d91a1f32126ea89089f2675eab5a8e68f0b64d407",
        "057370215a9232d4aed18e56a08ae77f279fc7f0807af500c5c11755c2c4fb24",
    ),
    ("brute", 2): (
        "62ed38debfec2277218fd0a1e7cc3ff2874c4f3a7437358e35350c5eb9561ad4",
        "a6f43c206d1f5b5127a83e4024682f38185c68e4d7e9962f9f93b1f910dd15d8",
    ),
    ("brute", 3): (
        "d7b82a1722dd96e179f344d8f9a47bb3b36a67bcdd905d18e7d420fa7f76c4f5",
        "1927860c0a036ded108645b6c75ae2a50921be4e20bcd364313b5ae2257e6dba",
    ),
    ("brute", 4): (
        "84c4a7395c3154118204cb5429bcd21669a59b369d0d758fd71aae02eeae68b2",
        "51749ac183c0bac9fc1ee0fa20f56c963955bb01bd42f1847bf6b17f49d43464",
    ),
    ("brute", 5): (
        "ccd0c239cb08222307fd8252d8477978b407cbf9467b99361837113f9f04158c",
        "0612df3b7e9471f05226eab6ded9029178e51db2bd5936b12cb9ec3d1c89ca37",
    ),
    ("brute", 6): (
        "45c13ba61d4bdb353c104621a5070404293b079960ca8fddd209b2cb493ed335",
        "1698e82e00677d090a774f82be7641d7f0862390e5fc8d51efa27f50aeb73395",
    ),
    ("brute", 7): (
        "0bd11da6ee540abfe7f6d568991ddcb00c5ebc83c7c3dbce0ddae63a6c84a2e1",
        "2c6a539859b34d9d51d315a6be38a4fd513a8dd5feee54ede7c4400884dcc2eb",
    ),
    ("pruned", 8): (
        "00f41423b0345e8ec746de7fe11f7d5108d7baf0d2313c6f91fa826c0c4d03be",
        "3a82befc739112b672c40256ca1611bc51d5385869bf5ac7092a718d872b9c06",
    ),
    ("pruned", 9): (
        "c5cba538bcb7ac013493b42ac4c3726431b54c27b30394c0f32fd31daa0cbbd2",
        "1d6c7744d407a74069205d805af8411fbb8ff6a0d6e632156cf6718ca3076d97",
    ),
    ("pruned", 10): (
        "6ccb4d128b409b6acdefefee0351be58eb759300e4650f349fa32e147a30ae99",
        "de2afeb9f5d2aaca350d8eff2e515566a103297597425be04cd8e06435582dc7",
    ),
    ("pruned", 11): (
        "2e032b6074ebcd5844845b6f65e306cd46d77516d41516b8cbd9018ac01164fe",
        "d950df1a70fd25d0da1505d116b02db9b013388977d4b1e5f11a07aeac149810",
    ),
    ("pruned", 12): (
        "add36733173654636270dca6cc7648efaeaced19dc621da4085f1cf12cf53d85",
        "600cab29c334409d9ddfd29b5f5574ba65a13e4c98588631f944e171fcf90090",
    ),
}


@pytest.mark.parametrize("mode,k", list(_PINNED_STDOUT), ids=str)
def test_survey_stdout_matches_pinned_digest(capsys, mode, k):
    ell_digest, csv_digest = _PINNED_STDOUT[mode, k]
    code, out, _ = run(capsys, "ell", str(k), "--mode", mode, "--no-cache")
    assert code == 0
    out = re.sub(r',"wall_time":[^,}]*', "", out)
    assert hashlib.sha256(out.encode()).hexdigest() == ell_digest
    code, out, _ = run(capsys, "enumerate", str(k), "--mode", mode, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == csv_digest


@pytest.mark.parametrize("k", range(8, 13))
def test_brute_csv_matches_the_pinned_pruned_csv(capsys, k):
    # Brute mode, which uses no theorem, agrees byte for byte with
    # pruned mode over the rest of the pruned range.
    code, out, _ = run(capsys, "enumerate", str(k), "--mode", "brute", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT["pruned", k][1]


def _cli(*argv, unbuffered=False, **kwargs):
    """Start `python -m zspairs.cli ARGV` from the source tree, its stdout
    buffered as by default, so output is still pending at exit, or
    unbuffered, so each write reaches the device at once."""
    src = Path(zspairs.__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "zspairs.cli", *argv],
        env={**env, "PYTHONPATH": str(src)},
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def test_closed_stdout_pipe_exits_without_traceback():
    # 9,297 lines, more than a pipe buffer holds, so writes go on after
    # the reader has gone.
    with _cli("enumerate", "12", "--mode", "pruned", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == "1 | 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_device_exits_without_traceback():
    with open("/dev/full", "w") as full, _cli(
        "ell", "12", "--mode", "pruned", "--no-cache", stdout=full
    ) as proc:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines()[-1] == "error: cannot write output: [Errno 28] No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [("--version",), ("--help",), ("ell", "--help")], ids=["version", "help", "ell-help"]
)
def test_help_and_version_on_a_full_stdout_exit_1(argv, unbuffered):
    # argparse drops an OSError from its own writes, so an unbuffered
    # stdout once lost this text and still exited 0.
    with open("/dev/full", "w") as full, _cli(*argv, unbuffered=unbuffered, stdout=full) as proc:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_usage_error_on_a_full_stderr_exits_2():
    # Only writes to stdout fail loudly: a usage message argparse cannot
    # write to stderr still ends in the usage exit code.
    src = Path(zspairs.__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "zspairs.cli", "ell", "x"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"},
            stdout=subprocess.DEVNULL,
            stderr=full,
        )
    assert proc.returncode == 2


_POOL_MODULES = """
import sys
import zspairs.cli
print(*sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_import_loads_no_process_pool():
    # Every survey runs in one process, so a fresh CLI start (the setup a
    # benchmark run times) loads no pool machinery.
    src = Path(zspairs.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert fresh.stdout.split() == []


_UNUSED_AT_START = {"dataclasses", "inspect", "csv", "random", "datetime", "zspairs.checks"}


def test_import_loads_only_what_every_command_needs():
    # csv, random, datetime and the selftest sweeps load in the commands
    # that use them, and no value type needs dataclasses (which imports
    # inspect).
    # -S leaves out what site imports on some machines (random among it).
    src = Path(zspairs.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, zspairs.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(fresh.stdout.split())
    assert "zspairs.cli" in loaded
    assert loaded & _UNUSED_AT_START == set()


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"


def test_pair_example_round_trip():
    p = parse_pair("7^3 1^2 | 6^3 5")
    assert p == pair((7, 7, 7, 1, 1), (6, 6, 6, 5))
