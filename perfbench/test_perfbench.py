"""Tests of the benchmark itself: deterministic inputs, the percentile
rule, self-time arithmetic, span counts, and the correctness gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import measure
import run
import tracing
import workloads
from workloads import Op


@pytest.fixture(scope="module")
def mods():
    return run.load_zspairs()


@pytest.fixture
def lib(mods, tmp_path, monkeypatch):
    monkeypatch.setenv("ZSPAIRS_CACHE_DIR", str(tmp_path / "cache"))
    return workloads.Lib.from_modules(mods)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_only(name, mods, tmp_path, monkeypatch):
    monkeypatch.setenv("ZSPAIRS_CACHE_DIR", str(tmp_path / "cache"))
    make = workloads.WORKLOADS[name].make
    cache = str(tmp_path / "cache")
    first = make(7, mods, cache)
    again = make(7, mods, cache)
    assert [(op.kind, op.payload) for op in first] == [(op.kind, op.payload) for op in again]
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    # The program receives nothing but text and small integers.
    for op in first:
        assert all(isinstance(x, (str, int)) for x in op.payload)
    if not name.startswith("survey-"):
        other = make(8, mods, cache)
        assert workloads.inputs_digest(other) != workloads.inputs_digest(first)


def test_check_large_stays_in_its_sum_range(mods):
    for op in workloads.check_large_round(3, mods):
        _, a, b = op.expect
        assert workloads.CHECK_LO <= workloads.sigma(a) == workloads.sigma(b) <= 1.05 * workloads.CHECK_HI
        assert max(a[0][0], b[0][0]) <= workloads.MAX_VALUE


def test_percentile_rule_keeps_ten_samples_beyond():
    assert not measure.percentile_allowed(99, 90)
    assert measure.percentile_allowed(100, 90)
    assert not measure.percentile_allowed(999, 99)
    assert measure.percentile_allowed(1000, 99)
    assert measure.tail_percentiles(50) == []
    assert measure.tail_percentiles(100) == [90]
    assert measure.tail_percentiles(1000) == [90, 99]
    values = list(range(1, 101))
    p90 = measure.percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == measure.BEYOND
    assert measure.percentile([5.0], 50) == 5.0


def _span(sid, parent, name, start, end, pid=1):
    return (sid, parent, 1, name, start, end, pid)


def test_self_time_subtracts_covered_child_time_once():
    parent = _span(1, None, "cli.main", 0.0, 10.0)
    children = [
        _span(2, 1, "a", 1.0, 3.0),
        _span(3, 1, "b", 2.0, 5.0),  # overlaps a: [1, 5] counted once
        _span(4, 1, "c", 9.0, 12.0),  # clipped to the parent's end
        _span(5, 1, "worker", 0.0, 10.0, pid=2),  # another process
    ]
    assert tracing.self_time(parent, children) == pytest.approx(5.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_scan_self_time_is_span_minus_partitions_and_masks():
    spans = [
        _span(1, None, "enumeration.scan_sum", 0.0, 10.0),
        _span(2, 1, "enumeration.partitions", 0.0, 2.0),
        _span(3, 1, "enumeration.masks", 2.0, 3.5),
    ]
    got = tracing.round_metrics(spans, tracing.Counter())
    assert got["enumeration.scan.self_s"] == pytest.approx(6.5)
    assert got["enumeration.partitions.busy_s"] == pytest.approx(2.0)
    assert got["enumeration.masks.busy_s"] == pytest.approx(1.5)
    assert got["enumeration.scan.max_sum_s"] == pytest.approx(10.0)


def test_fold_cost_follows_binary_splitting():
    # count 5 splits into takes 1, 2, 2; widths 1+3, 4+6, 10+6 bits
    assert tracing.fold_cost(((3, 5),)) == (3, 1 + 2 + 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_survey_counts_match_the_report(mods, lib, workers):
    argv = ("ell", "4", "--mode", "brute", "--no-cache", "--workers", str(workers))
    tracer = tracing.Tracer()
    with tracer.installed(mods):
        code, stdout, _ = workloads.run_cli(tracer.traced_lib(lib), argv)
    assert code == 0
    report = json.loads(stdout)
    got = tracing.round_metrics(tracer.spans, tracer.counts)
    assert got["enumeration.scan.candidates"] == report["pairs_scanned"]
    assert got["enumeration.scan.hits"] == report["irreducible_count"]
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "enumeration.compute_ell", "enumeration.scan_sum"} <= names
    assert sum(s[3] == "enumeration.scan_sum" for s in tracer.spans) == 16
    # Tracing leaves the modules as it found them.
    assert mods.enumeration._scan_task.__module__ == "zspairs.enumeration"
    assert mods.cli.compute_ell is mods.enumeration.compute_ell


def test_gate_accepts_right_outputs(mods, lib, tmp_path):
    ops = workloads.pair_ops_round(1, mods, str(tmp_path / "cache"))
    client = run.Client()
    client.round(lib, ops)
    assert client.failed == 0, client.failures
    assert client.attempted == len(ops) == 5 * workloads.PAIR_OPS_PER_KIND


def test_gate_flags_an_injected_wrong_result(mods, lib, tmp_path):
    ops = workloads.pair_ops_round(1, mods, str(tmp_path / "cache"))
    derives = [op for op in ops if op.kind == "derive"]
    # A derive that returns its input: irreducible, but not one shorter.
    broken = workloads.Lib(**{**vars(lib), "derive": lambda p, a, b: p})
    client = run.Client()
    client.round(broken, derives)
    assert client.failed == client.attempted == len(derives)

    # A derive that raises is a failure too, not a dropped sample.
    def boom(p, a, b):
        raise RuntimeError("injected")

    client = run.Client()
    client.send(workloads.Lib(**{**vars(lib), "derive": boom}), derives[0])
    assert client.failed == 1


def test_gate_rejects_wrong_survey_and_check_outputs():
    survey = Op("survey", (), workloads.survey_expect("brute", 6))
    report = {**survey.expect, "wall_time": 1.0}
    good = (0, json.dumps(report) + "\n", "cache: off\n")
    assert workloads.gate(survey, good)
    for field, wrong in (("pairs_scanned", 13_811_616), ("ell", 10), ("witnesses", [])):
        bad = (0, json.dumps({**report, field: wrong}) + "\n", "cache: off\n")
        assert not workloads.gate(survey, bad)

    a, b = ((5, 1), (3, 1), (2, 1)), ((4, 1), (3, 2))  # 5 3 2 | 4 3^2
    check = Op("check", ("check", workloads.pair_text(a, b)), (False, a, b))
    head = "irreducible: false\nk-threshold: 5\n"
    assert workloads.gate(check, (1, head + "witness: 3 | 3\n", ""))
    assert not workloads.gate(check, (0, head + "witness: 3 | 3\n", ""))
    assert not workloads.gate(check, (0, "irreducible: true\nk-threshold: 5\n", ""))
    assert not workloads.gate(check, (1, head + "witness: 5 | 4\n", ""))  # unequal sums
    assert not workloads.gate(check, (1, head + "witness: 5 3 2 | 4 3^2\n", ""))  # not proper
    assert not workloads.gate(check, (1, head + "witness: 1 | 1\n", ""))  # not in the pair


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    emitted = set(tracing.round_metrics([], tracing.Counter())) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_probe_scales_by_the_samples_around_a_round():
    probe = measure.HostProbe()
    nominal = measure.REFERENCE_NOMINAL_S
    probe.samples = [nominal, 2 * nominal]
    # A round between the two samples ran at 1.5x the nominal loop time.
    assert probe.scale(0) == pytest.approx(1 / 1.5)
    assert probe.scale(1) == pytest.approx(0.5)
    assert probe.mark() == 1
    probe.tick(force=True)
    assert len(probe.samples) == 3
