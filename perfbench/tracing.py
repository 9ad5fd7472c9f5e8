"""Spans around the calls into each zspairs module, recorded from outside
the program.

A traced round replaces the names that one zspairs module looks up in
another (the ones `cli` imports, and the helpers `enumeration` calls per
sum) with wrappers that record a span, and restores them afterwards.
Nothing in `src/` knows it is being traced.  A span is

    (span_id, parent_id, op_id, name, start, end, pid)

with times from `time.perf_counter`, which reads the same monotonic
clock in every process, so spans recorded in pool workers line up with
the parent's.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

FIELDS = ("span_id", "parent_id", "op_id", "name", "start", "end", "pid")

# Pool workers are handed `worker_scan_task` by import path, so they find
# the tracer through this name; it is set only while a round is traced.
_active: Tracer | None = None


class Carried(tuple):
    """A worker's `(hits, scanned)` plus the spans recorded computing it."""

    def __new__(cls, result, spans):
        obj = super().__new__(cls, result)
        obj.spans = spans
        return obj

    def __reduce__(self):
        return (Carried, (tuple(self), self.spans))


def worker_scan_task(args):
    """Stands in for `enumeration._scan_task` in forked pool workers."""
    tracer = _active
    tracer.pid = os.getpid()
    mark = len(tracer.spans)
    result = tracer.enumeration._scan_sum(*args)
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    return Carried(result, spans)


def fold_cost(runs, reverse: bool = False) -> tuple[int, int]:
    """Shift-or steps and result bytes of one bounded-knapsack fold over
    `runs`, from 1-bit start, mirroring irreducibility._fold_run's
    binary splitting.  Computed from the input, not measured."""
    shifts = 0
    nbytes = 0
    width = 1
    for value, count in reversed(runs) if reverse else runs:
        chunk = 1
        while count > 0:
            take = min(chunk, count)
            width += value * take
            shifts += 1
            nbytes += (width + 7) // 8
            count -= take
            chunk <<= 1
    return shifts, nbytes


def self_time(span, children) -> float:
    """The span's duration minus the part of it its same-process children
    cover, counting overlapping children once."""
    start, end, pid = span[4], span[5], span[6]
    covered = 0.0
    reach = start
    for c_start, c_end in sorted((c[4], c[5]) for c in children if c[6] == pid):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.pid = os.getpid()
        self.enumeration = None
        self._stack: list[int] = []
        self._seq = 0
        self._fold_first: float | None = None
        self._fold_last = 0.0

    def _new_id(self) -> int:
        # Unique across the parent and its forked pool workers.
        self._seq += 1
        return self.pid * 1_000_000_000 + self._seq

    def _open(self):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, name, sid, parent, start, end) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, start, end, self.pid))

    def _record(self, name, start, end, parent) -> None:
        self.spans.append((self._new_id(), parent, self.op_id, name, start, end, self.pid))

    def call(self, name, fn, *args, **kwargs):
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start, perf_counter())

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- counts taken at the boundaries -----------------------------------

    def _after_check(self, args, result) -> None:
        p = args[0]
        if p.a.sigma == p.b.sigma:
            self._add_fold(p.a.runs)
            self._add_fold(p.b.runs)

    def _after_witness(self, args, result) -> None:
        self._after_check(args, result)
        if result is not None:
            # _extract_submultiset folds each side again, from its last run.
            self._add_fold(args[0].a.runs, reverse=True)
            self._add_fold(args[0].b.runs, reverse=True)

    def _add_fold(self, runs, reverse=False) -> None:
        shifts, nbytes = fold_cost(runs, reverse)
        self.counts["fold.shifts"] += shifts
        self.counts["fold.bytes"] += nbytes

    def _after_load(self, args, result) -> None:
        self.counts["cache.loads"] += 1
        self.counts["cache.hits"] += result is not None

    # -- enumeration internals --------------------------------------------

    def _wrap_scan_sum(self, orig):
        def scan_sum(k, total, mode):
            self._fold_first = None
            sid, parent = self._open()
            start = perf_counter()
            try:
                return orig(k, total, mode)
            finally:
                end = perf_counter()
                self._close("enumeration.scan_sum", sid, parent, start, end)
                # Partitions are listed before the first mask fold starts,
                # masks are done when the last fold returns; the pair scan
                # is what remains of the span.
                first = self._fold_first if self._fold_first is not None else end
                last = max(first, self._fold_last)
                self._record("enumeration.partitions", start, first, sid)
                self._record("enumeration.masks", first, last, sid)

        return scan_sum

    def _wrap_fold(self, orig):
        def fold_run(bits, value, count):
            if self._fold_first is None:
                self._fold_first = perf_counter()
            out = orig(bits, value, count)
            self._fold_last = perf_counter()
            return out

        return fold_run

    def _wrap_scan_all(self, orig):
        def scan_all(cfg, workers):
            owner = self._stack[-1] if self._stack else None
            it = orig(cfg, workers)
            while True:
                sid, parent = self._open()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close("enumeration.next", sid, parent, start, perf_counter())
                if isinstance(item, Carried):
                    self._adopt(item.spans, owner)
                    item = tuple(item)
                hits, scanned = item
                self.counts["partitions"] += (math.isqrt(8 * scanned + 1) - 1) // 2
                self.counts["candidates"] += scanned
                self.counts["hits"] += len(hits)
                yield item

        return scan_all

    def _adopt(self, spans, owner) -> None:
        ids = {s[0] for s in spans}
        for s in spans:
            parent = s[1] if s[1] in ids else owner
            self.spans.append((s[0], parent, self.op_id, *s[3:]))

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self, mods):
        """Wrap the cross-module names for the duration of the block."""
        global _active
        hooks = {
            "is_irreducible": self._after_check,
            "reducibility_witness": self._after_witness,
            "load_report": self._after_load,
        }
        saved = []

        def patch(module, name, new):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, new)

        cli, enum = mods.cli, mods.enumeration
        for name, fn in list(vars(cli).items()):
            home = getattr(fn, "__module__", "") or ""
            if inspect.isfunction(fn) and home.startswith("zspairs.") and home != cli.__name__:
                layer = home.rsplit(".", 1)[1]
                patch(cli, name, self.wrap(f"{layer}.{name}", fn, hooks.get(name)))
        patch(enum, "pair_to_obj", self.wrap("formats.pair_to_obj", enum.pair_to_obj))
        patch(enum, "_scan_all", self._wrap_scan_all(enum._scan_all))
        patch(enum, "_scan_sum", self._wrap_scan_sum(enum._scan_sum))
        patch(enum, "_fold_run", self._wrap_fold(enum._fold_run))
        patch(enum, "_scan_task", worker_scan_task)
        self.enumeration = enum
        _active = self
        try:
            yield
        finally:
            _active = None
            for module, name, old in reversed(saved):
                setattr(module, name, old)

    def traced_lib(self, lib):
        """The same entry points as `lib`, each call recorded as a span."""
        wrapped = {
            "main": self.wrap("cli.main", lib.main),
            "parse_pair": self.wrap("formats.parse_pair", lib.parse_pair),
            "format_pair": self.wrap("formats.format_pair", lib.format_pair),
            "pair_to_json": self.wrap("formats.pair_to_json", lib.pair_to_json),
            "pair_from_json": self.wrap("formats.pair_from_json", lib.pair_from_json),
            "parse_plan": self.wrap("formats.parse_plan", lib.parse_plan),
            "plan_of": lib.plan_of,
            "derive": self.wrap("derivation.derive", lib.derive),
            "derive_product": self.wrap("derivation.derive_product", lib.derive_product),
        }
        return type(lib)(**wrapped)


LAYER_SPANS = {
    "formats.parse.busy_s": ("formats.parse_pair", "formats.parse_plan", "formats.parse_chain"),
    "formats.emit.busy_s": ("formats.format_pair", "formats.format_multiset"),
    "formats.json.busy_s": ("formats.pair_to_json", "formats.pair_from_json", "formats.pair_to_obj"),
    "derivation.derive.busy_s": ("derivation.derive", "derivation.derive_chain"),
    "derivation.product.busy_s": ("derivation.derive_product",),
    "cache.load.busy_s": ("cache.load_report",),
    "irreducibility.check.busy_s": ("irreducibility.is_irreducible",),
    "irreducibility.witness.busy_s": ("irreducibility.reducibility_witness",),
    "enumeration.partitions.busy_s": ("enumeration.partitions",),
    "enumeration.masks.busy_s": ("enumeration.masks",),
}


def round_metrics(spans, counts) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
        if s[1] is not None:
            children[s[1]].append(s)

    def self_total(name):
        return sum(self_time(s, children[s[0]]) for s in by_name[name])

    out = {
        metric: float(sum(s[5] - s[4] for n in names for s in by_name[n]))
        for metric, names in LAYER_SPANS.items()
    }
    scans = by_name["enumeration.scan_sum"]
    out.update(
        {
            "enumeration.partitions.count": counts["partitions"],
            "enumeration.masks.count": counts["partitions"],
            "enumeration.scan.candidates": counts["candidates"],
            "enumeration.scan.hits": counts["hits"],
            "enumeration.scan.hit_ratio": counts["hits"] / counts["candidates"]
            if counts["candidates"]
            else 0.0,
            "enumeration.scan.self_s": self_total("enumeration.scan_sum"),
            "enumeration.scan.max_sum_s": max((s[5] - s[4] for s in scans), default=0.0),
            "enumeration.materialize.busy_s": self_total("enumeration.compute_ell"),
            "irreducibility.check.calls": len(by_name["irreducibility.is_irreducible"]),
            "irreducibility.witness.calls": len(by_name["irreducibility.reducibility_witness"]),
            "irreducibility.fold.shifts": counts["fold.shifts"],
            "irreducibility.fold.computed_mb": counts["fold.bytes"] / 1e6,
            "cache.load.hit_ratio": counts["cache.hits"] / counts["cache.loads"]
            if counts["cache.loads"]
            else 0.0,
            "cli.self_s": self_total("cli.main"),
        }
    )
    return out
