"""The zspairs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from a checkout of the repository; the program is imported from its
`src/`.  Each workload is a closed loop with one client: an operation is
sent only after the previous one returned.  The run repeats one round (the
seeded batch of operations; one `ell` call on the surveys) until --seconds
have passed, gates every output, and prints each metric with its unit and
sample count, then one JSON line: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  Details, the
environment and the traced spans go to .bench_out/ in the checkout.

The end-to-end times are scaled to a nominal host speed: a fixed Python
loop (measure.reference_seconds) is timed before the first op and then
at most every half second between ops, and each op's time is multiplied
by REFERENCE_NOMINAL_S over the loop time around it.  On a shared host
whose speed drifts over minutes this keeps runs made at different times
comparable.  The unscaled figures are printed too, prefixed `raw.`.

Workloads, and why each is here:

  survey-brute-k6      `ell 6 --mode brute --no-cache --workers 1`: every
                       same-sum pair is tested and nothing fans out, so it
                       moves with the scan kernel and partition generation.
  survey-pruned-k9-w2  `ell 9 --mode pruned --no-cache --workers 2`: the
                       pruned filters skip most candidates, and per-sum
                       cost is flat enough that the worker pool matters.
  check-large          `check` on sums 1e6..2e7 (scaled irreducible k<=5
                       pairs, k^(k-1) | (k-1)^k, reducible dense pairs):
                       the big-int fold and witness; no enumeration.
  pair-ops             k=7 pool pairs through CLI check, derive,
                       derive_product, text/JSON round trips and warm-cache
                       `ell` hits: per-call overhead on tiny inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated this many times per run and its median reported.
SETUPS = 9

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import zspairs.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t, zspairs.__file__)\n"
)

ZSPAIRS_MODULES = ("cli", "core", "formats", "derivation", "enumeration", "irreducibility", "cache")


def load_zspairs() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("zspairs")
    if Path(pkg.__file__).resolve().parent != SRC / "zspairs":
        raise RuntimeError(f"imported zspairs from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"zspairs.{name}") for name in ZSPAIRS_MODULES}
    return SimpleNamespace(version=pkg.__version__, **mods)


def time_import(env: dict) -> float:
    """Seconds to import zspairs.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != SRC / "zspairs":
        raise RuntimeError(f"probe imported zspairs from {path.strip()}")
    return float(seconds)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


class Client:
    """Sends ops one at a time, times each, and gates its output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def send(self, lib, op) -> float:
        start = perf_counter()
        try:
            out = workloads.run_op(lib, op)
        except Exception:
            out = traceback.format_exc(limit=3)
            ok = False
        else:
            ok = None
        elapsed = perf_counter() - start
        if ok is None:
            try:
                ok = workloads.gate(op, out)
            except Exception:
                ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind} {op.payload!r:.200} -> {out!r:.400}")
        return elapsed

    def round(self, lib, ops) -> float:
        return sum(self.send(lib, op) for op in ops)


def set_up(wl, seed: int, mods, cache_dir: str, probe_env: dict):
    """Import and generate SETUPS times; each set-up time is also given
    scaled by the reference loop timed just before and after it."""
    imports, generates, setups, scaled = [], [], [], []
    digests = set()
    ops = None
    for _ in range(SETUPS):
        before = measure.reference_seconds()
        imported = time_import(probe_env)
        start = perf_counter()
        ops = wl.make(seed, mods, cache_dir)
        generated = perf_counter() - start
        after = measure.reference_seconds()
        digests.add(workloads.inputs_digest(ops))
        imports.append(imported)
        generates.append(generated)
        setups.append(imported + generated)
        scaled.append(setups[-1] * measure.REFERENCE_NOMINAL_S * 2 / (before + after))
    if len(digests) != 1:
        raise RuntimeError(f"seed {seed} generated different inputs: {sorted(digests)}")
    return ops, digests.pop(), imports, generates, setups, scaled


def plain_run(wl, lib, ops, seconds: float, client: Client):
    """Op latencies per round, raw and scaled by the host probe samples
    taken around each op."""
    probe = measure.HostProbe()
    timed = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or client.attempted < wl.min_ops:
        marked = []
        for op in ops:
            mark = probe.mark()
            marked.append((mark, client.send(lib, op)))
            probe.tick()
        timed.append(marked)
    probe.tick(force=True)
    raw = [[x for _, x in marked] for marked in timed]
    scaled = [[x * probe.scale(m) for m, x in marked] for marked in timed]
    return raw, scaled, probe.samples


def timing_metrics(rounds, setups, survey: bool, prefix: str = ""):
    """The gated timings, then the named ones defined only on some
    workloads, as (name, value, unit, samples)."""
    latencies = [x for lat in rounds for x in lat]
    n = len(latencies)
    gated = [
        (prefix + "setup_s", measure.median(setups), "s", len(setups)),
        (prefix + "wall_s", measure.median([sum(lat) for lat in rounds]), "s", len(rounds)),
        (prefix + "ops_per_s", n / sum(latencies), "1/s", n),
        (prefix + "op_p50_ms", measure.median(latencies) * 1e3, "ms", n),
    ]
    extra = [(prefix + "survey_s", measure.median(latencies), "s", n)] if survey else []
    for p in measure.tail_percentiles(n):
        extra.append((prefix + f"op_p{p}_ms", measure.percentile(latencies, p) * 1e3, "ms", n))
    return gated, extra


def traced_run(wl, mods, lib, ops, seconds: float, client: Client):
    """Alternate untraced and traced rounds (and, for the fan-out workload,
    a one-worker round of the same surveys) until the time is up."""
    tracer = tracing.Tracer()
    traced_lib = tracer.traced_lib(lib)
    serial_ops = workloads.serial_variant(ops) if wl.workers > 1 else None
    plain, traced, serial, per_round = [], [], [], []
    op_id = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or client.attempted < wl.min_ops or not traced:
        plain.append(client.round(lib, ops))
        if serial_ops:
            serial.append(client.round(lib, serial_ops))
        mark = len(tracer.spans)
        tracer.counts.clear()
        total = 0.0
        with tracer.installed(mods):
            for op in ops:
                op_id += 1
                tracer.op_id = op_id
                total += tracer.call(f"op.{op.kind}", client.send, traced_lib, op)
        traced.append(total)
        per_round.append(tracing.round_metrics(tracer.spans[mark:], tracer.counts))
    metrics = {name: measure.median([r[name] for r in per_round]) for name in per_round[0]}
    if serial_ops:
        serial_s = measure.median(serial)
        parallel_s = measure.median(plain)
        metrics["enumeration.fanout.serial_s"] = serial_s
        metrics["enumeration.fanout.efficiency"] = serial_s / (wl.workers * parallel_s)
        metrics["enumeration.fanout.overhead_s"] = parallel_s - serial_s / wl.workers
    else:
        for name in FANOUT_METRICS:
            metrics[name] = 0.0
    metrics["trace.overhead_s"] = measure.median(traced) - measure.median(plain)
    samples = {"rounds_traced": len(traced), "rounds_plain": len(plain), "rounds_serial": len(serial)}
    return metrics, samples, tracer.spans


FANOUT_METRICS = (
    "enumeration.fanout.serial_s",
    "enumeration.fanout.efficiency",
    "enumeration.fanout.overhead_s",
)
# Per-layer metrics a traced run reports besides tracing.round_metrics.
RUN_LAYER_METRICS = (*FANOUT_METRICS, "trace.overhead_s", "setup.import_s", "setup.generate_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "efficiency")):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        cache_dir = os.path.join(work, "cache")
        # Never read or write the user's ~/.cache/zspairs.
        os.environ["ZSPAIRS_CACHE_DIR"] = cache_dir
        probe_env = dict(os.environ, PYTHONPATH=str(SRC))
        env = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "loadavg_start": os.getloadavg(),
        }
        mods = load_zspairs()
        env["zspairs"] = mods.version
        env["workers"] = wl.workers
        ops, digest, imports, generates, setups, scaled_setups = set_up(
            wl, args.seed, mods, cache_dir, probe_env
        )
        lib = workloads.Lib.from_modules(mods)
        client = Client()
        lines: list[tuple[str, float, str, int]] = []
        detail: dict = {}
        if args.trace:
            metrics, samples, spans = traced_run(wl, mods, lib, ops, args.seconds, client)
            metrics["setup.import_s"] = measure.median(imports)
            metrics["setup.generate_s"] = measure.median(generates)
            for name in sorted(metrics):
                if name.startswith("setup."):
                    n = len(setups)
                elif name.startswith("enumeration.fanout."):
                    n = samples["rounds_serial"]
                else:
                    n = samples["rounds_traced"]
                lines.append((name, metrics[name], layer_unit(name), n))
            detail["samples"] = samples
            detail["span_fields"] = tracing.FIELDS
            detail["spans"] = spans
            reported = {name: {"value": v, "unit": u} for name, v, u, _ in lines}
        else:
            rounds, scaled_rounds, samples = plain_run(wl, lib, ops, args.seconds, client)
            survey = wl.name.startswith("survey-")
            gated, extra = timing_metrics(scaled_rounds, scaled_setups, survey)
            gated.append(("peak_rss_mb", peak_rss_mb(), "MB", 1))
            reported = {name: {"value": v, "unit": u} for name, v, u, _ in gated}
            raw_gated, raw_extra = timing_metrics(rounds, setups, survey, prefix="raw.")
            lines += gated + extra + raw_gated + raw_extra
            lines.append(("host.reference_ms", measure.median(samples) * 1e3, "ms", len(samples)))
        lines.append(("failed_ratio", client.failed / client.attempted, "ratio", client.attempted))
        env["loadavg_end"] = os.getloadavg()

        print(f"workload {wl.name} seed {args.seed} trace {args.trace} inputs_digest {digest}")
        print(f"env {json.dumps(env)}")
        for failure in client.failures:
            print(f"FAILED {failure}")
        for name, value, unit, n in lines:
            print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n}")
        detail.update(
            workload=wl.name,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            inputs_digest=digest,
            env=env,
            metrics=[{"name": n_, "value": v, "unit": u, "samples": k} for n_, v, u, k in lines],
        )
        out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(detail))
        result = {
            "correct": client.failed == 0,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": reported,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; one summary line per workload."""
    summary = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        status |= 0 if summary[name]["correct"] else 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zspairs" / "__init__.py").is_file():
        print(f"zspairs sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
