"""Percentiles under the benchmark's reporting rule, and the host-speed
reference that gated times are scaled by."""

from __future__ import annotations

import statistics
from time import perf_counter

# A percentile is reported only with at least this many samples beyond it.
BEYOND = 10


def percentile_allowed(n: int, p: int) -> bool:
    """True when n samples leave at least BEYOND of them above the p-th
    percentile.  Integer arithmetic: n * (1 - 0.9) is not exactly n / 10."""
    return n * (100 - p) >= BEYOND * 100


def percentile(values, p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)  # ceil(p * n / 100)
    return ordered[max(rank, 1) - 1]


def tail_percentiles(n: int) -> list[int]:
    """The percentiles above the median that n samples can support."""
    return [p for p in (90, 99) if percentile_allowed(n, p)]


def median(values) -> float:
    return statistics.median(values)


# The host's speed drifts by up to 1.6x over minutes (other tenants on the
# same cores), so a fixed pure-Python loop is timed all through each run
# and every gated time is scaled by how fast that loop ran around it.
REFERENCE_LOOP = 60_000
# One reference loop on an uncontended core of the 2-vCPU Xeon VM where the
# benchmark was defined (Python 3.11).  It only sets the scale: adjusted
# times read as that host's times when it is quiet.
REFERENCE_NOMINAL_S = 0.0024


def reference_seconds() -> float:
    """Median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostProbe:
    """Times the reference loop between rounds, at most every `every`
    seconds, so each round can be scaled by the host speed around it."""

    def __init__(self, every: float = 0.5):
        self.every = every
        self.samples = [reference_seconds()]
        self._last = perf_counter()

    def mark(self) -> int:
        """Index of the sample taken just before the next round."""
        return len(self.samples) - 1

    def tick(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= self.every:
            self.samples.append(reference_seconds())
            self._last = perf_counter()

    def scale(self, mark: int) -> float:
        """Factor turning a time measured after sample `mark` (and before
        the next one) into a time at the nominal host speed."""
        around = self.samples[mark : mark + 2]
        return REFERENCE_NOMINAL_S / (sum(around) / len(around))
