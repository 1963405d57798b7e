"""Machine-speed probe for the benchmark's iteration timings.

A shared host can change speed by tens of percent over tens of seconds.
That is far more than a benchmark bound can allow, and no run is long enough
to average it away.  While timed work runs, a SIGALRM timer interrupts it
every 50 ms to time a fixed stdlib kernel, which slows down with the machine.
The work's time, less the probe's own time, divided by the kernel's mean
duration (10 % trimmed at each end) and scaled to a 1 ms kernel, moves with
the code under test but much less with the host's load.

The kernel reads floats at random positions of a list of a few MB, so most
of its time is spent waiting for memory, as the package's pool scans and
verifiers do.  A neighbour that fills the shared caches or the memory bus
slows both alike; CPU-only kernels tracked the package's slowdowns less
closely.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager

FIRST_S = 0.001
INTERVAL_S = 0.05
REFERENCE_NS = 1_000_000
TRIM = 0.1

_rng = random.Random(0)
_VALUES = [_rng.random() for _ in range(200_000)]
_POSITIONS = [_rng.randrange(len(_VALUES)) for _ in range(3000)]


def _kernel() -> float:
    total = 0.0
    for i in _POSITIONS:
        total += _VALUES[i]
    return total


def _trimmed_mean(values: list[int]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class Probe:
    """Times the reference kernel ``FIRST_S`` after sampling starts and
    every ``INTERVAL_S`` after that."""

    def __init__(self) -> None:
        self.durations: list[int] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        _kernel()
        self.durations.append(time.perf_counter_ns() - start)

    @contextmanager
    def sampling(self):
        self.durations.clear()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` of the last sampled span, less the probe's own time,
        in seconds on a machine where the kernel takes ``REFERENCE_NS``."""
        work_s = wall_s - sum(self.durations) / 1e9
        if not self.durations:  # the span ended before the first alarm
            self._on_alarm(signal.SIGALRM, None)
        return work_s * REFERENCE_NS / _trimmed_mean(self.durations)
