"""Durations at a fixed reference machine speed.

On a shared 2-core host the CPU speed drifts by +-25% over a few seconds
(the same fixed work took 20 ms to 32 ms in consecutive seconds), which
swamps the differences the benchmark is meant to show. The meter times a
short fixed kernel of Python loop work, small-matrix products and
batch-sized numpy work, the mix sbikit's own hot paths have, every
``SAMPLE_EVERY_S`` seconds between measured operations, never inside one.
Measured durations are scaled by the run's median of
``REFERENCE_S / kernel time``: a benchmark time is the time the code would
take on a host running the kernel in ``REFERENCE_S``. One factor per run
removes the drift between runs. Scaling each interval by the samples near it
passed the noise of single kernel samples on to the pass times, and medians
over passes and queries already absorb the drift within a run. The kernel
is independent of sbikit, so a change to sbikit moves the scaled times as
much as the raw ones. Raw times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an unloaded 2-core x86-64 VM (numpy 2.4, OpenBLAS 0.3.31,
# one BLAS thread); only the ratio to it matters.
REFERENCE_S = 2.5e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64)) / 8.0
_ROWS = _rng.standard_normal((1000, 50)) / 7.0     # a 1000-row batch, 50 hidden units
_WEIGHTS = _rng.standard_normal((50, 50)) / 7.0


def _kernel() -> int:
    """Python-loop and small-matrix work, then batch-sized numpy work."""
    x = _SMALL
    acc = 0
    for i in range(50):
        x = np.tanh(x @ _SMALL)
        for j in range(50):
            acc += i * j
    h = _ROWS
    for _ in range(3):
        h = np.tanh(h @ _WEIGHTS)
        acc += int(np.exp(-h * h).sum())
    return acc


SAMPLE_EVERY_S = 0.4


class SpeedMeter:
    """Speed samples over time, one when the last is older than SAMPLE_EVERY_S."""

    def __init__(self):
        _kernel()   # the first call also pays for page faults and code warm-up
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.measure()

    def measure(self) -> float:
        """Take a speed sample now; returns its factor."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.factors.append(REFERENCE_S / sorted(runs)[1])
        return self.factors[-1]

    def factor(self) -> float:
        """The run's speed factor: the median of its samples so far."""
        return float(np.median(self.factors))


class Stopwatch:
    """Raw intervals of consecutive stages, sampling speed between them."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter
        self.intervals: list[tuple[float, float]] = []
        meter.sample()
        self._t = time.perf_counter()

    def lap(self) -> int:
        """End the current stage and start the next; returns the stage index."""
        self.intervals.append((self._t, time.perf_counter()))
        self.meter.sample()
        self._t = time.perf_counter()
        return len(self.intervals) - 1

    @property
    def raw(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def scaled(self, stage: int | None = None) -> float:
        """Reference-speed time of one stage, or of all of them."""
        picked = self.intervals if stage is None else [self.intervals[stage]]
        return self.meter.factor() * sum(b - a for a, b in picked)
