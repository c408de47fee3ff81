"""The CPU's current speed, read from a small reference loop timed during a pass.

The host the benchmark was tuned on moves between a fast and a slow mode,
often within one pass, so a reference timed only before and after a pass
misses what happened inside it.  `Sampler` times one reference tick every
SAMPLE_INTERVAL_S from a SIGALRM handler while a pass runs; the mean tick
is the pass's average speed, and the handler's own time is left out of
the pass.  The tick mixes the kinds of work euciso does: integer
arithmetic, 3x3 numpy products and dict inserts.  It belongs to the
benchmark, so no change to euciso moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
# One tick's time on the host the benchmark was tuned on (2 vCPUs of an
# Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6) in its fast mode.
REFERENCE_S = 0.7e-3

_STEP = np.eye(3) * 1.0001


def _mixed_loop() -> None:
    acc = 0
    for i in range(5000):
        acc += i * i
    m = np.eye(3)
    for _ in range(100):
        m = m @ _STEP
    table = {}
    for i in range(1000):
        table[(i, i & 7)] = [i, float(i)]


def reference_tick() -> float:
    """Wall time of one fixed mixed loop, run once untimed first so that
    the time depends on the CPU's speed, not on what the pass left in its
    caches."""
    _mixed_loop()
    start = time.perf_counter()
    _mixed_loop()
    return time.perf_counter() - start


def reference_s() -> float:
    """Median of 15 back-to-back ticks: the speed right now."""
    return statistics.median(reference_tick() for _ in range(15))


def at_reference_speed(seconds: float, tick_s: float) -> float:
    """A time measured while a tick took `tick_s`, rescaled to the speed at
    which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / tick_s


class Sampler:
    """Ticks every SAMPLE_INTERVAL_S of wall time inside a `with` block.

    `spent` is the wall time the ticks and their handler took inside the
    block; `mean_tick` is the mean tick, one taken on entry included.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.ticks.append(reference_tick())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_tick(self) -> float:
        return statistics.fmean(self.ticks)
