"""Machine-speed normalisation for timings on a shared machine.

On a shared machine the speed of pure-Python code drifts by 20-60% over
seconds, and the drift moves every timing of a run together.  The clock
here measures that drift while the workload runs: a SIGALRM timer
interrupts the (single) thread every PERIOD seconds, runs a fixed
reference snippet once to warm it and times a second run.  A measured
interval is then re-expressed as the time it would have taken at the
speed where the snippet takes NOMINAL seconds: the interval, less the
samples' own time inside it, is scaled by NOMINAL over the mean sample
within WINDOW seconds of it.

An optimisation of convalg shortens the scaled times as it shortens the
raw ones; a machine that is slower for a while lengthens the snippet in
proportion and leaves the scaled times alone.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

PERIOD = 0.01          # seconds between reference samples
WINDOW = 0.5           # seconds on each side of an interval whose samples count
NOMINAL = 4.0e-5       # the snippet's duration at the reference speed


# Scattered reads over a few megabytes of tuples, so that the snippet
# slows with the cache contention that slows convalg's tables, as well as
# with a slower processor.
_TABLE = [(i, 7 * i) for i in range(60_000)]


def _reference() -> int:
    """Dict, tuple and int work, as in convalg's interpreter-bound loops."""
    d: dict = {}
    k = 0
    for _ in range(100):
        k = (k + 7919) % len(_TABLE)
        a, b = _TABLE[k]
        key = (a % 13, b % 7)
        d[key] = d.get(key, 0) + a % 11
    return len(d)


class SpeedClock:
    """Samples the reference snippet while active; scales intervals after."""

    def __init__(self):
        self.starts: list[float] = []            # start of each sample
        self.durations: list[float] = []         # its timed (second) run
        self._sample_time: list[float] = [0.0]   # cumulative time in samples
        self._duration_sum: list[float] = [0.0]  # cumulative durations
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _reference()
        warm = perf_counter()
        _reference()
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - warm)
        self._sample_time.append(self._sample_time[-1] + end - start)
        self._duration_sum.append(self._duration_sum[-1] + end - warm)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] at the reference speed, samples excluded.

        A sample that starts inside the interval also ends inside it,
        because the interval's end is read after the handler returns."""
        n = len(self.durations)
        if n == 0:
            raise RuntimeError("no reference samples were taken")
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        lo = min(bisect_left(self.starts, t0 - WINDOW), n - 1)
        hi = max(bisect_left(self.starts, t1 + WINDOW), lo + 1)
        mean = (self._duration_sum[hi] - self._duration_sum[lo]) / (hi - lo)
        busy = t1 - t0 - (self._sample_time[j] - self._sample_time[i])
        return busy * NOMINAL / mean
