"""Speed-corrected timing for a host whose per-core speed drifts.

On the shared 2-core host this benchmark was built on, the same pure-Python
loop runs anywhere from 0.8x to 1.4x its usual time, in phases lasting
seconds to minutes.  Raw wall times of two runs therefore differ by more
than any change worth measuring.  The clock below runs a fixed reference
kernel (REPEATS times, keeping the fastest) from a timer signal every
PERIOD seconds, throughout the run and inside long calls.  A measured
interval is then scaled by NOMINAL / (median kernel time within WINDOW
seconds of it): times read as seconds on a host that runs the kernel in
NOMINAL seconds.  The handler's own time is taken out of every interval
the clock measures.  The correction removes most of the drift, not all:
code that differs from the kernel is slowed down by a different share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.5
REPEATS = 3  # kernel runs per sample; the fastest counts
NOMINAL = 0.0002  # seconds; about the kernel's time on that host when fast


def _walk(depth, acc):
    if depth == 0:
        return acc
    return _walk(depth - 1, acc + depth * depth)


def reference_kernel() -> int:
    """Fixed interpreter work of the kinds the workloads do: small-integer
    elimination over lists, Fraction arithmetic, tuple keys in a dict and
    a set, generator iteration and plain calls."""
    acc = 0
    seen = {}
    for r in range(4):
        a = [[(3 * i + 5 * j + r) % 7 - 3 for j in range(5)] for i in range(5)]
        for k in range(4):
            for i in range(k + 1, 5):
                for j in range(k + 1, 5):
                    a[i][j] = a[i][j] * (a[k][k] or 1) - a[i][k] * a[k][j]
        f = Fraction(r)
        for i in range(1, 6):
            f += Fraction(i, i + 2) * Fraction(r + 1, i)
        key = tuple(row[r] for row in a)
        seen[key] = seen.get(key, 0) + 1
        acc += sum(x * x for x in range(12) if x % 3) + _walk(12, r)
        acc += f.denominator % 3 + len({(x, x % 5) for x in range(10)})
    return acc + len(seen)


class SpeedClock:
    """Start with start(), stop with stop().  now() is perf_counter()
    minus the time spent in the sampling handler; nominal(a, b) turns the
    interval between two now() readings into nominal seconds, once the
    clock has stopped."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.handler_s = 0.0
        self._saved = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        best = None
        for _ in range(REPEATS):
            k0 = perf_counter()
            reference_kernel()
            k1 = perf_counter()
            best = k1 - k0 if best is None else min(best, k1 - k0)
        self.times.append(t0 - self.handler_s)
        self.durations.append(best)
        self.handler_s += perf_counter() - t0

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)

    def now(self) -> float:
        return perf_counter() - self.handler_s

    def nominal(self, a: float, b: float) -> float:
        steps = max(1, int((b - a) / (WINDOW / 2)))
        width = (b - a) / steps
        return sum(width * self._scale(a + (k + 0.5) * width) for k in range(steps))

    def _scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - WINDOW)
        hi = bisect.bisect_right(self.times, t + WINDOW)
        if lo == hi:  # no sample in the window: take the nearest one
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            lo, hi = i, i + 1
        return NOMINAL / statistics.median(self.durations[lo:hi])

    def reference_s(self) -> float:
        """Median kernel time over the whole run."""
        return statistics.median(self.durations)
