"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts: on a shared
2-vCPU virtual machine the same pass took anywhere from 11 s to 19 s
within half an hour, with slow and fast phases lasting seconds to minutes.
Wall-time medians over a run cannot absorb that.  So while a pass runs, a
SIGALRM handler times a fixed exact-rational elimination (one "unit",
standard library only) every TICK_S seconds, and a time interval is
reported in calibrated seconds:

    (wall - time spent in units) * REF_UNIT_S / (mean unit time in the interval)

that is, the seconds it would have taken on a host where one unit takes
REF_UNIT_S.  The units take about 2% of a pass; their time is subtracted.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_UNIT_S = 0.005
TICK_S = 0.25


def unit() -> float:
    """Seconds for one fixed Gauss-Jordan elimination over Fractions."""
    t0 = time.perf_counter()
    n = 10
    rows = [[Fraction((i * 7 + j * 3) % 11 + (i == j), 1 + (i + j) % 5) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0


def calibrated(wall: float, units: list) -> float:
    """wall (which includes the units) in calibrated seconds."""
    return (wall - sum(units)) * REF_UNIT_S / statistics.mean(units)


class HostClock:
    """Times one unit every TICK_S seconds between start() and stop()."""

    def __init__(self):
        self.samples: list = []   # (start, duration)

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), unit()))

    def start(self):
        """Start ticking, after one unit, so no interval lacks a neighbour."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(None, None)

    def interval(self, t0: float, t1: float) -> float:
        """[t0, t1) in calibrated seconds.  An interval too short to hold a
        unit is scaled by the unit nearest to its middle."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if inside:
            return calibrated(t1 - t0, inside)
        mid = (t0 + t1) / 2
        _, d = min(self.samples, key=lambda s: abs(s[0] - mid))
        return (t1 - t0) * REF_UNIT_S / d

    def spent(self, t0: float, t1: float) -> float:
        """Seconds spent in units during [t0, t1)."""
        return sum(d for t, d in self.samples if t0 <= t < t1)
