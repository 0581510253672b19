"""Host-speed calibration.

The machine this benchmark runs on is shared: its speed for pure-Python work
swings by 30% over tens of seconds, and CPU time swings as much as wall
time.  To keep that out of the metrics, a fixed loop is timed every
INTERVAL_S seconds from a SIGALRM handler, in the one thread that makes the
load, and each operation's time is scaled by CAL_REF_S over the loop times
sampled while it ran.  A scaled time is the time the operation would take on
a host where the loop takes CAL_REF_S.

The loop has two parts: arithmetic over a 64-entry table, and lookups of
tuple keys in a small dict, which hash a tuple each time as the package does.
Against block-grid classification, the two together tracked the host's
swings better than either alone, and better than loops over a few hundred
kilobytes or megabytes of data.  The loop creates no container objects, so
the program's heap and garbage collector do not change its time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CAL_REF_S = 0.0005
INTERVAL_S = 0.1
_TABLE = {i: (i * 7919) & 0xFF for i in range(64)}
_KEYS = [(i, i + 1, i + 2) for i in range(7)]
_DICT = {key: n for n, key in enumerate(_KEYS)}


def calibration_loop() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0
    table = _TABLE
    for i in range(3000):
        acc = (acc + table[i & 63]) & 0xFFFF
    keys, lookup, n, idx = _KEYS, _DICT, len(_KEYS), 1
    for _ in range(1500):
        idx = (idx * 1103515245 + 12345) % n
        acc = (acc + lookup[keys[idx]]) & 0xFFFF
    return time.perf_counter() - start


def current_scale(samples: int = 5) -> float:
    """CAL_REF_S over the median of a few loop times taken now."""
    return CAL_REF_S / statistics.median(calibration_loop() for _ in range(samples))


class HostSpeed:
    """Sample the calibration loop on a timer; scale operation times by it."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start, ascending
        self.loops: list[float] = []  # loop seconds per sample
        self.busy = 0.0  # seconds spent in samples, to subtract from op times
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        loop = calibration_loop()
        self.times.append(start)
        self.loops.append(loop)
        self.busy += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Median of CAL_REF_S / loop time over the samples near [start, end].

        The window is widened by one interval on each side, so that an
        operation shorter than the interval still gets the samples on both
        sides of it; the median keeps one preempted sample from moving it.
        """
        lo = bisect.bisect_left(self.times, start - INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + INTERVAL_S)
        return statistics.median(CAL_REF_S / loop for loop in self.loops[lo:hi] or self.loops[-1:])
