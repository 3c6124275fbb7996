"""The host's speed, read between operations, to scale measured times.

On a shared host the processor's speed drifts.  On a 2-vCPU KVM guest
(Intel Xeon, Python 3.11) one keg call on the paper KB took 30 ms for
stretches of seconds and 50 ms for others, and CPU time followed wall
time, so the drift is in the hardware, not in scheduling.  Runs a few
minutes apart then differ by the share of slow stretches they caught:
over 10 s windows the raw keg time spread 23% (quartile distance over
median).

A fixed pure-Python loop slows down by the same factor at the same
moments.  The benchmark times that loop every ``EVERY`` seconds between
operations and reports each operation's time as it would read on a host
where one reading takes ``REFERENCE_S``: the measured time times
``REFERENCE_S`` over the readings taken just before and just after it.
Over the same 10 s windows the scaled keg time spread 2.6%.  The loop
runs no code of the program, so a change to the program moves the scaled
time exactly as it moves the raw one.

This module imports nothing of the program, so it can read the host
before the program is imported.
"""

from __future__ import annotations

import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

perf_counter = time.perf_counter

# About the median reading on the host these figures were first taken on
# (2-vCPU KVM guest, Intel Xeon, Python 3.11).  Its value only sets the
# scale; any fixed value would do.
REFERENCE_S = 0.0007
EVERY = 0.1     # seconds between readings while a workload runs
SPINS = 3       # a reading is the mean time of this many loops


def spin(n: int = 4000) -> int:
    """Dictionary, arithmetic, branch and tuple work, as the reasoner's
    own inner loops do."""
    counts = {}
    kept = []
    for i in range(n):
        k = (i * 7) & 255
        counts[k] = counts.get(k, 0) + 1
        if not i & 15:
            kept.append((k, i))
    return len(kept) + len(counts)


class HostSpeed:
    """Readings of the loop's time, in time order."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")

    def read(self) -> None:
        start = perf_counter()
        for _ in range(SPINS):
            spin()
        end = perf_counter()
        self.starts.append(start)
        self.values.append((end - start) / SPINS)
        self.ends.append(end)

    def read_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median of the readings from the last
        one that ended before ``start`` to the first one that began after
        ``end``; 1.0 with no readings, so times stay as measured."""
        n = len(self.values)
        if not n:
            return 1.0
        lo = max(bisect_right(self.ends, start) - 1, 0)
        hi = min(bisect_left(self.starts, end), n - 1)
        return REFERENCE_S / statistics.median(self.values[min(lo, hi):hi + 1])

    def scale(self, start: float, seconds: float) -> float:
        return seconds * self.factor(start, start + seconds)

    def summary(self) -> dict:
        values = list(self.values)
        return {"reference_s": REFERENCE_S, "readings": len(values),
                "median_s": statistics.median(values) if values else None,
                "min_s": min(values, default=None),
                "max_s": max(values, default=None)}
