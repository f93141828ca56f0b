"""Machine-speed calibration for the benchmark's timings.

On the small shared machine the benchmark was written on, the speed
of identical work drifts by up to ~1.5x in phases lasting seconds, so
raw wall times of two runs (or two passes) differ by tens of percent.
:class:`SpeedClock` runs a short fixed reference loop (pure-Python
arithmetic plus small NumPy products, like the program's own mix)
from a ``SIGALRM`` interval timer every :data:`SAMPLE_EVERY_S`
seconds, without touching the program, and rescales every timed
interval by the speed measured next to it.  A reported time is what
the interval would have taken on a machine where the reference loop
takes :data:`REFERENCE_S`; the reference loops themselves are cut out
of every interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

import numpy as np

clock = time.perf_counter

#: Nominal reference-loop time that timings are scaled to.
REFERENCE_S = 1e-3
#: Interval of the reference samples.
SAMPLE_EVERY_S = 0.05
#: Samples on each side of a stretch of time that set its scale
#: (about a quarter of a second each way).
NEIGHBOURS = 5

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def reference_loop() -> float:
    """Seconds one fixed unit of reference work takes right now."""
    start = clock()
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(80):
        total += float((_MATRIX @ _MATRIX).sum())
    return clock() - start


class SpeedClock:
    """Reference samples over time, and intervals rescaled by them.

    Used as a context manager: entering takes the first sample and
    starts the interval timer, leaving stops it.  Python runs the
    signal handler between bytecodes of the main thread, so a sample
    never interleaves with the program's own Python code.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        """Run the reference loop now (also the ``SIGALRM`` handler)."""
        start = clock()
        duration = reference_loop()
        self.starts.append(start)
        self.durations.append(duration)
        self.ends.append(clock())

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                         SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _factor(self, index: int) -> float:
        """Scale for the stretch after sample ``index``, from the mean
        of it and :data:`NEIGHBOURS` samples on each side.  The mean
        follows short bursts of contention, which slow the program's
        slowest calls most; capping each sample at twice the window's
        median keeps one preempted sample from setting the scale."""
        window = np.array(self.durations[max(index - NEIGHBOURS, 0):
                                         index + NEIGHBOURS + 1])
        capped = np.minimum(window, 2.0 * np.median(window))
        return REFERENCE_S / float(capped.mean())

    def seconds(self, begin: float, end: float) -> float:
        """``[begin, end]`` without reference loops, rescaled.  Time
        before the first sample takes the first sample's scale."""
        count = len(self.ends)
        # the stretch after sample k runs from ends[k] to starts[k + 1];
        # k = -1 is the stretch before the first sample
        k = bisect.bisect_right(self.ends, begin) - 1
        total = 0.0
        while k < count:
            lo = self.ends[k] if k >= 0 else -float("inf")
            if lo >= end:
                break
            hi = self.starts[k + 1] if k + 1 < count else float("inf")
            overlap = min(hi, end) - max(lo, begin)
            if overlap > 0:
                total += overlap * self._factor(max(k, 0))
            k += 1
        return total

    def summary(self) -> dict:
        """Sample count and reference-loop times, for the result's
        summary line."""
        durations = sorted(self.durations)
        return {"reference_samples": len(durations),
                "reference_ms_min": durations[0] * 1e3,
                "reference_ms_p50": statistics.median(durations) * 1e3,
                "reference_ms_max": durations[-1] * 1e3}
