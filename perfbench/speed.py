"""Speed scaling for a machine whose speed drifts.

On the 2-CPU VM where the bounds were measured, speed changes by up to 1.7x
over seconds to minutes.  The change hits every process alike, and CPU time
shows it as much as wall time.  A fixed kernel, which uses Fractions, dicts,
floats and math but no gaugecalc code, so no library change moves it, is
timed from a SIGALRM handler every PROBE_INTERVAL_S while the benchmark
runs.  An interval's scaled time is its raw time, less the handler's own
time, times NOMINAL_S over the mean kernel time in and around the
interval.  Scaled times read as seconds on a machine where the kernel takes
NOMINAL_S.

The mean, not the median: on that VM the kernel's times are bimodal (about
0.3 ms and 0.7 ms) and their mix changes, so the median jumps between the
modes while a long job's slowdown follows the mix.  Over six mct runs,
scaling each run by its mean kernel time left a spread of jobs_per_s of
5.6% (quartile distance over median); by its median, 17%.  The window is
short because slow spells can be shorter than a second: on six later mct
runs a 1 s window left job_s_p50 a spread of 10%, a 0.1 s window 5%.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
NOMINAL_S = 0.00045
WINDOW_S = 0.1  # samples this close to an interval also count for it
MIN_SAMPLES = 5


def kernel():
    table = {}
    x = Fraction(1, 3)
    step = Fraction(1, 7)
    acc = 0.0
    for i in range(64):
        x = (x * 3 + step) % 5
        key = (i & 15, x.numerator % 97)
        table[key] = table.get(key, 0.0) + float(x)
        acc += math.sin(float(x))
    return acc + len(table)


class SpeedProbe:
    def __init__(self):
        self.starts = []  # start time of each kernel sample, ascending
        self.kernel_s = []
        self.paused = 0.0  # total time spent in the handler

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.kernel_s.append(end - start)
        self.paused += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Elapsed-time clock that excludes the handler's own time."""
        return time.perf_counter() - self.paused

    def factor(self, start, end):
        """NOMINAL_S over the mean kernel time around [start, end].

        `start` and `end` are perf_counter readings.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return NOMINAL_S / statistics.fmean(self.kernel_s[lo:hi])

    def summary(self):
        return {"samples": len(self.kernel_s),
                "median_s": statistics.median(self.kernel_s),
                "mean_s": statistics.fmean(self.kernel_s),
                "min_s": min(self.kernel_s), "max_s": max(self.kernel_s)}
