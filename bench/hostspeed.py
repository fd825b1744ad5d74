"""Host-speed calibration: op times scaled to a reference host speed.

The benchmark runs on shared hosts whose speed is not steady.  On a 2-vCPU
cloud VM (Intel Xeon, 2.0 GHz, Python 3.11) a fixed pure-Python loop took
1.0 to 1.8 times its fastest time, switching between fast and slow stretches
within fractions of a second and spending minutes more in one or the other;
CPU time moved with wall time (no steal), so the host itself ran slower.  Raw
op times then spread by up to 30% of their median from run to run (IQR over
ten seeds).

So the worker brackets every operation with a short calibration loop: fixed
code of the benchmark's own, which no change to the program can speed up or
slow down.  An op's time is scaled by ``REFERENCE_S`` over the mean
calibration time around it (the samples just before and after it, and every
sample within one op duration on either side, so that a long op is scaled by
the host speed over a stretch as long as itself).  A scaled time reads as
"milliseconds on a host where the calibration loop takes 1 ms"; a program
change that makes an op slower makes its scaled time larger by the same
share, while a slower host does not.  The run record keeps the raw times.

Only in-process work is scaled.  Cold processes (the set-up launches, the
cold CLI probes) are timed raw: the scheduler may run a child on the other
vCPU, and in trials on the host above, scaling cold CLI processes by the
parent's calibration loop widened their spread instead of narrowing it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

#: Scaled times are the times on a host where one ``_loop()`` takes this long.
REFERENCE_S = 1.0e-3
#: Calibration samples within this distance of an op's interval also count.
SLACK_S = 0.005
#: ``sample_if_stale`` takes a sample when the last one ended longer ago; as
#: STALE_S < SLACK_S, the samples right before and after an op always count.
STALE_S = 0.001


def _loop() -> float:
    """The calibration work: float arithmetic and list appends, as in the
    program's own Python loops; about 1 ms on the host above."""
    out = []
    x = 0.1
    for i in range(4000):
        x = math.sqrt(x * x + 1.0) * 0.5 + (i % 13) / 7.0
        out.append(x)
    return x


class Calibration:
    """Calibration samples of one run, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        _loop()
        self.ends.append(time.perf_counter())

    def sample_if_stale(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] > STALE_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean time of the calibration samples that
        overlap [start - reach, end + reach], reach = op duration + SLACK_S."""
        reach = end - start + SLACK_S
        lo = bisect.bisect_left(self.ends, start - reach)
        hi = bisect.bisect_right(self.starts, end + reach)
        if lo >= hi:
            raise ValueError("no calibration sample around the interval")
        return REFERENCE_S / statistics.fmean(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def summary(self) -> dict:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        return {
            "samples": len(durations),
            "median_s": statistics.median(durations),
            "mean_s": statistics.fmean(durations),
        }
