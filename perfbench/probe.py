"""Host-speed probe: op times at a fixed reference speed.

The shared hosts this benchmark runs on switch between fast and slow
phases that last from seconds to minutes: back-to-back `run_suite` calls
in one process took from 1.4 s to 2.6 s. A run cannot average that out.
So every PERIOD seconds a SIGALRM handler, in the benchmark's own thread,
times a small fixed pure-Python kernel: one untimed run to warm the
caches, then a timed one. A span of work is then
- cleaned: the handler's own time inside the span is taken out, and
- scaled by REF_S over the mean kernel time of the samples in and
  around the span,
which gives the time the work would have taken at the speed where the
kernel takes REF_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from itertools import accumulate

PERIOD = 0.05
# Samples taken on each side of a span when scaling it: short ops hold
# none of their own, and a mean of two or three follows one stall.
WINDOW = 4
# Kernel time at the reference speed: about its median on the machine
# where the benchmark was written (Python 3.11, 2 vCPUs).
REF_S = 0.0002

perf = time.perf_counter


def kernel():
    """A fixed mix of what latkit's loops do: tuples, dicts, lists, bit ops."""
    acc = 0
    d = {}
    table = list(range(64))
    for i in range(600):
        t = (i & 63, i >> 2)
        d[t] = table[t[0]] ^ i
        acc += (i & -i).bit_length() + len(t)
    return acc


class SpeedProbe:
    """Kernel samples taken on a timer while the `with` block runs."""

    def __init__(self):
        self.at = []      # perf_counter time each sample ended
        self.cost = []    # seconds the timed kernel run took
        self.took = []    # seconds the whole sample took
        self._took_sums = None

    def sample(self, *_):
        """Take one sample; also the SIGALRM handler.

        GC is off while the kernel runs, so that a collection of the
        workload's heap is not counted as kernel time.
        """
        gc_was_on = gc.isenabled()
        gc.disable()
        start = perf()
        try:
            kernel()
            t0 = perf()
            kernel()
        except RecursionError:  # fired deep inside a recursion: skip it
            return
        finally:
            if gc_was_on:
                gc.enable()
        t1 = perf()
        self.at.append(t1)
        self.cost.append(t1 - t0)
        self.took.append(t1 - start)

    def _arm(self, period):
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        self._arm(PERIOD)
        return self

    def __exit__(self, *exc):
        self._arm(0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def inside(self, t0, t1):
        """Seconds of samples that ended within [t0, t1]."""
        if self._took_sums is None:
            self._took_sums = [0.0] + list(accumulate(self.took))
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        return self._took_sums[j] - self._took_sums[i]

    def scale(self, t0, t1):
        """REF_S over the mean kernel time of the samples within [t0, t1]
        and the WINDOW nearest ones on each side.

        A mean, not a median: the host slows down in stalls more than in
        steady speed, and only the kernel samples that a stall hits
        measure its share of the work's time.
        """
        i = max(bisect.bisect_left(self.at, t0) - WINDOW, 0)
        j = min(bisect.bisect_right(self.at, t1) + WINDOW, len(self.at))
        return REF_S / statistics.fmean(self.cost[i:j])

    def clean(self, t0, t1, extra=0.0):
        """Seconds of work in [t0, t1], less `extra` seconds not to count
        and the samples' own time, at the reference speed."""
        work = max(t1 - t0 - extra - self.inside(t0, t1), 0.0)
        return work * self.scale(t0, t1)

    def speed(self):
        """REF_S over the mean kernel time of the whole run."""
        return REF_S / statistics.fmean(self.cost)
