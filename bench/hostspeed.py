"""Host-speed sampling, so that timings read at one nominal host speed.

The benchmark's host is shared: the same pass of the same code runs up to
1.8 times slower for seconds at a time, and a 25-second run can sit wholly in
a slow or a fast stretch.  A fixed kernel timed at short intervals in the
same process, on the same CPU and in the same stretch as the measured code,
slows down with it (correlation above 0.9 against sweep passes), and it
never runs any package code, so a change to the package does not move it.

``Sampler`` runs ``kernel`` from a ``SIGALRM`` handler every ``INTERVAL_S``
seconds while it is active.  ``clock`` is ``time.perf_counter`` less the
time spent in the handler, so intervals measured with it leave the sampling
out.  ``factor`` gives, for the samples taken during an interval, the mean of
``NOMINAL_S / sample``: the interval's time times that factor is the time it
would have taken at the speed where the kernel takes ``NOMINAL_S``.  The
mean of the inverse follows the time integral of the host's speed, and a
sample stretched by a preemption only pulls it slightly.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import special

INTERVAL_S = 0.1
# kernel time at the nominal host speed: a fixed scale, near the slow end of
# the 0.9-1.7 ms the kernel takes on a 2-vCPU Intel Xeon share with numpy 2.4
# and scipy 1.17
NOMINAL_S = 1.5e-3

_X = np.linspace(0.1, 5.0, 553)
_own = 0.0   # seconds spent in the handler of the active sampler


def kernel() -> float:
    """A fixed mix like the package's: interpreted loops over dicts and
    strings, then erfc and log1p on arrays of an outer scan's length."""
    acc, table = 0, {}
    for i in range(1500):
        table[i & 63] = (i * 7) % 13
        acc += table[i & 63] + len(str(i))
    total = float(acc)
    for i in range(40):
        total += float(special.erfc(_X * (1.0 + 1e-3 * i)).max())
        total += float(np.log1p(_X).sum())
    return total


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def clock() -> float:
    """perf_counter less the time the active sampler spent sampling."""
    return time.perf_counter() - _own


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` seconds while active."""

    def __init__(self):
        self.times = []     # on the clock, at the start of each sample
        self.samples = []   # seconds the kernel took
        self._previous = None

    def _handler(self, signum, frame):
        global _own
        self.times.append(clock())
        seconds = time_kernel()
        self.samples.append(seconds)
        _own += seconds

    def __enter__(self):
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Speed factor over the samples taken between two clock times; an
        interval too short to hold a sample takes the sample nearest to
        its middle."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        window = self.samples[lo:hi]
        if not window:
            if not self.samples:
                raise RuntimeError("no host-speed sample was taken")
            middle = (start + end) / 2.0
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                       key=lambda i: abs(self.times[i] - middle))
            window = [self.samples[near]]
        return statistics.fmean(NOMINAL_S / s for s in window)
