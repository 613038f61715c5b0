"""A fixed reference kernel that tracks the speed of a shared host.

On a shared host the same analysis can take twice as long from one minute
to the next.  The benchmark therefore times this kernel right before and
right after each timed interval, and every PERIOD_S seconds inside it
(from a SIGALRM handler, so no thread or process is added), and scales
the interval by NOMINAL_S over the mean of those kernel times.  The
factor does not depend on the interval's length, so the scaled time is
linear in the program's time: a twofold speed-up reads as twofold on any
host.  The time the handler spends is taken out of the interval.

The kernel is exact Gaussian elimination with `fractions.Fraction`, the
arithmetic plqstab's exact layers run on.  It lives here, so no change to
the program moves it, and the garbage collector is paused while it runs,
so the program's heap does not move it either.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Kernel seconds on the reference host (2-core x86-64, Python 3.11) when
# no other load slows it.
NOMINAL_S = 0.008
# How often the kernel is timed inside a long interval.
PERIOD_S = 0.25
_SIZE, _REPEATS = 10, 5


def _eliminate():
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(_SIZE)]
         for i in range(_SIZE)]
    for k in range(_SIZE):
        for i in range(k + 1, _SIZE):
            f = a[i][k] / a[k][k]
            for j in range(k, _SIZE):
                a[i][j] -= f * a[k][j]
    return a[-1][-1]


def kernel_seconds():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            _eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Interval:
    """One timed interval: `seconds` of the program, the kernel times taken
    around and inside it, and `scaled` seconds on the reference host."""

    def __init__(self, seconds, kernels):
        self.seconds = seconds
        self.kernels = kernels
        self.kernel_mean = sum(kernels) / len(kernels)
        self.scaled = seconds * NOMINAL_S / self.kernel_mean


class Sampler:
    """Times consecutive intervals; the kernel time after one interval is
    the one before the next.  With `inside` false, the kernel runs only
    between intervals.  The SIGALRM handler stays installed for the life
    of the process, and does nothing outside an interval."""

    def __init__(self, inside=True):
        self._inside = inside
        self._kernels = None
        self._paused = 0.0
        if inside:
            signal.signal(signal.SIGALRM, self._tick)
        self._before = kernel_seconds()

    def _tick(self, signum, frame):
        if self._kernels is None:
            return
        t0 = time.perf_counter()
        self._kernels.append(kernel_seconds())
        self._paused += time.perf_counter() - t0

    def time(self, fn, *args):
        """(fn's result, Interval).  Exceptions from fn propagate."""
        self._kernels, self._paused = [self._before], 0.0
        if self._inside:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if self._inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            kernels, self._kernels = self._kernels, None
        self._before = kernel_seconds()
        kernels.append(self._before)
        return result, Interval(elapsed - self._paused, kernels)
