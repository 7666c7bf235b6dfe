"""Wall time scaled to a reference machine speed.

On a shared machine the speed of pure-Python arithmetic drifts by tens of
percent within seconds, and the process's CPU time drifts with it, so raw
wall times of identical work spread too widely to compare two commits.  A
calibration slice, a fixed amount of mpf arithmetic, measures the current
speed.  Slices run just before and just after each timed call and every
``SAMPLE_INTERVAL_S`` during it from a SIGALRM handler; the time spent in slices inside the call is subtracted from it.  The
call's time is then multiplied by ``NOMINAL_SLICE_S / mean(slice times)``: a
slower program moves the result in full, a slower machine does not.
"""

import signal
import statistics
import time

from mpmath import mp, mpf

SLICE_PREC = 288
SLICE_ITERATIONS = 1000
# About the slice's median on the 2-CPU x86-64 machine the benchmark was
# written on (quartiles 9.9 and 11.4 ms, extremes 5.9 and 17 ms).
NOMINAL_SLICE_S = 0.010
SAMPLE_INTERVAL_S = 0.1


def slice_seconds():
    """Seconds taken by one calibration slice now."""
    t0 = time.perf_counter()
    with mp.workprec(SLICE_PREC):
        x, s = mpf(1) / 3, mpf(0)
        for k in range(SLICE_ITERATIONS):
            s += x * k / (k + 1)
    return time.perf_counter() - t0


class ReferenceClock:
    """Times calls back to back; each call shares a slice with its neighbours.

    ``pauses`` collects (start, seconds) of every slice run inside a call.
    """

    def __init__(self):
        self.pauses = []
        self._last = slice_seconds()

    def measure(self, fn):
        """Run ``fn()``; returns (result, wall seconds, seconds at reference speed)."""
        inside = []
        previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(
            (time.perf_counter(), slice_seconds())))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # a slice that started after ``end`` still measures the speed
        wall = end - t0 - sum(d for start, d in inside if start < end)
        self.pauses.extend(inside)
        after = slice_seconds()
        speed = statistics.mean([self._last, *(d for _, d in inside), after])
        self._last = after
        return result, wall, wall * NOMINAL_SLICE_S / speed
