"""Host speed reference: puts op times on one scale across the host's phases.

The 2-vCPU test host changes speed within seconds: compute-bound code, pure
Python and small BLAS calls alike, runs up to about 1.8x slower than in its
fast phase, and which phase dominates drifts over minutes. CPU time grows
with wall time, so this is not preemption. A raw op time therefore reports
the phase the op fell in as much as the program.

A fixed pure-Python reference kernel that does not touch qcloak reads the
host's current speed. It is timed right before and right after every op
and, in untraced runs, every SAMPLE_S seconds from a timer signal handled
in the benchmark's own thread. An op's normalised time is its wall time,
less the time spent sampling inside it, multiplied by the mean of
REF_S / (reference time) over the samples taken around it: seconds at the
speed at which the kernel takes REF_S. Sampling every 30 ms rather than
every 200 ms halved the per-op scatter of short ops, because the speed
changes within a second.

This module must not import numpy: the set-up it times starts before.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REF_LOOPS = 3000
# The kernel's time in the fast phase of the 2-vCPU x86-64 test host
# (Python 3.11). It only sets the scale: normalised seconds are seconds at
# that speed, and raw wall times are kept beside them.
REF_S = 0.00035
SAMPLE_S = 0.03


def reference_kernel() -> int:
    """Interpreter-bound work of the kind qcloak's Python does: arithmetic,
    dict stores and list appends."""
    acc, table, items = 0, {}, []
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        items.append(acc & 7)
    return acc + len(table) + sum(items)


class SpeedSampler:
    """Reference-kernel samples (midpoint, seconds), taken on demand and,
    while ``start(periodic=True)`` is in force, every ``interval`` seconds."""

    def __init__(self, interval: float = SAMPLE_S):
        self.interval = interval
        self.times: list[float] = []
        self.refs: list[float] = []
        self.overhead = 0.0  # seconds spent sampling, handler included
        self._previous_handler = None
        self._periodic = False
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.refs.append(t1 - t0)
        self.overhead += perf_counter() - t0
        self._busy = False

    def start(self, periodic: bool) -> None:
        self.sample()
        if periodic:
            self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            self._periodic = True

    def stop(self) -> None:
        if self._periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            self._periodic = False
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from wall seconds in [t0, t1] to normalised seconds: the mean
        of REF_S / reference time over the samples within one interval of it."""
        lo = bisect.bisect_left(self.times, t0 - self.interval)
        hi = bisect.bisect_right(self.times, t1 + self.interval)
        refs = self.refs[lo:hi]
        if not refs:  # no sample near: take the nearest one
            i = min(range(len(self.times)), key=lambda k: abs(self.times[k] - t0))
            refs = [self.refs[i]]
        return statistics.fmean(REF_S / r for r in refs)

    def slowdown(self) -> float:
        """Median reference time over REF_S: how slow the host ran."""
        return statistics.median(self.refs) / REF_S
