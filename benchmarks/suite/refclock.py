"""Durations in reference seconds: wall time scaled by a calibration kernel.

The benchmark runs on small virtual machines whose cores are shared with
other tenants.  There, one campaign measured minutes apart took anywhere
from 1x to 2x as long, in CPU time as well as wall time, and no steal
time shows in ``/proc/stat``.  A fixed pure-Python kernel slows down
nearly in step with the workload, so an episode process keeps a series
of kernel runs (``(start, duration)`` pairs, ``start`` on the
system-wide ``time.monotonic`` clock) and an interval ``[a, b]`` is
reported as the integral over ``[a, b]`` of::

    REF_KERNEL_S / median(kernel durations around that moment)

taken outside the kernel runs themselves: while the kernel runs the
integrand is zero, so its own time is cut out of every interval.

The kernel never runs alongside the workload.  Campaign episodes run it
from an interval-timer signal every ``PERIOD_S``: Python runs the
handler on the main thread between two bytecodes, so the workload is
paused for it, and a handler due while the workload is inside C code
(compression, hashing, file I/O, with or without the GIL) waits until
that call returns.  The serving episode runs the kernel between short
runs of requests, when no request is outstanding.

Storage is shared as well: with another process writing, one ``fsync``
took six times as long, and the 810 of a ``steady`` campaign added a
sixth to its reference time while the kernel did not move.  So each
``os.fsync`` call is cut out of the intervals around it like a kernel
run, and charged ``REF_FSYNC_S`` instead (:func:`time_flushes`).  A
change that adds or removes flushes still moves the reported time.

On an uncontended core a reference second is about a wall-clock second;
raw wall seconds (kernel runs cut out, flushes kept) are reported next
to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Nominal kernel duration (its typical time on an idle 2.0 GHz core).
REF_KERNEL_S = 0.0021

#: Nominal duration of one ``os.fsync`` (a small file on an idle local disk).
REF_FSYNC_S = 0.0003

#: Time from the end of one timer-driven kernel run to the next; the
#: kernel takes about 2 % of it.
PERIOD_S = 0.1

#: Samples in the rolling median that sets the speed at each moment.
MIN_SAMPLES = 5

_MASK = (1 << 128) - 1

Interval = Tuple[float, float]
Sample = Tuple[float, float]


def kernel_seconds() -> float:
    """Run the calibration kernel once and return its wall duration.

    Interpreter work of the kind the workloads do: 128-bit integer
    arithmetic, dict and set inserts, one sort.
    """
    start = time.perf_counter()
    table = {}
    members = set()
    x = 0x9E3779B97F4A7C15
    for i in range(4000):
        x = (x * 0xBF58476D1CE4E5B9 + i) & _MASK
        table[x & 0xFFFFF] = i
        members.add(x >> 64)
    sorted(members)
    return time.perf_counter() - start


def sample() -> Sample:
    """One kernel run on this thread, collector off, as a series entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return time.monotonic(), kernel_seconds()
    finally:
        if enabled:
            gc.enable()


def time_flushes() -> List[Interval]:
    """From now on, record the interval of every ``os.fsync`` of this process.

    The program calls ``os.fsync`` through the module attribute, so the
    timed replacement sees every call.
    """
    flushes: List[Interval] = []
    fsync = os.fsync

    def timed(fd):
        start = time.monotonic()
        try:
            return fsync(fd)
        finally:
            flushes.append((start, time.monotonic()))

    os.fsync = timed
    return flushes


class Sampler:
    """Runs the kernel on the main thread every ``PERIOD_S``, from SIGALRM.

    The timer is armed again only after each kernel run ends, so runs
    never nest.  Must be started and stopped on the main thread.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._running = False

    def start(self) -> "Sampler":
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def _tick(self, *_signal) -> None:
        if self._running:
            self.samples.append(sample())
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> List[Sample]:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


class SpeedSeries:
    """Kernel samples over time; converts raw intervals to reference seconds.

    The speed factor is piecewise constant: from the end of each kernel
    run to the start of the next it is ``REF_KERNEL_S`` over the median
    of the ``MIN_SAMPLES`` samples centred there, and zero during the
    runs.  An interval's reference duration is the integral of that
    factor over it, less the integral over each flush inside it, plus
    ``REF_FSYNC_S`` per such flush; so the parts of an interval always
    add up to the whole.
    """

    def __init__(self, samples: Sequence[Sequence[float]],
                 flushes: Sequence[Sequence[float]] = ()) -> None:
        if len(samples) < MIN_SAMPLES:
            raise ValueError(f"a speed series needs {MIN_SAMPLES} kernel samples, "
                             f"got {len(samples)}")
        ordered = sorted((float(t), float(d)) for t, d in samples)
        self.starts = [t for t, _d in ordered]
        self.durations = [d for _t, d in ordered]
        self.ends = [t + d for t, d in ordered]
        last = len(ordered) - MIN_SAMPLES
        self.factors = [
            REF_KERNEL_S / statistics.median(
                self.durations[min(max(0, i - MIN_SAMPLES // 2), last):][:MIN_SAMPLES])
            for i in range(len(ordered))
        ]
        self._unit = [1.0] * len(ordered)
        #: reference and raw seconds from the first sample to each sample
        self._reference = self._prefix(self.factors)
        self._raw = self._prefix(self._unit)
        # flushes never overlap (one thread), so starts and ends both sort
        flushes = sorted((float(a), float(b)) for a, b in flushes)
        self._flush_starts = [a for a, _b in flushes]
        self._flush_ends = [b for _a, b in flushes]
        self._flush_reference = [0.0]
        for flush in flushes:
            self._flush_reference.append(self._flush_reference[-1] + self._integral(flush))

    def _prefix(self, factors: Sequence[float]) -> List[float]:
        cumulative = [0.0]
        for i in range(1, len(self.starts)):
            gap = max(0.0, self.starts[i] - self.ends[i - 1])
            cumulative.append(cumulative[-1] + gap * factors[i - 1])
        return cumulative

    def _span(self, interval: Interval, factors: Sequence[float],
              cumulative: Sequence[float]) -> float:
        """The integral of ``factors`` over ``interval``."""

        def at(t: float) -> float:
            i = bisect.bisect_right(self.starts, t) - 1
            if i < 0:  # before the first sample the first factor holds
                return (t - self.starts[0]) * factors[0]
            return cumulative[i] + max(0.0, t - self.ends[i]) * factors[i]

        a, b = interval
        return at(b) - at(a)

    def _integral(self, interval: Interval) -> float:
        return self._span(interval, self.factors, self._reference)

    def scale(self, interval: Interval) -> float:
        """Reference seconds in ``interval``."""
        a, b = interval
        first = bisect.bisect_left(self._flush_starts, a)
        stop = bisect.bisect_right(self._flush_ends, b)
        flushed = 0.0
        if stop > first:
            flushed = (self._flush_reference[stop] - self._flush_reference[first]
                       - (stop - first) * REF_FSYNC_S)
        return self._integral(interval) - flushed

    def raw(self, interval: Interval) -> float:
        """Wall seconds in ``interval`` outside the kernel runs."""
        return self._span(interval, self._unit, self._raw)

    def factor(self, a: float, b: float) -> float:
        """Mean reference seconds per measured second over ``[a, b]``, a < b."""
        return self.scale((a, b)) / (b - a)

    def total(self, intervals: Sequence[Interval]) -> float:
        return sum(self.scale(interval) for interval in intervals)

    def kernel_median(self) -> float:
        return statistics.median(self.durations)
