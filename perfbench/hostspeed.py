"""Host-speed normalisation of the end-to-end timings.

The benchmark runs on a shared host whose speed moves: the same code
runs up to about 40% slower in phases from seconds to minutes long, on
each CPU on its own, with no steal time, in CPU time as much as in wall
time.  Runs of
the same commit then spread past any useful bound.

A fixed calibration slice -- benchmark code, which no change to the
program under test can touch: Python object and dict work plus small
numpy arithmetic, as in the program's per-interval paths -- is timed
(in thread CPU time) next to the measured work.  Each measured time is
multiplied by ``REFERENCE_S`` over the median of the calibration times
nearest to it, i.e. reported at the host speed on which the slice takes
``REFERENCE_S``.  The calibration slices run off every clock.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import threading
import time
from typing import List

import numpy as np

__all__ = ["REFERENCE_S", "HostSpeed", "calibration_slice"]

#: Calibration slice time, in seconds, at the reference host speed: a
#: fixed scale.  On the 2-vCPU VM the committed baseline was made on the
#: slice took 1.8 ms in a fast phase and about 3 ms in a slow one.
REFERENCE_S = 0.0018
#: Calibration samples that set the speed at one moment: the nearest ones in time.
NEAREST = 15
#: Untimed slices run first, so imports and cold caches are not a sample.
WARM_UP = 5
#: Seconds per piece when a long span is scaled (serve's drive).
SPAN_PIECE_S = 0.5

_MATRIX = np.linspace(0.1, 1.0, 8 * 24).reshape(8, 24)
_WEIGHTS = np.linspace(1.0, 0.5, 24)


class _Point:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: float) -> None:
        self.index = index
        self.value = value


def calibration_slice() -> float:
    """A fixed piece of work; returns a number so nothing is optimised away."""
    table = {}
    acc = 0.0
    for i in range(1200):
        point = _Point(i, i * 0.5)
        table[i & 63] = point
        acc += point.value * 1.0001 - (point.index % 7)
    acc += sum(p.index for p in table.values())
    for i in range(120):
        x = _MATRIX @ _WEIGHTS
        y = np.exp(-x) * 1.5 + np.maximum(x, 0.2)
        acc += float(y.sum()) + float(np.mean(_MATRIX[i % 8]))
    return acc


class HostSpeed:
    """Calibration samples over one run, and the speed factor they give.

    Times are ``time.perf_counter()`` seconds: on Linux the clock of
    ``time.monotonic_ns`` too, so times from other processes compare.
    """

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cal_s: List[float] = []
        self._last = float("-inf")
        self._lock = threading.Lock()
        for _ in range(WARM_UP):
            calibration_slice()

    def sample(self) -> None:
        """Time one calibration slice in this thread's CPU time."""
        wall = time.perf_counter()
        started = time.thread_time()
        calibration_slice()
        spent = time.thread_time() - started
        with self._lock:
            self.at.append((wall + time.perf_counter()) / 2.0)
            self.cal_s.append(spent)
            self._last = time.perf_counter()

    def due(self, every_s: float) -> None:
        """Sample unless the last sample is less than ``every_s`` old."""
        if time.perf_counter() - self._last >= every_s:
            self.sample()

    @contextlib.contextmanager
    def background(self, every_s: float = 0.1):
        """Sample from a thread every ``every_s`` while the block runs.

        For work spread over all CPUs in other processes: the sampling
        thread moves to the next CPU of this process's affinity set
        before each slice, because the CPUs of a shared host do not keep
        the same speed.  The slices cost about 2% of one CPU at the
        default period.
        """
        stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))

        def loop() -> None:
            turn = 0
            while not stop.wait(every_s):
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
                turn += 1
                self.sample()

        thread = threading.Thread(target=loop, name="perfbench-hostspeed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def factor(self, at: float) -> float:
        """``REFERENCE_S`` / median calibration time near ``at``."""
        if not self.cal_s:
            raise RuntimeError("no calibration samples")
        i = bisect.bisect_left(self.at, at)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_S / statistics.median(self.cal_s[lo: lo + NEAREST])

    def scale_span(self, start: float, end: float) -> float:
        """The span from ``start`` to ``end`` at the reference speed.

        Each ``SPAN_PIECE_S`` of it is scaled by the factor at its middle, so
        a span through a slow and a fast phase counts each for as long
        as it lasted.
        """
        pieces = max(1, math.ceil((end - start) / SPAN_PIECE_S))
        step = (end - start) / pieces
        return sum(self.scale(step, start + (i + 0.5) * step) for i in range(pieces))

    def scale(self, seconds: float, at: float) -> float:
        """``seconds`` measured around ``at``, at the reference speed."""
        return seconds * self.factor(at)

    def describe(self) -> str:
        """How many samples, their median and the factor's range."""
        factors = [self.factor(t) for t in self.at]
        return "host speed: {} calibration slices, median {:.3f} ms (reference {:.3f} ms), " \
               "factor {:.3f}-{:.3f}".format(
                   len(self.cal_s), 1e3 * statistics.median(self.cal_s), 1e3 * REFERENCE_S,
                   min(factors), max(factors))
