"""Samples how fast the core runs while the workload process works.

The benchmark runs on cores shared with other work. Even its CPU time, which
leaves out the time other work held the core, swings by up to a factor of two
within seconds, because the neighbours share caches and execution units. A
Pacer therefore interrupts the process every PERIOD_S of CPU time and times a
small fixed reference computation (about 0.35 ms). The mean of the readings
taken during a job is the pace of the core over that job; the job's CPU time
divided by it reads as CPU seconds at a fixed reference pace. The time spent
in the reference computation is kept apart and taken out of the job's time.

The computation is the benchmark's own and never calls projgeo, so no change
to the program can move it. It mimics the program's hot path: a recursive
walk over a fixed expression tree that builds small Taylor jets (value,
gradient and Hessian as numpy arrays). It leans on the interpreter, on
allocation and on small-array numpy calls in about the program's mix.

All times here are CPU time of the calling thread: while a CPU timer is
armed, the kernel updates the process-wide CPU clock only at scheduler ticks.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

# a reading of 1.0 means one reference computation took this much CPU time
REFERENCE_S = 0.00035
PERIOD_S = 0.02      # CPU time between readings
MIN_READINGS = 8     # a shorter span borrows readings from either side
DIM = 3
DEPTH = 5            # 2**5 leaves, 31 inner nodes


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray):
        self.v, self.g, self.h = v, g, h

    def mean(self, o: "_Jet") -> "_Jet":
        return _Jet(0.5 * (self.v + o.v), 0.5 * (self.g + o.g), 0.5 * (self.h + o.h))

    def __mul__(self, o: "_Jet") -> "_Jet":
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g,
                    self.v * o.h + o.v * self.h + np.outer(self.g, o.g) + np.outer(o.g, self.g))


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        if rng.random() < 0.5:
            return ("x", rng.randrange(DIM))
        return ("c", rng.uniform(0.5, 1.0))
    return (rng.choice("+*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


_TREE = _tree(random.Random(0), DEPTH)


def _eval(node, leaves: list) -> _Jet:
    op = node[0]
    if op == "x":
        return leaves[node[1]]
    if op == "c":
        return _Jet(node[1], np.zeros(DIM), np.zeros((DIM, DIM)))
    a = _eval(node[1], leaves)
    b = _eval(node[2], leaves)
    return a.mean(b) if op == "+" else a * b


class Pacer:
    """Reads the core's pace every PERIOD_S of CPU time between start and stop."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0        # CPU seconds taken by the readings themselves
        self.spent_wall = 0.0   # and their wall seconds

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._read)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _read(self, signum, frame) -> None:
        # The cyclic collector is held off: the computation makes no cycles,
        # and a full collection of the program's objects would be charged to
        # the core's pace.
        w0, t0 = perf_counter(), thread_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = thread_time()
            leaves = [_Jet(0.5 + 0.1 * i, np.eye(DIM)[i], np.zeros((DIM, DIM)))
                      for i in range(DIM)]
            _eval(_TREE, leaves)
            self.readings.append((thread_time() - t1) / REFERENCE_S)
        finally:
            if enabled:
                gc.enable()
            self.spent += thread_time() - t0
            self.spent_wall += perf_counter() - w0

    def pace(self, first: int, end: int) -> float:
        """Mean of readings first..end-1, widened to MIN_READINGS if it is shorter."""
        count = len(self.readings)
        if count == 0:
            raise RuntimeError("no pace readings were taken")
        if end - first < MIN_READINGS:
            first = max(0, min((first + end - MIN_READINGS) // 2, count - MIN_READINGS))
            end = min(count, first + MIN_READINGS)
        return statistics.fmean(self.readings[first:end])
