"""The reference kernel: a fixed piece of work timed between operations.

The reference machine is a shared VM.  Its speed drifts with its neighbours'
load: a fixed joint solve, repeated for five minutes, took 0.54-0.94 s, and
the same 16-network joint pass measured 11-13 s in one hour and 13-17 s in
the next.  Slow stretches last from seconds to longer than a run, and no
amount of repetition inside a run averages out a stretch that covers it.  So
between operations, at most every ``EVERY_S`` seconds, the benchmark times
this kernel: three small HiGHS LPs through ``scipy.optimize.linprog``, after
one untimed warm-up solve.  It calls nothing in roadmnet.  A run's timings
are reported at the reference speed: measured seconds times the square root
of ``REFERENCE_S`` over the run's median kernel time (``Pacer.scale``).  The
root is there because the kernel swings further than the workload does:
across 66 runs of four workloads, the measured pass time went with the
kernel time to the power 0.54-0.94 (median 0.73), and the full ratio turned
a fast stretch into a slow-looking run.  On a machine that runs the kernel
in ``REFERENCE_S`` the scale is 1; a change to roadmnet moves the reported
times exactly as it moves the measured ones.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Kernel seconds on the reference machine (2 vCPUs, Python 3.11, scipy 1.17)
# in its faster stretches.
REFERENCE_S = 0.008
EVERY_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.random((40, 60))
_B = _A.sum(axis=1)
_C = -_rng.random(60)


def kernel() -> float:
    """Seconds of three fixed LP solves, timed after a warm-up solve.

    Timed cold, right after a long operation, the kernel slowed down about
    twice as much as the operations did when the neighbours' load rose.
    The garbage collector is off meanwhile: a collection would time the
    workload's heap, not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")
        start = time.perf_counter()
        for _ in range(3):
            linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Kernel timings taken between operations, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def tick(self) -> None:
        """Time the kernel if ``EVERY_S`` has passed since the last time."""
        start = time.perf_counter()
        if start - self._last < EVERY_S:
            return
        self.samples.append(kernel())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def scale(self) -> float:
        """Reference seconds per measured second in this run."""
        return math.sqrt(REFERENCE_S / statistics.median(self.samples))


PACER = Pacer()
