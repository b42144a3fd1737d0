"""Machine-speed sampling, so job times compare across runs on a shared host.

On a shared machine the speed of one core moves between plateaus a few
seconds long, by up to a factor of two, and whole runs can sit on a slow
plateau.  A job's raw wall time carries that noise.  While jobs run, a
SIGALRM handler times a fixed slice of work every PERIOD_S seconds of wall
time.  The slice mixes interpreted arithmetic with small NumPy calls, as
the program does.  In trials a pure-Python slice tracked the point and
analysis workloads best and a NumPy-call slice the window workloads (whose
raw run-to-run spread of 0.23 it cut to 0.02-0.03); the mix serves both.

A job's reference time is its wall time, minus the time spent in the
slices, scaled by REF_SLICE_S times the mean inverse slice time over the
job: the seconds the job would take on a machine where one slice takes
REF_SLICE_S (near this 2-core host's usual speed).  The slice is benchmark
code, unchanged by any program change, so a faster program still reads
faster; only the machine's drift is divided out.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
REF_SLICE_S = 400e-6
_GRID = np.linspace(0.0, 1.0, 129)


def _slice() -> float:
    acc = 0.0
    for i in range(30):
        nodes = np.linspace(0.0, 1.0 + i, 129)
        acc += float(np.dot(_GRID, np.sqrt(nodes) * 0.5))
    for i in range(1000):
        acc += math.sqrt(i * 1e-3) * 0.5
    return acc


class SpeedSampler:
    """Context manager sampling slice times; main thread only."""

    def __init__(self):
        self.count = 0
        self.inverse_sum = 0.0  # sum of 1/slice seconds
        self.busy_s = 0.0
        self.last = REF_SLICE_S
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _slice()
        dt = time.perf_counter() - t0
        self.count += 1
        self.inverse_sum += 1.0 / dt
        self.busy_s += dt
        self.last = dt

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float]:
        return self.count, self.inverse_sum, self.busy_s

    def reference_seconds(self, wall_s: float, start: tuple[int, float, float]) -> float:
        """Reference time of work that took wall_s since `start` (a mark)."""
        n0, inv0, busy0 = start
        n = self.count - n0
        mean_inverse = (self.inverse_sum - inv0) / n if n else 1.0 / self.last
        return (wall_s - (self.busy_s - busy0)) * REF_SLICE_S * mean_inverse
