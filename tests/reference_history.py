"""History components the tests integrate kernels against.

`FnComponent` reads a numpy-compatible callable and computes every feedback
the plain way: a density kernel's as dot(weights, f(u(nodes)) * density) over
the kernel's plan at t, a point kernel's as f(u(lag(t))).  It is the oracle
that the integrator's per-step stage view, which shares that work between
calls, is checked against.
"""

from typing import Callable

import numpy as np

from coopdelay.integrator import _StageComponent


class FnComponent:
    """A history component backed by a numpy-compatible callable."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, s: float) -> float:
        return float(self._fn(s))

    def array(self, ss: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(ss, dtype=float)), dtype=float)

    def feedback(self, kernel, f, t: float, n_quad: int) -> float:
        plan = kernel.plan(t, n_quad)
        return float(np.dot(plan.weights, f.eval_array(self.array(plan.nodes)) * plan.density))

    def point_feedback(self, kernel, f, t: float) -> float:
        return f(self(kernel.lag.evaluate(t)))


def stage_components(view):
    """The x and y components that `integrate` builds on a stage view."""
    return _StageComponent(view, 0), _StageComponent(view, 1)
