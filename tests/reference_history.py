"""History components and feedbacks the tests check the integrator against.

`FnComponent` reads a numpy-compatible callable and computes every feedback
the plain way: a density kernel's as dot(weights, f(u(nodes)) * density) over
the kernel's plan at t with the component's panel count, a point kernel's as
f(u(lag(t))).

`step_grid_feedback` is the integrator's density feedback at a stage time,
by the definition of its step-grid rule and one Simpson panel at a time in
plain Python: the head panel from the floor h(t) to the first step end at or
after it, every whole step up to the step start with its midpoint read from
the stored Hermite cubic, and the tail panel from the step start to the
stage time, whose midpoint is the in-step read.  It shares no code with the
per-step view (no grid, no weight pattern, no dot), which it checks.
"""

import math
from typing import Callable

import numpy as np

from coopdelay.integrator import _StageComponent
from coopdelay.kernels import DEFAULT_PANELS


class FnComponent:
    """A history component backed by a numpy-compatible callable, whose
    density feedbacks use n_quad Simpson panels."""

    __slots__ = ("_fn", "n_quad")

    def __init__(self, fn: Callable, n_quad: int = DEFAULT_PANELS):
        self._fn = fn
        self.n_quad = n_quad

    def __call__(self, s: float) -> float:
        return float(self._fn(s))

    def array(self, ss: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(ss, dtype=float)), dtype=float)

    def feedback(self, kernel, f, t: float) -> float:
        plan = kernel.plan(t, self.n_quad)
        return float(np.dot(plan.weights, f.eval_array(self.array(plan.nodes)) * plan.density))

    def point_feedback(self, kernel, f, t: float) -> float:
        return f(self(kernel.lag.evaluate(t)))


def stage_components(view):
    """The x and y components that `integrate` builds on a stage view."""
    return _StageComponent(view, 0), _StageComponent(view, 1)


def in_step_read(view, s: float, comp: int) -> float:
    """The component at s inside the view's step: the quadratic through the
    step start with its slope k1 and the stage state,
    x0*(1 - r^2) + x_stage*r^2 + T*(r - r^2)*k1, r = (s - t0)/T."""
    if s >= view.t_stage:
        return view.stage[comp]
    T = view.t_stage - view.t0
    r = (s - view.t0) / T
    r2 = r * r
    return view.start[comp] * (1.0 - r2) + view.stage[comp] * r2 + T * (r - r2) * view.slope[comp]


def step_grid_feedback(view, kernel, f, t: float, comp: int) -> float:
    """The density part of the kernel's feedback at the stage time t of the
    view's step (the stage state set for t), by the step-grid rule."""
    traj, dt, t0 = view.traj, view.dt, view.t0
    floor = kernel.density_floor(t)

    def term(s, u):
        return float(kernel.density_at(t, floor, np.array([s]))[0]) * f(u)

    def stored(s):
        return traj.value_scalar(s, comp)

    def inside(s):
        return in_step_read(view, s, comp)

    def panel(a, b, read_a, read_mid, read_b):
        m = 0.5 * (a + b)
        return (b - a) / 6.0 * (term(a, read_a(a)) + 4.0 * term(m, read_mid(m)) + term(b, read_b(b)))

    if floor > t0:  # the whole window lies inside the step
        return panel(floor, t, inside, inside, inside)
    # step ends: the initial data's at multiples of dt below the first
    # stored time, then the stored ones, up to the step start
    stored_ends = traj.step_times().tolist()
    first = stored_ends[0]
    ends = [first - k * dt for k in range(math.ceil((first - floor) / dt) + 1, 0, -1)]
    ends += stored_ends
    ends = [e for e in ends if e >= floor]
    total = panel(floor, ends[0], stored, stored, stored) if ends[0] > floor else 0.0
    for a, b in zip(ends, ends[1:]):
        total += panel(a, b, stored, stored, stored)
    if t > t0:
        total += panel(t0, t, stored, inside, inside)
    return total
