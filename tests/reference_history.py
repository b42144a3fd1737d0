"""Independent definitions the tests check the integrator against.

`FnComponent` reads a numpy-compatible callable and gives each feedback the
plain way, as `kernel.integrate(f, u, t)` asks for it at one time t: a point
mass's f(u(lag(t))), a density's dot(weights, f(u(nodes)) * density) over
the composite Simpson `plan` of the kernel's window at t with the
component's panel count, and a mixture's weighted atoms plus its density.

`Stage` is one stage of a step as a run sees it: the stored history up to
the step start t0, the start state and slope, and the stage time and state.
`stage_read` reads a component there: stored history up to t0, the in-step
quadratic through the start value, the start slope and the stage state
after it (`in_step_read`), and the stage state from the stage time on.
`step_grid_feedback` is a density's feedback at the stage by the definition
of the step-grid rule, one Simpson panel at a time in plain Python: the head
panel from the floor h(t) to the first step end at or after it, every whole
step up to the step start with its midpoint read from the stored Hermite
cubic, and the tail panel from the step start to the stage time, whose
midpoint is the in-step read.  It shares no code with `coopdelay.feeds` (no
grid, no weight pattern, no dot), which it checks.

`drive` takes the items of `feeds.block_feeds` as a run does, storing a
drawn state at each step end as the checked step stores its end; it checks
each item's step end against `step_end`, and every feed at drawn stage
states against `kernel_feedback`: point masses and mixtures of atoms bit
for bit, densities to WINDOW_RTOL relative to max(1, |x|).

`window_checks` replays the convergence checks of a finished run over its
stored trajectory by the full rule, each window's range read from all of
its stored steps.

`block_plan` decides row by row how many rows a block of stage times
serves and why it ends there, from each lag evaluated at one stage time at
a time; `feeds._plan` decides the same by masks over the block.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from coopdelay.expr import EvalDomainError
from coopdelay import feeds
from coopdelay.feeds import block_feeds
from coopdelay.integrator import CHECK_EVERY, _compile_steps
from coopdelay.kernels import (
    DEFAULT_PANELS,
    GeneralMixtureKernel,
    HistoryUnderflowError,
    PointMassKernel,
    simpson_nodes_weights,
)
from coopdelay.windows import _StepGrid, window_feed

WINDOW_RTOL = 1e-12
ERRORS = (EvalDomainError, HistoryUnderflowError, ValueError)


class QuadPlan(NamedTuple):
    """Composite Simpson plan of a density over [floor, t]: ascending nodes,
    their weights, and the density at the nodes (kept apart from the weights
    so a feedback integral is dot(weights, f(u(nodes)) * density))."""

    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray


def plan(kernel, t: float, n_quad: int = DEFAULT_PANELS) -> QuadPlan:
    """Composite Simpson plan of the kernel's density part at time t."""
    if n_quad < 2:
        raise ValueError("density quadrature needs n_quad >= 2")
    floor = kernel.density_floor(t)
    nodes, weights = simpson_nodes_weights(floor, t, n_quad)
    return QuadPlan(nodes, weights, kernel.density_at(t, floor, nodes))


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

    def point(self, lag, f, t: float) -> float:
        return f(self(lag.evaluate(t)))

    def window(self, kernel, f, t: float) -> float:
        rule = plan(kernel, t, self.n_quad)
        return float(np.dot(rule.weights, f.evaluate_array(self.array(rule.nodes)) * rule.density))

    def mix(self, atoms, density) -> float:
        total = 0.0
        for w, value in atoms:
            total += w * value
        if density is not None:
            total += density
        return total


@dataclass
class Stage:
    """A stage of the step from t0: the history traj stored up to t0 with
    step dt, the start state and slope, and the stage time and state."""

    traj: object
    dt: float
    t0: float
    start: tuple
    slope: tuple
    t_stage: float
    stage: tuple


def in_step_read(stage: Stage, s: float, comp: int) -> float:
    """The component at s inside the step: the quadratic through the step
    start with its slope k1 and the stage state,
    x0*(1 - r^2) + x_stage*r^2 + T*(r - r^2)*k1, r = (s - t0)/T."""
    if s >= stage.t_stage:
        return stage.stage[comp]
    T = stage.t_stage - stage.t0
    r = (s - stage.t0) / T
    r2 = r * r
    return stage.start[comp] * (1.0 - r2) + stage.stage[comp] * r2 + T * (r - r2) * stage.slope[comp]


def stage_read(stage: Stage, s: float, comp: int) -> float:
    """The component at s as the stage reads it: stored history or initial
    data up to the step start, the in-step read after it."""
    s = float(s)
    if s <= stage.t0:
        return stage.traj.value_scalar(s, comp)
    return in_step_read(stage, s, comp)


def step_grid_feedback(stage: Stage, kernel, f, comp: int) -> float:
    """The density part of the kernel's feedback at the stage, by the
    step-grid rule."""
    traj, dt, t0, t = stage.traj, stage.dt, stage.t0, stage.t_stage
    floor = kernel.density_floor(t)

    def term(s, u):
        return float(kernel.density_at(t, floor, np.array([s]))[0]) * f(u)

    def stored(s):
        return traj.value_scalar(s, comp)

    def inside(s):
        return in_step_read(stage, s, comp)

    def panel(a, b, read_a, read_mid, read_b):
        m = 0.5 * (a + b)
        return (b - a) / 6.0 * (term(a, read_a(a)) + 4.0 * term(m, read_mid(m)) + term(b, read_b(b)))

    if floor > t0:  # the whole window lies inside the step
        return panel(floor, t, inside, inside, inside)
    # step ends: the initial data's at multiples of dt below the first
    # stored time, then the stored ones, up to the step start
    stored_ends = [e for e in traj.step_times().tolist() if e <= t0]
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


def step_end(j: int, dt: float, horizon: float, eps_t: float) -> float:
    """The end of step j: (j + 1) * dt, free of drift, the last step
    clamped to the horizon.  `feeds._Ahead.rows` makes a block's step ends
    in one numpy pass of these operations, so the ends a run's items carry
    are these, bit for bit."""
    t1 = (j + 1) * dt
    return horizon if t1 >= horizon - eps_t else t1


def window_checks(spec, traj, dt: float, rtol: float, spans: float) -> list:
    """The convergence checks of the run stored in traj, as pairs (n, passed)
    of the step count and the verdict.  A check follows every CHECK_EVERY-th
    step n; its window reaches back max(spans * spec.max_span(t), 100 * dt)
    from the step's time t, and it is made only when t minus the window lies
    after the first stored time.  It passes when the stored steps from the
    first at or after that time to step n span less than rtol relative to
    max(1, |x|) in x and to max(1, |y|) in y, with x and y those of step n."""
    ts, xs, ys = traj.step_times(), traj.step_values(0), traj.step_values(1)
    checks = []
    for n in range(CHECK_EVERY, traj.n + 1, CHECK_EVERY):
        t = float(ts[n])
        window = max(spans * spec.max_span(t), 100.0 * dt)
        if not t - window > ts[0]:
            continue
        i = int(ts[: n + 1].searchsorted(t - window, side="left"))
        wx, wy = xs[i : n + 1], ys[i : n + 1]
        checks.append((n, bool((wx.max() - wx.min()) / max(1.0, abs(float(xs[n]))) < rtol
                               and (wy.max() - wy.min()) / max(1.0, abs(float(ys[n]))) < rtol)))
    return checks


def lag_time(lag, t: float) -> float:
    """The lag's time at t, which may run ahead of t by validate_kernel's
    slack of 1e-12 and no more."""
    s = lag.evaluate(t)
    if s > t + 1e-12:
        raise ValueError(f"advanced lag {s!r} exceeds t={t!r}")
    return s


def kernel_feedback(stage: Stage, kernel, f, comp: int) -> float:
    """The kernel's whole feedback at the stage: a point mass's f of the
    `stage_read` at its lag (`lag_time`), a window's `step_grid_feedback`,
    and a mixture's weighted atoms, in order, plus its density part."""
    t = stage.t_stage
    if isinstance(kernel, PointMassKernel):
        return f(stage_read(stage, lag_time(kernel.lag, t), comp))
    if not isinstance(kernel, GeneralMixtureKernel):
        return step_grid_feedback(stage, kernel, f, comp)
    total = 0.0
    for lag, w in kernel.atoms:
        total += w * f(stage_read(stage, lag_time(lag, t), comp))
    if kernel.density is not None:
        total += step_grid_feedback(stage, kernel, f, comp)
    return total


def outcome(fn):
    """fn(), or the type and text of what it raised."""
    try:
        return fn()
    except ERRORS as e:
        return type(e), str(e)


def check(feed, stage: Stage, kernel, f, comp: int) -> None:
    """The feed read at the stage against the kernel's feedback there: the
    same number, or the same error."""
    got = outcome(lambda: window_feed(f, feed, stage.stage[comp], stage.start[comp], stage.slope[comp]))
    want = outcome(lambda: kernel_feedback(stage, kernel, f, comp))
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    elif isinstance(kernel, PointMassKernel) or getattr(kernel, "density", 1) is None:
        assert float(got).hex() == float(want).hex()
    else:
        assert abs(got - want) <= WINDOW_RTOL * max(1.0, abs(want))


def drive(spec, traj, dt, steps, rng, states=1, horizon=None):
    """Take the item of the derivative at the trajectory's front, then those
    of up to steps steps (to the horizon, steps + 5 steps on by default),
    each read at drawn stage states, its stage times and feeds in drawn
    order, and checked; store a drawn state at each step end.  Returns the
    number of blocks built."""
    grid = _StepGrid(traj, dt) if spec.k1.density_lag is not None or spec.k2.density_lag is not None else None
    if horizon is None:
        horizon = traj.t_front + (steps + 5) * dt
    eps_t = 1e-12 * max(1.0, horizon)
    ends = Counter()
    items = block_feeds(spec, traj, grid, dt, horizon, eps_t, ends)
    _, store = _compile_steps(spec, traj, grid, math.inf, math.inf, 0.0, checked=True)
    reads = ((spec.k1, spec.f1, 1, 0), (spec.k2, spec.f2, 0, 1))
    for j in range(-1, steps):
        if j >= 0 and traj.t_front >= horizon - eps_t:
            break
        item = next(items)
        # one item shape, whatever its feeds, and a Python float step end
        assert item.__class__ is tuple and item[0].__class__ is float
        t0 = traj.t_front
        start = tuple(traj._v[traj.n, :2].tolist())
        slope = tuple(traj._v[traj.n, 2:].tolist())
        t1 = item[0]
        if j < 0:  # the derivative at the front, at the front's state
            assert t1 == t0
            rows = [(t0, 3)]
        else:
            assert t1 == step_end(traj.n, dt, horizon, eps_t)
            rows = [(t0 + 0.5 * (t1 - t0), 1), (t1, 3)]
        rng.shuffle(rows)
        for t, i in rows:
            for _ in range(states if j >= 0 else 1):
                state = (rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)) if j >= 0 else start
                stage = Stage(traj, dt, t0, start, slope, t, state)
                for kernel, f, comp, slot in sorted(reads, key=lambda _: rng.random()):
                    check(item[i + slot], stage, kernel, f, comp)
        if j >= 0:
            x1, y1 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            dx1, dy1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            store(item, t0, *start, *slope, t1, x1, y1, dx1, dy1)
    return sum(ends.values())


def block_plan(taus: list, starts: list, kernels, front: float, dt: float, reason: str) -> tuple:
    """The rows a block of the stage times taus, whose steps start at
    starts, serves from the front, why it ends there (BLOCK_ENDS; reason
    when no lag ends it before the last row), and each lag's values at those
    rows by `feeds._plan`'s key (a point lag's id, a window's kernel): a time
    or floor, or the type and text of what its evaluation raised.  A point
    lag's time may run ahead of its stage time by 1e-12 and no more, and a
    window is empty at a floor at or after its stage time.  Row by row, the
    block ends before a row that raises, from the third row on (else after
    the second), and from MIN_BLOCK steps on before the first row that reads
    the block's own steps, or whose dense weights (a density that does not
    factor) pass WINDOW_ELEMENTS (both read from `feeds` when called)."""
    n = len(taus)
    values: dict = {}
    lags = []
    for kernel in kernels:
        lags += [(id(lag), lag, 0.0) for lag in kernel.atom_lags()]
        if kernel.density_lag is not None:
            lags.append((kernel, kernel.density_lag, dt))
    for key, lag, width in lags:
        if key in values:
            continue
        values[key] = [outcome(lambda t=t: lag.evaluate(t) if width else lag_time(lag, t)) for t in taus]
        m, why = _rows_served(values[key], key, taus, starts, n, front, width)
        if m < n:
            n, reason = m, why
    return n, reason, {key: v[:n] for key, v in values.items()}


def _rows_served(values: list, key, taus: list, starts: list, n: int, front: float, dt: float) -> tuple:
    """`block_plan`'s rows for one lag, dt 0 for a point lag; an empty
    window's floor becomes its error in values."""
    low, rows, late, reason = front, 0, False, None
    dense = dt and key.density_factors is None
    r = -1
    while r + 1 < n:
        r += 1
        s = values[r]
        if dt and not isinstance(s, tuple) and s >= taus[r]:
            s = values[r] = outcome(lambda: key.density_floor(taus[r]))
        if isinstance(s, tuple):
            if r >= 2:
                return r & ~1, "raise"
            n, reason = min(n, 2), "raise"
        elif s <= starts[r] and (dt or s > front):
            if s > front and not late:
                if r >= 2 * feeds.MIN_BLOCK:
                    return r & ~1, "own-steps"
                late = True
            if dense:
                low = min(low, s)
                rows += 1
                if r >= 2 * feeds.MIN_BLOCK and rows * ((front - low) * (2.0 / dt) + rows + 3.0) > feeds.WINDOW_ELEMENTS:
                    return r & ~1, "budget"
    return n, reason
