"""Fixed-step RK4 with cubic-Hermite dense output for delayed lookups.

History access.  The run's history is append-only (`Trajectory`): one node
per accepted step end holds the time and x, y, x', y' there, node 0 holds
the initial state with the slope of the first right-hand-side call, and
segment i is the cubic Hermite from node i to node i + 1.  Nothing is ever
cut: a delay may be unbounded, so a lag can read any time of the run, and
the checks after a run read all of it.  The initial functions serve times
up to 0.  Inside the current step, which is not stored yet, a read at s
between the step start t0 and the active stage time reads the quadratic
through the start value, the start slope k1 and the stage state,

    x0 * (1 - r^2) + x_stage * r^2 + T * (r - r^2) * k1,   r = (s - t0) / T,

with T the stage time minus t0; a read at the stage time returns the stage
state itself.  With zero lag this reduces to classical RK4 on the coupled
system, and a lag or window that reaches into the step keeps the method's
fourth order.  A step evaluates the right-hand side at two distinct stage
times (t + h/2 for k2 and k3, t + h for k4 and the end-of-step
derivative); stored history changes only after the step is accepted.  The
kernels read x and y through one `_StageComponent` each, over one shared
per-step view (`_StageHistory`).

Blocks of steps: when each kernel is a point mass or a uniform or
triangular window, the feedbacks come in blocks of upcoming steps (`feeds`),
as in the method of steps.  What a feedback reads behind the last accepted
step is known data: a point kernel's lagged time, read for a whole block
with one `Trajectory.value_array`, with f of it once per production
function, component and stage time (a zero lag leaves f of the stage state
to the stage); a window's head and body up to that step, and then the nodes
the block's own steps add, while its tail is read at the stage.  A step no
block covers, the first derivative at t = 0 and every run with a mixture
kernel go the per-stage path, through `kernel.integrate` and the stage view:
per kernel and stage time one lag evaluation, one (x, y) lookup in stored
history or a read of the fed component's initial data, and one f per
production function and component; a lagged time inside the current step is
read from the quadratic on every call, toward the live stage state.  Point
feeds perform the same operations on the same numbers on both paths, so
they agree bit for bit; window feeds add the same terms in another order.

Density kernels: one quadrature serves uniform, triangular and mixture
densities with any lag, composite Simpson on the step grid.  The view keeps
x and y at every step end and Hermite midpoint (`_StepGrid`), adding a
step's two nodes when it is accepted; the initial data fill the same
half-step grid below 0, back to the lowest floor a window has read.  f of a
component is evaluated once per grid node, when a window first reads it.
The feedback at a stage time t with floor h(t) is then the head, Simpson
from h(t) to the next step end with two Hermite reads; the body, whole
steps from there to t0, one dot of Simpson weights times density with the
stored f values; and the tail, the panel from t0 to t, whose midpoint is
read from the quadratic above and whose end is the stage state.  A window
whose floor lies inside the step is a single in-step panel, and stays on
the per-stage path.  There head and body are computed once per kernel and
stage time (and kept per production function and component), so each call
pays only for its tail; a block computes them for all its stage times
together, one product per production function, and per step adds only the
nodes of the step before.  The rule needs no history lookup after the grid
is set up but the head reads, and its resolution follows dt.  Equal density
windows share all of it, and so does one point kernel object serving both
components.  The reads of a step fail, if they fail, at the stage that
first needs them.

Runs terminate early on blow-up or on convergence of the state over a
trailing window.  Blow-up is declared when a state or stage value passes
the threshold, turns non-finite, or a stage increment outruns the step
(|dt * k| > ratio * (1 + |state|)); the reported time is the last accepted
state, the final moment the trajectory is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemSpec, rhs
from .kernels import HistoryUnderflowError, PointMassKernel
from .expr import EvalDomainError
from .feeds import SERVED, block_feeds, step_end, window_feed

__all__ = [
    "Trajectory",
    "RunOutcome",
    "IntegrationError",
    "integrate",
    "detect_nonoscillation_violation",
    "default_dt",
]

BLOWUP_THRESHOLD = 1e12
STAGE_RATIO = 2.0
CONVERGE_RTOL = 1e-9
WINDOW_SPANS = 10.0
EXTINCTION_THRESHOLD = 1e-12


class IntegrationError(RuntimeError):
    """Numerical failure that is not a detected blow-up."""


class _StageGuard(Exception):
    """A blow-up guard fired inside a step; the argument names it."""


def _hermite(s, h, v0, v1, d0, d1):
    """Cubic Hermite value at the fraction s of a segment of length h, from
    the end values v0, v1 and the end slopes d0, d1.  Floats and broadcasting
    arrays go through the same operations in the same order, so scalar and
    array lookups agree bit for bit."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * v0 + (-2.0 * s3 + 3.0 * s2) * v1
        + h * ((s3 - 2.0 * s2 + s) * d0 + (s3 - s2) * d1)
    )


class Trajectory:
    """Piecewise cubic-Hermite history of (x, y) over (-inf, t_front].

    Negative times are served by the initial functions.  The stored part is
    append-only: node i holds the time and x, y, x', y' (row i of `_v`) at
    the i-th accepted step end, node 0 the run's start, and segment i runs
    from node i to node i + 1, so segments are contiguous by construction.
    `n` counts the stored segments; it is -1 before the start node.
    """

    __slots__ = ("phi", "psi", "n", "t_front", "_t", "_v")

    def __init__(self, phi=None, psi=None, capacity: int = 4096):
        self.phi = phi
        self.psi = psi
        self.n = -1
        self.t_front = 0.0
        cap = max(16, capacity)
        self._t = np.empty(cap, dtype=float)
        self._v = np.empty((cap, 4), dtype=float)

    # -- storage -------------------------------------------------------

    def append(self, t, x, y, dx, dy) -> None:
        """Store the node at t: the start first, then each accepted step end."""
        i = self.n + 1
        if i == self._t.size:
            self._t = np.concatenate((self._t, np.empty(i)))
            self._v = np.concatenate((self._v, np.empty((i, 4))))
        self._t[i] = t
        v = self._v
        v[i, 0] = x
        v[i, 1] = y
        v[i, 2] = dx
        v[i, 3] = dy
        self.n = i
        self.t_front = t

    # -- evaluation ------------------------------------------------------

    def _initial(self, t: float, comp: int) -> float:
        fn = self.phi if comp == 0 else self.psi
        if fn is None:
            raise HistoryUnderflowError(f"no initial function covers t={t!r}")
        return fn(t)

    def value_scalar(self, t: float, comp: int | None = None):
        """Value at the time t of x (comp 0) or y (comp 1), or the pair
        (x, y) when comp is None, from one segment search.  Up to the front,
        bit-identical to value_array at the same time."""
        if t > self.t_front:
            if t - self.t_front <= 1e-12 * max(1.0, abs(self.t_front)):
                t = self.t_front
            else:
                raise ValueError(f"trajectory ends at t={self.t_front!r}, asked {t!r}")
        # after the clamp: a history holding only its start node at 0 has no
        # segment to read
        if t <= 0.0:
            if comp is None:
                return self._initial(t, 0), self._initial(t, 1)
            return self._initial(t, comp)
        # a time before the first segment can only come from a hand-built
        # history; it reads the first segment
        i = max(int(self._t[: self.n].searchsorted(t, side="right")) - 1, 0)
        # plain floats: the same IEEE operations as on numpy scalars, faster
        t0 = self._t.item(i)
        h = self._t.item(i + 1) - t0
        s = (float(t) - t0) / h
        (x0, y0, dx0, dy0), (x1, y1, dx1, dy1) = self._v[i : i + 2].tolist()
        if comp is None:
            return _hermite(s, h, x0, x1, dx0, dx1), _hermite(s, h, y0, y1, dy0, dy1)
        if comp == 0:
            return _hermite(s, h, x0, x1, dx0, dx1)
        return _hermite(s, h, y0, y1, dy0, dy1)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        """Values of x and y at the times ts, as the rows of a (2, len(ts))
        array, from one segment search and one Hermite basis."""
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            lo = ts.min()
            hi = ts.max()
            if hi > self.t_front + 1e-12 * max(1.0, abs(self.t_front)):
                raise ValueError(f"trajectory ends at t={self.t_front!r}, asked {float(hi)!r}")
        if ts.size and lo > 0.0:
            return self._stored(ts)
        out = np.empty((2,) + ts.shape, dtype=float)
        neg = ts <= 0.0
        if np.any(neg):
            for row, fn in zip(out, (self.phi, self.psi)):
                if fn is None:
                    raise HistoryUnderflowError("no initial function")
                row[neg] = fn.array(ts[neg])
        pos = ~neg
        if np.any(pos):
            out[:, pos] = self._stored(ts[pos])
        return out

    def _stored(self, ts: np.ndarray) -> np.ndarray:
        """Stored-segment values of x and y at the positive times ts."""
        # a time before the first segment reads the first segment, as in
        # value_scalar
        idx = self._t[: self.n].searchsorted(ts, side="right") - 1
        np.maximum(idx, 0, out=idx)
        t0 = self._t[idx]
        h = self._t[idx + 1] - t0
        a = self._v[idx].T
        b = self._v[idx + 1].T
        return _hermite((ts - t0) / h, h, a[:2], b[:2], a[2:], b[2:])

    # -- step-resolution views -------------------------------------------

    def step_times(self) -> np.ndarray:
        return self._t[: self.n + 1]

    def step_values(self, comp: int) -> np.ndarray:
        return self._v[: self.n + 1, comp]

    # -- export ------------------------------------------------------------

    def to_csv(self, path, stride: int = 10) -> None:
        ts = self.step_times()
        xs = self.step_values(0)
        ys = self.step_values(1)
        idx = list(range(0, len(ts), max(1, stride)))
        if idx[-1] != len(ts) - 1:
            idx.append(len(ts) - 1)
        with open(path, "w", newline="") as fh:
            fh.write("t,x,y\n")
            for i in idx:
                fh.write(f"{ts[i]:.17g},{xs[i]:.17g},{ys[i]:.17g}\n")


def _midpoint(v0, v1, d0, d1, h):
    """The Hermite cubic's value halfway through a step of length h; floats
    and arrays alike."""
    return (v0 + v1) * 0.5 + h * (d0 - d1) * 0.125


class _StepGrid:
    """x, y and f of them on the grid of step ends and step midpoints.

    Node times ascend and step ends sit at even indices, so a run of nodes
    from one step end to another is a run of whole Simpson panels; `w` holds
    their weights, dt/6 times 1, 4, 2, 4, ..., from index 0 on.  The stored
    part is built from the trajectory's nodes, their Hermite midpoints in
    one array expression, and each accepted step adds its midpoint and its
    end (`push`) once the trajectory holds the end.  Below the first stored
    time the initial data fill the same grid, at multiples of dt/2, as far
    back as a window's floor has reached (`cover`).  f of a component is
    evaluated once per node, the first time a window reads the node, so a
    domain error surfaces at the stage that first reads the failing node.
    """

    __slots__ = ("traj", "dt", "n", "t", "xy", "w", "_fed")

    def __init__(self, traj: Trajectory, dt: float):
        self.traj = traj
        self.dt = dt
        self.n = 0
        self.t = np.empty(0)
        self.xy = np.empty((2, 0))
        self.w = np.empty(0)
        self._fed: dict = {}
        m = traj.n + 1
        self._resize(2 * traj._t.size, 0)
        ts, v = traj._t[:m], traj._v[:m].T
        h = ts[1:] - ts[:-1]
        self.t[: 2 * m - 1 : 2] = ts
        self.t[1 : 2 * m - 1 : 2] = ts[:-1] + 0.5 * h
        self.xy[:, : 2 * m - 1 : 2] = v[:2]
        self.xy[:, 1 : 2 * m - 1 : 2] = _midpoint(v[:2, :-1], v[:2, 1:], v[2:, :-1], v[2:, 1:], h)
        self.n = 2 * m - 1

    def _resize(self, size: int, shift: int) -> None:
        """Make room for size nodes, moving the n stored ones up by shift."""
        cap = self.t.size
        if size > cap:
            cap = max(size, 2 * cap)
            w = np.full(cap, 2.0)
            w[1::2] = 4.0
            w[0] = 1.0
            self.w = w * (self.dt / 6.0)
        elif not shift:
            return
        n = self.n
        for name in ("t", "xy"):
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (cap,)) if cap != old.shape[-1] else old
            new[..., shift : shift + n] = old[..., :n]
            setattr(self, name, new)
        for entry in self._fed.values():
            old = entry[0]
            new = np.empty(cap) if cap != old.size else old
            new[shift : shift + n] = old[:n]
            entry[0] = new
            entry[1] += shift
            entry[2] += shift

    def cover(self, floor: float) -> None:
        """Extend the grid down to the first step end at or below floor, from
        the initial data (HistoryUnderflowError without them)."""
        lowest = float(self.t[0])
        if floor >= lowest:
            return
        half = 0.5 * self.dt
        k = max(1, math.ceil((lowest - floor) / self.dt))
        while lowest + (-2 * k) * half > floor:
            k += 1
        times = lowest + np.arange(-2 * k, 0) * half
        values = self.traj.value_array(times)
        self._resize(self.n + 2 * k, 2 * k)
        self.n += 2 * k
        self.t[: 2 * k] = times
        self.xy[:, : 2 * k] = values

    def push(self, t1, x1, y1, dx1, dy1) -> None:
        """Add the step that ends at the trajectory's newest node, given here:
        its midpoint and its end."""
        n = self.n
        if n + 2 > self.t.size:
            self._resize(n + 2, 0)
        i = self.traj.n - 1
        t0 = self.traj._t.item(i)
        x0, y0, dx0, dy0 = self.traj._v[i].tolist()
        h = t1 - t0
        self.t[n] = t0 + 0.5 * h
        self.t[n + 1] = t1
        xy = self.xy
        xy[0, n] = _midpoint(x0, x1, dx0, dx1, h)
        xy[0, n + 1] = x1
        xy[1, n] = _midpoint(y0, y1, dy0, dy1, h)
        xy[1, n + 1] = y1
        self.n = n + 2

    def fed(self, f, comp: int, i: int) -> np.ndarray:
        """f of the component at the nodes from i on, each evaluated once."""
        n = self.n
        entry = self._fed.get((f, comp))
        if entry is None:
            entry = self._fed[f, comp] = [np.empty(self.t.size), i, i]
        fu, lo, hi = entry
        if i > hi:  # nothing read between hi and i
            lo = hi = i
        row = self.xy[comp]
        if i < lo:
            fu[i:lo] = f.eval_array(row[i:lo])
            lo = i
        if hi < n - 2:
            fu[hi:n] = f.eval_array(row[hi:n])
        else:  # the usual case: the last step's two nodes
            for j in range(hi, n):
                fu[j] = f(row.item(j))
        entry[1] = lo
        entry[2] = n
        return fu[i:n]


class _Window:
    """One density kernel's feedback at one stage time of a step.

    Composite Simpson in three parts: the head, from the floor h(t) to the
    first step end at or after it, with two Hermite reads (`head`: weight
    times density, and the (x, y) read); the body, whole steps from there
    to the step start, as one dot of `wd` (weight times density) with the
    grid's f values from node `i` on; and the tail, the panel from the step
    start to the stage time, whose midpoint is read from the in-step
    interpolant and whose end is the stage state (`tail`: weight times
    density, and the time read).  The head and the body do not depend on the
    stage state, so their sum is kept per production function and component.
    A window whose floor lies inside the step is one in-step panel.
    """

    __slots__ = ("i", "wd", "head", "tail", "sums")

    def __init__(self, view: "_StageHistory", kernel, t: float):
        if t not in view.times:
            raise ValueError(f"t={t!r} is not a stage time of the step {view.times!r}")
        floor = kernel.density_floor(t)
        t0 = view.t0
        T = t - t0
        self.sums: dict = {}
        self.head = ()
        if floor > t0:
            mid = 0.5 * (floor + t)
            d = kernel.density_at(t, floor, np.array([floor, mid, t])).tolist()
            third = (t - floor) / 6.0
            self.i = self.wd = None
            self.tail = ((third * d[0], floor), (4.0 * third * d[1], mid), (third * d[2], t))
            return
        grid = view.grid
        if grid is None:
            grid = view.grid = _StepGrid(view.traj, view.dt)
        grid.cover(floor)
        n = grid.n
        i = int(grid.t[:n].searchsorted(floor, side="left"))
        i += i & 1  # a midpoint: the head runs on to the step end after it
        e = float(grid.t[i])
        mid = 0.5 * (floor + e)
        tm = t0 + 0.5 * T
        # one density evaluation: the head's floor and midpoint, the tail's
        # midpoint and end, then the grid nodes from e to t0
        dens = kernel.density_at(t, floor, np.concatenate(((floor, mid, tm, t), grid.t[i:n])))
        d = dens[:4].tolist()
        w = grid.w[: n - i] * dens[4:]
        w[-1] = ((view.dt / 6.0 if i < n - 1 else 0.0) + T / 6.0) * dens[-1]
        if e > floor:
            third = (e - floor) / 6.0
            w[0] += third * dens[4]
            traj = view.traj
            self.head = ((third * d[0], traj.value_scalar(floor)), (4.0 * third * d[1], traj.value_scalar(mid)))
        self.i = i
        self.wd = w
        self.tail = ((4.0 * T / 6.0 * d[2], tm), (T / 6.0 * d[3], t)) if T > 0.0 else ()

    def stored_sum(self, grid: _StepGrid, f, comp: int) -> float:
        """Head plus body for f of the component, once."""
        total = 0.0 if self.wd is None else float(np.dot(self.wd, grid.fed(f, comp, self.i)))
        for wd, xy in self.head:
            total += wd * f(xy[comp])
        self.sums[f, comp] = total
        return total


class _StageComponent:
    """x (comp 0) or y (comp 1) as the kernels read it during a step."""

    __slots__ = ("view", "comp")

    def __init__(self, view: "_StageHistory", comp: int):
        self.view = view
        self.comp = comp

    def __call__(self, s: float) -> float:
        v = self.view
        if s <= v.traj.t_front:
            return v.traj.value_scalar(s, self.comp)
        if s >= v.t_stage:
            return v.stage[self.comp]
        return v.inner(s, self.comp)

    def point_feedback(self, kernel, f, t):
        """f at the kernel's lagged time s: from stored history or initial
        data once per stage time, production function and component; for an
        s inside the step, f of the read at s on every call, which follows
        the stage state."""
        v = self.view
        read = v._points.get((kernel, t))
        if read is None:
            read = v.point(kernel, t)
        s, xy, fed = read
        if fed is None:
            return f(self(s))
        c = self.comp
        key = (f, c)
        val = fed.get(key)
        if val is None:
            # initial data are read for this component alone: the other
            # component's initial function need not be defined at s
            val = fed[key] = f(xy[c] if xy is not None else v.traj.value_scalar(s, c))
        return val

    def feedback(self, kernel, f, t):
        """The density part of the kernel's feedback at the stage time t, on
        the step grid: the kept head and body plus the tail, read toward the
        stage state set for t."""
        v = self.view
        c = self.comp
        win = v.window(kernel, t)
        total = win.sums.get((f, c))
        if total is None:
            total = win.stored_sum(v.grid, f, c)
        for wd, s in win.tail:
            total += wd * f(v.inner(s, c))
        return total


class _StageHistory:
    """Mutable per-step view combining stored history with the live stage.

    A step evaluates the right-hand side at two stage times, and stored
    history does not change inside it, so the view keeps, until the next
    `set_step`, one `_Window` per density kernel and stage time (equal
    kernels share one) and one read per point kernel object and stage time.
    Across steps it keeps the step grid of the density feedbacks, which
    `append` keeps in step with the trajectory.
    The kernels read it through one `_StageComponent` per component; the
    view holds no reference back to them, so a finished run's history is
    freed as soon as it is dropped.
    """

    __slots__ = ("traj", "dt", "grid", "t0", "start", "slope", "times", "t_stage", "stage",
                 "_windows", "_points")

    def __init__(self, traj: Trajectory, dt: float):
        self.traj = traj
        self.dt = dt
        self.grid: _StepGrid | None = None
        self.t0 = 0.0
        self.start = (0.0, 0.0)
        self.slope = (0.0, 0.0)
        self.times = (0.0, 0.0)
        self.t_stage = 0.0
        self.stage = (0.0, 0.0)
        self._windows: dict = {}
        self._points: dict = {}

    def set_step(self, t0: float, t1: float, x0: float, y0: float, dx0: float, dy0: float) -> None:
        """Start the step [t0, t1] from (x0, y0) with slopes (dx0, dy0); its
        stage times are formed as `integrate` forms them.  A step with
        t1 == t0 has the single stage time t0."""
        self.t0 = t0
        self.start = (x0, y0)
        self.slope = (dx0, dy0)
        self.times = (t0 + 0.5 * (t1 - t0), t1)
        self._windows.clear()
        self._points.clear()

    def set_stage(self, t: float, x: float, y: float) -> None:
        self.t_stage = t
        self.stage = (x, y)

    def inner(self, s: float, comp: int) -> float:
        """The component at s inside the step, t0 < s <= t_stage: the
        quadratic through the step start, with the start slope, and the stage
        state, x0*(1 - r^2) + x_stage*r^2 + T*(r - r^2)*k1 with
        T = t_stage - t0 and r = (s - t0)/T."""
        T = self.t_stage - self.t0
        r = (s - self.t0) / T
        r2 = r * r
        return self.start[comp] * (1.0 - r2) + self.stage[comp] * r2 + T * (r - r2) * self.slope[comp]

    def point(self, kernel, t: float) -> tuple:
        """The point kernel's read at the stage time t, built on its first use
        in the step: (s, xy, fed) with the lagged time s, the values (x, y)
        there from one lookup when s lies in stored segments (else None), and
        the cache of f of them, which is None when s lies inside the step."""
        s = kernel.lag.evaluate(t)
        if s > self.traj.t_front:
            read = (s, None, None)
        elif s > 0.0:
            read = (s, self.traj.value_scalar(s), {})
        else:
            read = (s, None, {})
        self._points[(kernel, t)] = read
        return read

    def window(self, kernel, t: float) -> _Window:
        """The density kernel's window at the stage time t, built once per
        step."""
        win = self._windows.get((kernel, t))
        if win is None:
            win = self._windows[kernel, t] = _Window(self, kernel, t)
        return win

    def append(self, t, x, y, dx, dy) -> None:
        """Store the accepted step's end node at t in the trajectory, and the
        step on the step grid."""
        self.traj.append(t, x, y, dx, dy)
        if self.grid is not None:
            self.grid.push(t, x, y, dx, dy)


@dataclass
class RunOutcome:
    status: str  # "reached-horizon" | "converged" | "blow-up" | "extinct"
    final_state: tuple[float, float]
    t_final: float
    blowup_time: float | None = None
    converged_point: tuple[float, float] | None = None
    extinct_time: float | None = None
    diagnostics: dict = field(default_factory=dict)


def default_dt(spec: SystemSpec, horizon: float) -> float:
    """1e-3 of the smallest delay span, clamped to [1e-4, 1e-2]."""
    spans = []
    for t in np.linspace(0.0, horizon, 101):
        spans.append(spec.max_span(float(t)))
    m = min(spans)
    return float(min(1e-2, max(1e-4, 1e-3 * m)))


def integrate(
    spec: SystemSpec,
    horizon: float,
    dt: float | None = None,
    *,
    blowup_threshold: float = BLOWUP_THRESHOLD,
    stage_ratio: float = STAGE_RATIO,
    converge_rtol: float = CONVERGE_RTOL,
    window_spans: float = WINDOW_SPANS,
    extinction_threshold: float = EXTINCTION_THRESHOLD,
) -> tuple[Trajectory, RunOutcome]:
    """Advance the system to the horizon or an earlier detected outcome.

    Deterministic: identical inputs produce bit-identical trajectories.
    Pass converge_rtol=0 to disable the trailing-window convergence stop.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if dt is None:
        dt = default_dt(spec, horizon)
    if dt <= 0:
        raise ValueError("dt must be positive")

    traj = Trajectory(spec.phi, spec.psi, capacity=min(1 << 20, int(horizon / dt) + 64))
    view = _StageHistory(traj, dt)
    x_hist, y_hist = _StageComponent(view, 0), _StageComponent(view, 1)
    k1, k2, f1, f2 = spec.k1, spec.k2, spec.f1, spec.f2
    x, y = spec.phi.value_at_zero, spec.psi.value_at_zero
    t = 0.0
    eps_t = 1e-12 * max(1.0, horizon)
    served = isinstance(k1, SERVED) and isinstance(k2, SERVED)
    # a density window's block feeds end in a tail read at the stage
    tails = served and not (isinstance(k1, PointMassKernel) and isinstance(k2, PointMassKernel))
    # the block feeds of the current step, or None for the per-stage path
    fed = None

    def deriv(ts: float, xs: float, ys: float, i: int) -> tuple[float, float]:
        """rhs at the step's midpoint (i = 0) or end (i = 2), where fed holds
        the stage's feeds at i and i + 1."""
        if fed is None:
            # set_stage's two stores, without a call per stage: this path
            # also serves the steps no point block covers, at their old cost
            view.t_stage = ts
            view.stage = (xs, ys)
            return rhs(spec, ts, xs, ys, k1.integrate(f1, y_hist, ts), k2.integrate(f2, x_hist, ts))
        fx, fy = fed[i], fed[i + 1]
        return rhs(spec, ts, xs, ys, f1(ys) if fx is None else fx, f2(xs) if fy is None else fy)

    if tails:
        # a run with a density window reads the tails of its block feeds
        # toward the stage state from the step start, set per block step;
        # runs without one keep the deriv above, free of that read
        per_stage = deriv

        def deriv(ts: float, xs: float, ys: float, i: int) -> tuple[float, float]:
            if fed is None:
                return per_stage(ts, xs, ys, i)
            x0, y0, dx0, dy0 = start
            return rhs(spec, ts, xs, ys, window_feed(f1, fed[i], ys, y0, dy0),
                       window_feed(f2, fed[i + 1], xs, x0, dx0))

    # the start node goes in before the first right-hand side, whose value
    # is the node's slope: that call reads only times <= 0, which do not
    # use the slope
    traj.append(t, x, y, 0.0, 0.0)
    if tails:
        view.grid = _StepGrid(traj, dt)
    feeds = block_feeds(spec, view, dt, horizon, eps_t) if served else None
    view.set_step(t, t, x, y, 0.0, 0.0)
    try:
        dx, dy = deriv(t, x, y, 2)
    except EvalDomainError as e:
        raise IntegrationError(f"right-hand side failed at t=0: {e}") from e
    traj._v[0, 2:] = dx, dy

    steps = 0
    block_steps = 0
    guard_note = None
    status = "reached-horizon"
    blow_time = None
    conv_point = None
    extinct_time = None
    check_every = 16
    isfinite = math.isfinite

    def guard(name: str, sx: float, sy: float, kx: float = 0.0, ky: float = 0.0,
              ratio: float = stage_ratio) -> None:
        """Stop the step when a state is non-finite or past the threshold, or
        its increment h * k outruns ratio * (1 + |step start state|)."""
        if (
            abs(sx) > blowup_threshold
            or abs(sy) > blowup_threshold
            or not (isfinite(sx) and isfinite(sy))
            or h * max(abs(kx), abs(ky)) > ratio * scale0
        ):
            raise _StageGuard(name)

    while t < horizon - eps_t:
        t1 = step_end(steps, dt, horizon, eps_t)
        h = t1 - t
        tm = t + 0.5 * h
        scale0 = 1.0 + max(abs(x), abs(y))
        fed = next(feeds) if feeds is not None else None
        if fed is None:
            view.set_step(t, t1, x, y, dx, dy)
        elif tails:
            start = (x, y, dx, dy)
        k1x, k1y = dx, dy
        try:
            sx = x + 0.5 * h * k1x
            sy = y + 0.5 * h * k1y
            guard("stage-1", sx, sy, k1x, k1y)
            k2x, k2y = deriv(tm, sx, sy, 0)
            sx = x + 0.5 * h * k2x
            sy = y + 0.5 * h * k2y
            guard("stage-2", sx, sy, k2x, k2y)
            k3x, k3y = deriv(tm, sx, sy, 0)
            sx = x + h * k3x
            sy = y + h * k3y
            guard("stage-3", sx, sy, k3x, k3y)
            k4x, k4y = deriv(t1, sx, sy, 2)
            # k4's state passed stage-3, so only its increment can fire here
            guard("stage-4", sx, sy, k4x, k4y, 6.0 * stage_ratio)
            x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y1 = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            guard("state-threshold", x1, y1)
            dx1, dy1 = deriv(t1, x1, y1, 2)
        except _StageGuard as e:
            guard_note = e.args[0]
            status = "blow-up"
            break
        except EvalDomainError as e:
            if max(abs(x), abs(y)) > 1e6:
                guard_note = f"domain-error:{e}"
                status = "blow-up"
                break
            raise IntegrationError(f"right-hand side failed near t={t!r}: {e}") from e

        view.append(t1, x1, y1, dx1, dy1)
        steps += 1
        block_steps += fed is not None
        t, x, y, dx, dy = t1, x1, y1, dx1, dy1

        if max(abs(x), abs(y)) < extinction_threshold:
            status = "extinct"
            extinct_time = t
            break

        # converge_rtol <= 0 can never stop the run: skip the window
        if converge_rtol > 0.0 and steps % check_every == 0:
            window = max(window_spans * spec.max_span(t), 100.0 * dt)
            ts = traj.step_times()
            if t - window > ts[0]:
                i_from = int(ts.searchsorted(t - window, side="left"))
                xs = traj.step_values(0)[i_from:]
                ys = traj.step_values(1)[i_from:]
                rel_x = (xs.max() - xs.min()) / max(1.0, abs(x))
                rel_y = (ys.max() - ys.min()) / max(1.0, abs(y))
                if rel_x < converge_rtol and rel_y < converge_rtol:
                    status = "converged"
                    conv_point = (x, y)
                    break

    if status == "blow-up":
        blow_time = t
    outcome = RunOutcome(
        status=status,
        final_state=(x, y),
        t_final=t,
        blowup_time=blow_time,
        converged_point=conv_point,
        extinct_time=extinct_time,
        diagnostics={"steps": steps, "block_steps": block_steps, "dt": dt, "stage_guard": guard_note},
    )
    return traj, outcome


def detect_nonoscillation_violation(
    traj: Trajectory,
    K: float,
    f2K: float,
    side: str,
    tol: float = 1e-9,
) -> tuple[float, str] | None:
    """First stored time at which (x, y) crosses (K, f2(K)) against the
    claimed side, scanned at step resolution; None when there is none."""
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    ts = traj.step_times()
    xs = traj.step_values(0)
    ys = traj.step_values(1)
    if side == "above":
        bad_x = xs < K - tol
        bad_y = ys < f2K - tol
    else:
        bad_x = xs > K + tol
        bad_y = ys > f2K + tol
    bad = bad_x | bad_y
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    comp = "x" if bad_x[i] else "y"
    return float(ts[i]), comp
