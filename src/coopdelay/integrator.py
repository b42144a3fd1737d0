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
derivative); stored history changes only after the step is accepted.

Feedbacks.  Every right-hand side, the derivative at t = 0's included,
takes its two feedbacks from `feeds.block_feeds`, a block of upcoming steps
at a time; what they read inside the step is read at the stage with
`feeds.window_feed`.  A step whose feeds are numbers, or f of the stage
state for a zero lag, runs the `plain` right-hand side, any other step the
`general` one, which reads toward the stage state from the step's start.

Density kernels: composite Simpson on the step grid (`_StepGrid`) of step
ends and Hermite midpoints, with f of each node evaluated once; the panel
from the step start to the stage time reads its midpoint from the quadratic
above and ends at the stage state (see `feeds`).

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
from .kernels import HistoryUnderflowError
from .expr import EvalDomainError
from .feeds import block_feeds, step_end, window_feed

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

    def value_array(self, ts: np.ndarray, comp: int | None = None) -> np.ndarray:
        """Values of x and y at the times ts, as the rows of a (2, len(ts))
        array, or of the component comp alone (and only its initial data),
        from one segment search and one Hermite basis."""
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            lo = ts.min()
            hi = ts.max()
            if hi > self.t_front + 1e-12 * max(1.0, abs(self.t_front)):
                raise ValueError(f"trajectory ends at t={self.t_front!r}, asked {float(hi)!r}")
        if ts.size and lo > 0.0:
            out = self._stored(ts)
        else:
            out = np.empty((2,) + ts.shape, dtype=float)
            neg = ts <= 0.0
            if np.any(neg):
                for c in (0, 1) if comp is None else (comp,):
                    fn = self.phi if c == 0 else self.psi
                    if fn is None:
                        raise HistoryUnderflowError("no initial function")
                    out[c, neg] = fn.array(ts[neg])
            pos = ~neg
            if np.any(pos):
                out[:, pos] = self._stored(ts[pos])
        return out if comp is None else out[comp]

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
    between step ends is a run of whole Simpson panels, weighted by `w`, dt/6
    times 1, 4, 2, 4, ...  Each accepted step adds its midpoint and end
    (`push`); below the first stored time the times go on at multiples of
    dt/2 as far back as a floor has reached (`extend`).  f of a component is
    evaluated once per node, when a window first reads it (`fed`), after the
    component's initial data there, so a window reads only the initial data
    of the component it is fed from, and a domain error surfaces at the stage
    that first reads the failing node.
    """

    __slots__ = ("traj", "dt", "n", "t", "xy", "w", "filled", "_fed")

    def __init__(self, traj: Trajectory, dt: float):
        self.traj = traj
        self.dt = dt
        self.n = 0
        self.t = np.empty(0)
        self.xy = np.empty((2, 0))
        self.w = np.empty(0)
        self.filled = [0, 0]  # per component, the lowest node that holds its value
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
        self.filled = [i + shift for i in self.filled]
        for entry in self._fed.values():
            old = entry[0]
            new = np.empty(cap) if cap != old.size else old
            new[shift : shift + n] = old[:n]
            entry[0] = new
            entry[1] += shift
            entry[2] += shift

    def extend(self, floor: float) -> None:
        """Extend the grid's times down to the first step end at or below
        floor."""
        lowest = float(self.t[0])
        if floor >= lowest:
            return
        half = 0.5 * self.dt
        k = max(1, math.ceil((lowest - floor) / self.dt))
        while lowest + (-2 * k) * half > floor:
            k += 1
        self._resize(self.n + 2 * k, 2 * k)
        self.n += 2 * k
        self.t[: 2 * k] = lowest + np.arange(-2 * k, 0) * half

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
        """f of the component at the nodes from i on, each evaluated once;
        below the stored nodes the component's initial data are read first
        (HistoryUnderflowError without them)."""
        n = self.n
        row = self.xy[comp]
        low = self.filled[comp]
        if i < low:
            row[i:low] = self.traj.value_array(self.t[i:low], comp)
            self.filled[comp] = i
        entry = self._fed.get((f, comp))
        if entry is None:
            entry = self._fed[f, comp] = [np.empty(self.t.size), i, i]
        fu, lo, hi = entry
        if i > hi:  # nothing read between hi and i
            lo = hi = i
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
    f1, f2 = spec.f1, spec.f2
    x, y = spec.phi.value_at_zero, spec.psi.value_at_zero
    t = 0.0
    eps_t = 1e-12 * max(1.0, horizon)
    # the step's feeds, and its start values and slopes
    fed = start = None

    def plain(ts: float, xs: float, ys: float, i: int) -> tuple[float, float]:
        """rhs at the step's midpoint (i = 0) or end (i = 2), fed holding
        the stage's feeds at i and i + 1: numbers, or None for f of the
        stage state."""
        fx, fy = fed[i], fed[i + 1]
        return rhs(spec, ts, xs, ys, f1(ys) if fx is None else fx, f2(xs) if fy is None else fy)

    def general(ts: float, xs: float, ys: float, i: int) -> tuple[float, float]:
        """rhs as `plain`, for feeds of any kind."""
        x0, y0, dx0, dy0 = start
        return rhs(spec, ts, xs, ys, window_feed(f1, fed[i], ys, y0, dy0),
                   window_feed(f2, fed[i + 1], xs, x0, dx0))

    # the start node goes in before the first right-hand side, whose value
    # is the node's slope: that call reads only times <= 0, which do not
    # use the slope
    traj.append(t, x, y, 0.0, 0.0)
    grid = _StepGrid(traj, dt) if spec.k1.density_lag is not None or spec.k2.density_lag is not None else None
    blocks = [0]
    feeds = block_feeds(spec, traj, grid, dt, horizon, eps_t, blocks)
    fed = next(feeds)
    start = (x, y, 0.0, 0.0)
    try:
        dx, dy = (plain if fed.__class__ is tuple else general)(t, x, y, 2)
    except EvalDomainError as e:
        raise IntegrationError(f"right-hand side failed at t=0: {e}") from e
    traj._v[0, 2:] = dx, dy

    steps = 0
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
        fed = next(feeds)
        if fed.__class__ is tuple:
            deriv = plain
        else:
            deriv = general
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

        traj.append(t1, x1, y1, dx1, dy1)
        if grid is not None:
            grid.push(t1, x1, y1, dx1, dy1)
        steps += 1
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
        diagnostics={"steps": steps, "blocks": blocks[0], "dt": dt, "stage_guard": guard_note},
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
