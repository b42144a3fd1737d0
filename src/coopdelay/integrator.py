"""Fixed-step RK4 with cubic-Hermite dense output for delayed lookups.

History access during a step follows the usual overlapping-argument
treatment: completed segments are read through their Hermite interpolant,
lookups strictly inside the current step blend linearly between the step
start and the active stage point, and a lookup exactly at the stage time
returns the stage state itself.  With zero lag this reduces to classical
RK4 on the coupled system.

A step evaluates the right-hand side at two distinct stage times (t + h/2
for k2 and k3, t + h for k4 and the end-of-step derivative), and stored
history changes only after the step is accepted.  The per-step stage view
serves each density kernel's feedback through `HistoryComponent.feedback`:
on the kernel's first use in a step it builds the kernel's plans at both
stage times and looks up their stored parts in one call, x and y together;
the sum over stored nodes is then computed once per stage time, production
function and component, and each stage adds only the nodes inside the
current step (usually none or one), blended toward its own stage state.
Equal kernels share all of it.  Everything the view keeps is dropped when
the next step starts.  Point kernels read single times and keep the scalar
path.

Runs terminate early on blow-up or on convergence of the state over a
trailing window.  Blow-up is declared when a state or stage value passes
the threshold, turns non-finite, or a stage increment outruns the step
(|dt * k| > ratio * (1 + |state|)); the reported time is the last accepted
state, the final moment the trajectory is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import SystemSpec, rhs
from .kernels import HistoryComponent, HistoryUnderflowError
from .expr import EvalDomainError

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


# per-segment Hermite data, one row each, x and y side by side: values at
# t0, values at t1, slopes at t0, slopes at t1
_ROWS = ("_x0", "_y0", "_x1", "_y1", "_dx0", "_dy0", "_dx1", "_dy1")


class Trajectory:
    """Piecewise cubic-Hermite history of (x, y) over (-inf, t_front].

    Negative times are served by the initial functions; stored segments
    are contiguous, share endpoint values exactly, and are immutable once
    written.
    """

    __slots__ = (
        "phi", "psi", "n", "t_front", "coverage_floor", "_t0", "_t1", "_seg", *_ROWS,
    )

    def __init__(self, phi=None, psi=None, capacity: int = 4096):
        self.phi = phi
        self.psi = psi
        self.n = 0
        self.t_front = 0.0
        self.coverage_floor = -math.inf if phi is not None else 0.0
        cap = max(16, capacity)
        self._t0 = np.empty(cap, dtype=float)
        self._t1 = np.empty(cap, dtype=float)
        self._seg = np.empty((len(_ROWS), cap), dtype=float)
        self._bind_rows()

    # -- storage -------------------------------------------------------

    def _bind_rows(self) -> None:
        for row, name in zip(self._seg, _ROWS):
            setattr(self, name, row)

    def _grow(self) -> None:
        n = self.n
        for name in ("_t0", "_t1", "_seg"):
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (2 * old.shape[-1],), dtype=float)
            new[..., :n] = old[..., :n]
            setattr(self, name, new)
        self._bind_rows()

    def append_segment(self, t0, t1, x0, x1, dx0, dx1, y0, y1, dy0, dy1) -> None:
        if self.n == self._t0.size:
            self._grow()
        i = self.n
        self._t0[i] = t0
        self._t1[i] = t1
        self._x0[i] = x0
        self._x1[i] = x1
        self._dx0[i] = dx0
        self._dx1[i] = dx1
        self._y0[i] = y0
        self._y1[i] = y1
        self._dy0[i] = dy0
        self._dy1[i] = dy1
        self.n += 1
        self.t_front = t1

    def trim_before(self, t: float) -> int:
        """Drop whole segments ending before t; returns segments removed.
        Only safe when every kernel's support is bounded away from the cut."""
        keep_from = int(np.searchsorted(self._t1[: self.n], t, side="left"))
        if keep_from <= 0:
            return 0
        for arr in (self._t0, self._t1, self._seg):
            arr[..., : self.n - keep_from] = arr[..., keep_from : self.n]
        self.n -= keep_from
        self.coverage_floor = float(self._t0[0])
        return keep_from

    # -- evaluation ------------------------------------------------------

    def _initial(self, t: float, comp: int) -> float:
        fn = self.phi if comp == 0 else self.psi
        if fn is None:
            raise HistoryUnderflowError(f"no initial function covers t={t!r}")
        return fn(t)

    def value_scalar(self, t: float, comp: int) -> float:
        if t <= 0.0:
            if t < self.coverage_floor:
                raise HistoryUnderflowError(f"history starts at {self.coverage_floor!r}, asked {t!r}")
            return self._initial(t, comp)
        if t > self.t_front:
            if t - self.t_front <= 1e-12 * max(1.0, abs(self.t_front)):
                t = self.t_front
            else:
                raise ValueError(f"trajectory ends at t={self.t_front!r}, asked {t!r}")
        if t < self.coverage_floor:
            raise HistoryUnderflowError(f"history trimmed to {self.coverage_floor!r}, asked {t!r}")
        if self.n == 0:
            raise HistoryUnderflowError("empty trajectory")
        view = self._t0[: self.n]
        i = int(view.searchsorted(t, side="right")) - 1
        if i < 0:
            i = 0
        t0 = self._t0[i]
        h = self._t1[i] - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        if comp == 0:
            return float(
                h00 * self._x0[i] + h01 * self._x1[i]
                + h * (h10 * self._dx0[i] + h11 * self._dx1[i])
            )
        return float(
            h00 * self._y0[i] + h01 * self._y1[i]
            + h * (h10 * self._dy0[i] + h11 * self._dy1[i])
        )

    def value_array(self, ts: np.ndarray, comp: int | None = None) -> np.ndarray:
        """Values at the times ts of x (comp 0) or y (comp 1), or of both
        as the rows of a (2, len(ts)) array when comp is None; both then
        share one segment search and one Hermite basis."""
        ts = np.asarray(ts, dtype=float)
        comps = (0, 1) if comp is None else (comp,)
        out = np.empty((len(comps),) + ts.shape, dtype=float)
        if ts.size:
            lo = ts.min()
            hi = ts.max()
            if lo < self.coverage_floor:
                raise HistoryUnderflowError(f"history starts at {self.coverage_floor!r}, asked {float(lo)!r}")
            if hi > self.t_front + 1e-12 * max(1.0, abs(self.t_front)):
                raise ValueError(f"trajectory ends at t={self.t_front!r}, asked {float(hi)!r}")
            if lo > 0.0:
                out = self._hermite(ts, comps)
            else:
                neg = ts <= 0.0
                if np.any(neg):
                    for row, c in zip(out, comps):
                        fn = self.phi if c == 0 else self.psi
                        if fn is None:
                            raise HistoryUnderflowError("no initial function")
                        row[neg] = fn.array(ts[neg])
                pos = ~neg
                if np.any(pos):
                    out[:, pos] = self._hermite(ts[pos], comps)
        return out if comp is None else out[0]

    def _hermite(self, ts: np.ndarray, comps: tuple[int, ...]) -> np.ndarray:
        """Stored-segment values at the positive times ts, one row per component."""
        # a time before the first segment can only come from a hand-built
        # history; it reads the first segment, as value_scalar does
        idx = self._t0[: self.n].searchsorted(ts, side="right") - 1
        np.maximum(idx, 0, out=idx)
        t0 = self._t0[idx]
        h = self._t1[idx] - t0
        s = (ts - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        rows = self._seg if len(comps) == 2 else self._seg[comps[0] :: 2]
        g = rows.take(idx, axis=1).reshape((4, len(comps)) + idx.shape)
        return h00 * g[0] + h01 * g[1] + h * (h10 * g[2] + h11 * g[3])

    def value(self, t: float) -> tuple[float, float]:
        return self.value_scalar(t, 0), self.value_scalar(t, 1)

    # -- step-resolution views -------------------------------------------

    def step_times(self) -> np.ndarray:
        if self.n == 0:
            return np.array([0.0])
        return np.concatenate(([self._t0[0]], self._t1[: self.n]))

    def step_values(self, comp: int) -> np.ndarray:
        if self.n == 0:
            raise ValueError("empty trajectory")
        first = self._x0[0] if comp == 0 else self._y0[0]
        tail = self._x1[: self.n] if comp == 0 else self._y1[: self.n]
        return np.concatenate(([first], tail))

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


class _StepWindow:
    """One density kernel's quadrature at the two stage times of a step.

    For each stage time (slot 0 at the midpoint, slot 1 at the step end)
    it keeps the plan, the number of its nodes inside stored history, the
    stored values there (rows x and y; one lookup serves both components
    and both stage times) and, for the nodes inside the step, the product
    weight * density and the blend weights toward the start and the stage
    state.  The sum over stored nodes is computed once per production
    function and component; each stage then adds only its tail.
    """

    __slots__ = ("plans", "split", "stored", "tails", "sums")

    def __init__(self, view: "_StageHistory", kernel, n_quad: int):
        front = view.traj.t_front
        self.plans = [kernel.plan(t, n_quad) for t in view.times]
        self.split = [int(p.nodes.searchsorted(front, side="right")) for p in self.plans]
        both = view.traj.value_array(np.concatenate([p.nodes[:k] for p, k in zip(self.plans, self.split)]))
        both.flags.writeable = False
        k0 = self.split[0]
        self.stored = (both[:, :k0], both[:, k0:])
        self.tails = [_tail(view.t0, t, p, k) for t, p, k in zip(view.times, self.plans, self.split)]
        self.sums: dict = {}

    def stored_sum(self, f, comp: int, slot: int) -> float:
        """dot(weights * density, f(u)) over the slot's stored nodes, once."""
        key = (f, comp, slot)
        total = self.sums.get(key)
        if total is None:
            k = self.split[slot]
            plan = self.plans[slot]
            wd = plan.weights[:k] * plan.density[:k]
            total = self.sums[key] = float(np.dot(wd, f.eval_array(self.stored[slot][comp])))
        return total


def _tail(t0: float, t_stage: float, plan, k: int) -> list[tuple[float, float, float]]:
    """(weight * density, start blend, stage blend) of each plan node after
    the first k, for the linear blend between the step start at t0 and the
    stage.  Scalar arithmetic: the tail is usually a single node."""
    out = []
    for s, wj, dj in zip(plan.nodes[k:].tolist(), plan.weights[k:].tolist(), plan.density[k:].tolist()):
        w = min(max((s - t0) / (t_stage - t0), 0.0), 1.0) if t_stage > t0 else 1.0
        out.append((wj * dj, 1.0 - w, w))
    return out


class _StageComponent(HistoryComponent):
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
        w = (s - v.t0) / (v.t_stage - v.t0)
        return (1.0 - w) * v.start[self.comp] + w * v.stage[self.comp]

    def feedback(self, kernel, f, t, n_quad):
        """The stored sum of the kernel's window at t plus its in-step tail,
        blended toward the stage state set for t."""
        v = self.view
        c = self.comp
        slot = v.slot(t)
        win = v.window(kernel, n_quad)
        total = win.stored_sum(f, c, slot)
        for wd, w0, w1 in win.tails[slot]:
            total += wd * f(w0 * v.start[c] + w1 * v.stage[c])
        return total


class _StageHistory:
    """Mutable per-step view combining stored history with the live stage.

    A step evaluates the right-hand side at two stage times, and stored
    history does not change inside it, so the view keeps, until the next
    `set_step`, one `_StepWindow` per density kernel (equal kernels share
    one).  The right-hand side reads it through `components()`; the view
    holds no reference back to them, so a finished run's history is freed
    as soon as it is dropped.
    """

    __slots__ = ("traj", "t0", "start", "times", "t_stage", "stage", "_windows")

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.t0 = 0.0
        self.start = (0.0, 0.0)
        self.times = (0.0, 0.0)
        self.t_stage = 0.0
        self.stage = (0.0, 0.0)
        self._windows: dict = {}

    def set_step(self, t0: float, t1: float, x0: float, y0: float) -> None:
        """Start the step [t0, t1] from (x0, y0); its stage times are formed
        as `integrate` forms them.  A step with t1 == t0 has the single
        stage time t0."""
        self.t0 = t0
        self.start = (x0, y0)
        self.times = (t0 + 0.5 * (t1 - t0), t1)
        self._windows.clear()

    def set_stage(self, t: float, x: float, y: float) -> None:
        self.t_stage = t
        self.stage = (x, y)

    def components(self) -> "_StageComponents":
        return _StageComponents(_StageComponent(self, 0), _StageComponent(self, 1))

    def slot(self, t: float) -> int:
        """Index of t among the step's stage times."""
        if t == self.times[1]:
            return 1
        if t == self.times[0]:
            return 0
        raise ValueError(f"t={t!r} is not a stage time of the step {self.times!r}")

    def window(self, kernel, n_quad: int) -> _StepWindow:
        """The kernel's quadrature at both stage times, built once per step."""
        key = (kernel, n_quad)
        win = self._windows.get(key)
        if win is None:
            win = self._windows[key] = _StepWindow(self, kernel, n_quad)
        return win


class _StageComponents(NamedTuple):
    """The history the right-hand side reads during a step."""

    x_component: _StageComponent
    y_component: _StageComponent


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
    n_quad: int = 64,
    blowup_threshold: float = BLOWUP_THRESHOLD,
    stage_ratio: float = STAGE_RATIO,
    converge_rtol: float = CONVERGE_RTOL,
    window_spans: float = WINDOW_SPANS,
    extinction_threshold: float = EXTINCTION_THRESHOLD,
    trim_history: bool = False,
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
    view = _StageHistory(traj)
    hist = view.components()
    x, y = spec.phi.value_at_zero, spec.psi.value_at_zero
    t = 0.0

    def deriv(ts: float, xs: float, ys: float) -> tuple[float, float]:
        view.set_stage(ts, xs, ys)
        return rhs(spec, ts, xs, ys, hist, n_quad)

    view.set_step(t, t, x, y)
    try:
        dx, dy = deriv(t, x, y)
    except (EvalDomainError, HistoryUnderflowError) as e:
        raise IntegrationError(f"right-hand side failed at t=0: {e}") from e

    steps = 0
    guard_note = None
    status = "reached-horizon"
    blow_time = None
    conv_point = None
    extinct_time = None
    check_every = 16
    eps_t = 1e-12 * max(1.0, horizon)

    def guard(name: str, sx: float, sy: float, kx: float = 0.0, ky: float = 0.0,
              ratio: float = stage_ratio) -> None:
        """Stop the step when a state is non-finite or past the threshold, or
        its increment h * k outruns ratio * (1 + |step start state|)."""
        if (
            not (math.isfinite(sx) and math.isfinite(sy))
            or max(abs(sx), abs(sy)) > blowup_threshold
            or h * max(abs(kx), abs(ky)) > ratio * scale0
        ):
            raise _StageGuard(name)

    while t < horizon - eps_t:
        # drift-free node times: i*dt exactly, final step clamped to horizon
        t1_nominal = (steps + 1) * dt
        t1 = horizon if t1_nominal >= horizon - eps_t else t1_nominal
        h = t1 - t
        scale0 = 1.0 + max(abs(x), abs(y))
        view.set_step(t, t1, x, y)
        k1x, k1y = dx, dy
        try:
            sx = x + 0.5 * h * k1x
            sy = y + 0.5 * h * k1y
            guard("stage-1", sx, sy, k1x, k1y)
            k2x, k2y = deriv(t + 0.5 * h, sx, sy)
            sx = x + 0.5 * h * k2x
            sy = y + 0.5 * h * k2y
            guard("stage-2", sx, sy, k2x, k2y)
            k3x, k3y = deriv(t + 0.5 * h, sx, sy)
            sx = x + h * k3x
            sy = y + h * k3y
            guard("stage-3", sx, sy, k3x, k3y)
            k4x, k4y = deriv(t1, sx, sy)
            # k4's state passed stage-3, so only its increment can fire here
            guard("stage-4", sx, sy, k4x, k4y, 6.0 * stage_ratio)
            x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y1 = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            guard("state-threshold", x1, y1)
            dx1, dy1 = deriv(t1, x1, y1)
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
        except HistoryUnderflowError as e:
            raise IntegrationError(f"history underflow near t={t!r}: {e}") from e

        traj.append_segment(t, t1, x, x1, k1x, dx1, y, y1, k1y, dy1)
        steps += 1
        t, x, y, dx, dy = t1, x1, y1, dx1, dy1

        if max(abs(x), abs(y)) < extinction_threshold:
            status = "extinct"
            extinct_time = t
            break

        if steps % check_every == 0:
            window = max(window_spans * spec.max_span(t), 100.0 * dt)
            if t - window > traj._t0[0]:
                view_t1 = traj._t1[: traj.n]
                i_from = int(view_t1.searchsorted(t - window, side="left"))
                xs = traj._x1[i_from : traj.n]
                ys = traj._y1[i_from : traj.n]
                rel_x = (xs.max() - xs.min()) / max(1.0, abs(x))
                rel_y = (ys.max() - ys.min()) / max(1.0, abs(y))
                if rel_x < converge_rtol and rel_y < converge_rtol:
                    status = "converged"
                    conv_point = (x, y)
                    break
            if trim_history:
                bound = spec.max_span(t)
                if math.isfinite(bound):
                    traj.trim_before(t - bound - 10.0 * dt)

    if status == "blow-up":
        blow_time = t
    outcome = RunOutcome(
        status=status,
        final_state=(x, y),
        t_final=t,
        blowup_time=blow_time,
        converged_point=conv_point,
        extinct_time=extinct_time,
        diagnostics={"steps": steps, "dt": dt, "stage_guard": guard_note},
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
