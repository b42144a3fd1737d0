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
therefore builds each density kernel's quadrature plan once per stage time,
and looks up the stored part of each distinct node set once, x and y
together in one call; each stage then blends only the nodes inside the
current step (usually none or one).  Everything it keeps is dropped when
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
    "eval_trajectory",
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


class _StepSamples:
    """Both components at one node set for the current step and stage time.

    The part of the nodes inside stored history is looked up once, for x
    and y together; the in-step tail keeps its blend weights, so each
    stage only blends its own start and stage values.
    """

    __slots__ = ("stored", "w", "w_start")

    def __init__(self, view: "_StageHistory", nodes: np.ndarray):
        k = int(nodes.searchsorted(view.traj.t_front, side="right"))
        if k:
            self.stored = view.traj.value_array(nodes[:k])
        else:
            self.stored = np.empty((2, 0), dtype=float)
        self.stored.flags.writeable = False
        tail = nodes[k:]
        if not tail.size:
            self.w = None
            return
        if view.t_stage > view.t0:
            w = np.minimum(np.maximum((tail - view.t0) / (view.t_stage - view.t0), 0.0), 1.0)
        else:
            w = np.ones_like(tail)
        self.w = w
        self.w_start = 1.0 - w


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

    def sample(self, kernel, t, n_quad):
        v = self.view
        c = self.comp
        plan, samples = v.samples(kernel, t, n_quad)
        if samples.w is None:
            return plan, samples.stored[c]
        tail = samples.w_start * v.start[c] + samples.w * v.stage[c]
        return plan, np.concatenate((samples.stored[c], tail))


class _StageHistory:
    """Mutable per-step view combining stored history with the live stage.

    Stored history does not change inside a step, so the view keeps, until
    the next `set_step`, each kernel's plan per stage time and the stored
    lookups per distinct node set (see `_StepSamples`).  The right-hand
    side reads it through `components()`; the view holds no reference back
    to them, so a finished run's history is freed as soon as it is dropped.
    """

    __slots__ = ("traj", "t0", "start", "t_stage", "stage", "_plans", "_samples")

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.t0 = 0.0
        self.start = (0.0, 0.0)
        self.t_stage = 0.0
        self.stage = (0.0, 0.0)
        self._plans: dict = {}
        self._samples: dict = {}

    def set_step(self, t0: float, x0: float, y0: float) -> None:
        self.t0 = t0
        self.start = (x0, y0)
        self._plans.clear()
        self._samples.clear()

    def set_stage(self, t: float, x: float, y: float) -> None:
        self.t_stage = t
        self.stage = (x, y)

    def components(self) -> "_StageComponents":
        return _StageComponents(_StageComponent(self, 0), _StageComponent(self, 1))

    def samples(self, kernel, t: float, n_quad: int):
        """The kernel's plan at t and the samples of its nodes, each built
        once per step and stage time."""
        key = (kernel, t, n_quad, self.t_stage)
        hit = self._plans.get(key)
        if hit is None:
            plan = kernel.plan(t, n_quad)
            nodes_key = (plan.nodes.tobytes(), self.t_stage)
            samples = self._samples.get(nodes_key)
            if samples is None:
                samples = self._samples[nodes_key] = _StepSamples(self, plan.nodes)
            hit = self._plans[key] = (plan, samples)
        return hit


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

    view.set_step(t, x, y)
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

    while t < horizon - eps_t:
        # drift-free node times: i*dt exactly, final step clamped to horizon
        t1_nominal = (steps + 1) * dt
        t1 = horizon if t1_nominal >= horizon - eps_t else t1_nominal
        h = t1 - t
        scale0 = 1.0 + max(abs(x), abs(y))
        view.set_step(t, x, y)
        k1x, k1y = dx, dy
        try:
            sx = x + 0.5 * h * k1x
            sy = y + 0.5 * h * k1y
            if not (math.isfinite(sx) and math.isfinite(sy)) or max(abs(sx), abs(sy)) > blowup_threshold or h * max(abs(k1x), abs(k1y)) > stage_ratio * scale0:
                guard_note = "stage-1"
                status = "blow-up"
                break
            k2x, k2y = deriv(t + 0.5 * h, sx, sy)
            sx = x + 0.5 * h * k2x
            sy = y + 0.5 * h * k2y
            if not (math.isfinite(sx) and math.isfinite(sy)) or max(abs(sx), abs(sy)) > blowup_threshold or h * max(abs(k2x), abs(k2y)) > stage_ratio * scale0:
                guard_note = "stage-2"
                status = "blow-up"
                break
            k3x, k3y = deriv(t + 0.5 * h, sx, sy)
            sx = x + h * k3x
            sy = y + h * k3y
            if not (math.isfinite(sx) and math.isfinite(sy)) or max(abs(sx), abs(sy)) > blowup_threshold or h * max(abs(k3x), abs(k3y)) > stage_ratio * scale0:
                guard_note = "stage-3"
                status = "blow-up"
                break
            k4x, k4y = deriv(t1, sx, sy)
            if h * max(abs(k4x), abs(k4y)) > 6.0 * stage_ratio * scale0:
                guard_note = "stage-4"
                status = "blow-up"
                break
            x1 = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y1 = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            if not (math.isfinite(x1) and math.isfinite(y1)) or max(abs(x1), abs(y1)) > blowup_threshold:
                guard_note = "state-threshold"
                status = "blow-up"
                break
            dx1, dy1 = deriv(t1, x1, y1)
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


def eval_trajectory(traj: Trajectory, t: float) -> tuple[float, float]:
    """State at time t; initial data for t <= 0, error beyond the front."""
    return traj.value(t)


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
