"""Fixed-step RK4 with cubic-Hermite dense output for delayed lookups.

History access.  The run's history is append-only (`Trajectory`): one node
per accepted step end holds the time and x, y, x', y' there, node 0 holds
the initial state with the slope of the first right-hand-side call, and
segment i is the cubic Hermite from node i to node i + 1.  Nodes are
stored through flat memoryviews of the node arrays: the compiled loop
stores the ends of its steps itself, into room it reserves for the steps up
to its next convergence check, and the start node and the checked step's
ends go through `Trajectory.append`.  Nothing is ever cut:
a delay may be unbounded, so a lag can read any time of the run, and the
checks after a run read all of it.  The initial functions serve times
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
takes its two feedbacks from `feeds.block_feeds`, one item per step, the
step's end and four feeds (x and y at the step's midpoint, then at its
end), read a block of upcoming steps at a time; what they read inside the
step is read at the stage with `windows.window_feed`.

The step.  `_compile_steps` writes the RK4 step once, as a template of
Python source, and renders it in two ways.  Both take the step's end from
its item, so steps end where `feeds._Ahead.rows` puts them, and no other
code forms a step end; the items end at the horizon.  The compiled loop,
rendered for every kernel, takes every step of the run.  It takes a step
whose feeds are plain for its kernels with all of it inline (from
`expr._emit`'s source of f, r and G): for a kernel without a density a
number (a mixture of atoms that read numbers is one), or None for f of the
stage state, and for one with a density a row of its window, its value read
from the block's running sums, with its tail panel.  It forms the stage
states, r(t) * (G(x) * (feed - x)) and the window's row and tail in `rhs`'s
and `window_feed`'s operation order; each rate is evaluated once per stage
time, and a rate of 1 or an unset G folds away (1.0 * z == z).  Its guards
are tests without calls that fail wherever the checked guards fire (and
also at a state equal to the threshold or on a NaN increment).  A step with
a feed that is not plain (a `_Sum`, `_InStep` or `_Raise`), or whose inline
arithmetic raises, fails a guard or ends in a non-finite derivative or f at
a node, the loop hands to the checked step, from the same state, and goes
on from its end.  Per step inline it makes no call but those of f, r and G:
its tests of size and finiteness are comparisons.  The checked step,
generated when a run first needs it, takes that one step: each stage calls
`rhs` (as the module holds it then) on the `window_feed` values, and each
guard raises with its name and the values it compared.  Both store each
accepted step and do a window's work of it: f, by the scalar f, of the
component the window reads at the step's midpoint (the Hermite cubic at
s = 1/2, in `_hermite`'s operation order) and at its end (which the compiled
loop takes from the end's derivative), handed to the step grid as that
component's pending f values (the checked step keeps an error f raises at
one node with that node, `_StepGrid.node`), and, from the same lines, those
nodes, weighed as the row hands them over, into its block's running sums.
The nodes they make are bit-identical.  The derivative at t = 0 is one `rhs`
call.

Density kernels are composite Simpson on the step grid of step ends and
Hermite midpoints (`windows`).

Runs terminate early on blow-up, on extinction (both components below the
extinction threshold) or on convergence of the state over a trailing window.
The window is checked after every CHECK_EVERY-th step, at the step's time t,
by one check that `integrate` defines and the loop calls, so `integrate`
enters the loop once, and the loop returns once: at the horizon, at
extinction or on convergence, or with what the checked step raises (a guard
that fires, or an error of a feed or the right-hand side).  The window
reaches back max(window_spans * spec.max_span(t), 100 * dt), and no check
is made until t minus the window lies after t = 0, the first stored time.  The window holds the stored steps
from the first at or after t minus the window to the state, and the run
converges when x and y each span (max - min) less than converge_rtol there,
relative to max(1, |x|) and max(1, |y|) of the state.  Before it reads the
window, a check compares the state with the window's first stored step x_i,
y_i: when |x - x_i| / max(1, |x|) >= converge_rtol, or the same for y, it
fails without reading the rest (`_ends_apart`).  This reject is exact: max -
min >= |x - x_i| for a window holding both nodes, and rounded subtraction,
abs and division by the same max(1, |x|) are monotone, so it never refuses a
window the range test accepts (a NaN fails >= and goes on to the range
test).  A run that approaches a limit moves almost monotonically, so its
window's range is mostly the gap between the window's ends, and nearly every
failing check stops there.  With zero lags the window is 100 * dt, a fixed
number of steps rather than a span of time, so a run at dt = 1e-300
"converges" before its state can move.  A lag proportional to t has a span
proportional to t, and the window may then never fit: for the lag t/2 the
window is 5 * t, so pantograph_logistic makes no check and cannot stop on
convergence, however flat its state.

Blow-up is declared when a state or stage value passes the threshold,
turns non-finite, or a stage increment outruns the step
(|dt * k| > ratio * (1 + |state|), six times the ratio for k4); the
reported time is the last accepted state, the final moment the trajectory
is trustworthy, and the diagnostics name the guard and the values it
compared.  A domain error at a state past 1e6 is a blow-up too; any other
error a feed or the right-hand side raises (`windows.ERRORS`) ends the run
with IntegrationError.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemSpec, rhs
from .kernels import HistoryUnderflowError
from .expr import _SCALAR_ENV, EvalDomainError, Num, _emit
from .feeds import BLOCK_ENDS, block_feeds
from .windows import ERRORS, _each, _StepGrid, window_feed

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
# the convergence window is checked after every CHECK_EVERY-th step
CHECK_EVERY = 16


class IntegrationError(RuntimeError):
    """Numerical failure that is not a detected blow-up."""


class _StageGuard(Exception):
    """A blow-up guard fired inside a step.  The checked step's has as its
    arguments the guard's name and the values it compared; the compiled
    loop's has none, and hands the step to the checked step."""


def _json_safe(v):
    """A guard value for the report: a non-finite float as "nan", "inf" or
    "-inf", which strict JSON lacks, also inside a list."""
    if v.__class__ is list:
        return [_json_safe(u) for u in v]
    return v if math.isfinite(v) else str(v)


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

    __slots__ = ("phi", "psi", "n", "t_front", "_t", "_v", "_tm", "_vm")

    def __init__(self, phi=None, psi=None, capacity: int = 4096):
        self.phi = phi
        self.psi = psi
        self.n = -1
        self.t_front = 0.0
        cap = max(16, capacity)
        self._t = np.empty(cap, dtype=float)
        self._v = np.empty((cap, 4), dtype=float)
        self._views()

    # -- storage -------------------------------------------------------

    def _views(self) -> None:
        """Flat memoryviews of the node arrays, through which nodes are
        stored: time i is _tm[i], and x, y, x', y' of node i are _vm[4 * i]
        to _vm[4 * i + 3]."""
        self._tm = memoryview(self._t)
        self._vm = memoryview(self._v.reshape(-1))

    def reserve(self, rows: int) -> None:
        """Room for rows more nodes after the front's: the arrays grow to at
        least twice their size when they must, and their views with them."""
        size = self.n + 1 + rows
        cap = self._t.size
        if size > cap:
            grow = max(size, 2 * cap) - cap
            self._t = np.concatenate((self._t, np.empty(grow)))
            self._v = np.concatenate((self._v, np.empty((grow, 4))))
            self._views()

    def append(self, t, x, y, dx, dy) -> None:
        """Store the node at t: the start, and each step end of the checked
        step (the compiled loop stores its own, see `_compile_steps`)."""
        i = self.n + 1
        self.reserve(1)
        self._tm[i] = t
        v, k = self._vm, 4 * i
        v[k] = x
        v[k + 1] = y
        v[k + 2] = dx
        v[k + 3] = dy
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
        from one segment search and one Hermite basis; the initial data by
        their generated scalar code (`windows._each`)."""
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
                    out[c, neg] = _each(fn, ts[neg].tolist(), keep=False)
            pos = ~neg
            if np.any(pos):
                out[:, pos] = self._stored(ts[pos])
        return out if comp is None else out[comp]

    def _stored(self, ts: np.ndarray) -> np.ndarray:
        """Stored-segment values of x and y at the positive times ts: x, y,
        x' and y' at both ends of each segment in one gather, transposed
        once, so `_hermite` reads a contiguous row per component."""
        # a time before the first segment reads the first segment, as in
        # value_scalar
        idx = self._t[: self.n].searchsorted(ts, side="right") - 1
        np.maximum(idx, 0, out=idx)
        t0 = self._t[idx]
        h = self._t[idx + 1] - t0
        m = idx.size
        ends = self._v.take(np.concatenate((idx, idx + 1)), axis=0).T.copy()
        a, b = ends[:, :m], ends[:, m:]
        return _hermite((ts - t0) / h, h, a[:2], b[:2], a[2:], b[2:])

    # -- step-resolution views -------------------------------------------

    def step_times(self) -> np.ndarray:
        return self._t[: self.n + 1]

    def step_values(self, comp: int) -> np.ndarray:
        return self._v[: self.n + 1, comp]

    # -- export ------------------------------------------------------------

    def to_csv(self, path, stride: int = 10) -> None:
        """Every stride-th node and the last one, as lines t,x,y of %.17g
        numbers (as float.__format__ gives them): each column taken as
        floats at once, the lines formatted and written in one pass, which
        holds no joined copy of the file."""
        last = self.n
        idx = np.arange(0, last + 1, max(1, stride))
        if idx[-1] != last:
            idx = np.append(idx, last)
        rows = zip(self._t[idx].tolist(), self._v[idx, 0].tolist(), self._v[idx, 1].tolist())
        with open(path, "w", newline="") as fh:
            fh.write("t,x,y\n")
            fh.writelines(map("%.17g,%.17g,%.17g\n".__mod__, rows))


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
    """1e-3 of the smallest, over 101 times from 0 to the horizon, of
    `spec.max_span` (the longer of the two kernels' spans), clamped to
    [1e-4, 1e-2]."""
    spans = []
    for t in np.linspace(0.0, horizon, 101):
        spans.append(spec.max_span(float(t)))
    m = min(spans)
    return float(min(1e-2, max(1e-4, 1e-3 * m)))


def _compile_steps(spec: SystemSpec, traj: Trajectory, grid: _StepGrid | None, threshold: float, ratio: float,
                   extinction: float, checked: bool = False):
    """The run's RK4 step (see the module docstring), rendered from one
    template: the compiled loop, or with checked the checked step and the
    store of its end, as the pair (step, store).  The loop reads each
    kernel's parts: it feeds a kernel without a density as a point and one
    with a density as a window.

    run(feeds, check, checked, t, x, y, dx, dy) takes a step per item of
    feeds from the start state at t, whose slopes are dx, dy, each to the
    end its item carries.  After every CHECK_EVERY-th step it calls
    check(t, x, y), the convergence check of `integrate`.  It returns once,
    with the run's status: "reached-horizon" when feeds ends, "extinct", or
    "converged" when check returns True.  It stores each step's end itself,
    through the trajectory's node views, reserving room for the steps up to
    the next check as it goes, and sets the trajectory's n and t_front,
    which the blocks built between its steps read.  A step whose item is
    not plain, or which raises, fails a guard or ends in a non-finite
    derivative or f at a node, it hands to checked(item, t, x, y, dx, dy),
    which takes and stores the step from the same state and returns its end
    state with its slopes; the loop then reads the node views again.  What
    checked raises ends the run.

    step(item, t, x, y, dx, dy) takes that step to the end item carries,
    with its feeds, and returns the end time and state with its slopes.  A
    guard that fires raises _StageGuard(name, values), values what it
    compared; what a feed or the right-hand side raises passes through.
    store(item, t, x, y, dx, dy, t1, x1, y1, dx1, dy1) stores the step's
    end, and f at its midpoint and end into the grid (`_StepGrid.node`).  An
    error of f at a node it stores is raised again by the first read of that
    node, and by the sums of a factored window that add it.
    """
    if not checked:
        kinds = ["point" if kernel.density_lag is None else "window" for kernel in (spec.k1, spec.k2)]
        # per component: its name, f, its kernel's kind, the component f reads, r and G
        comps = (("x", spec.f1.root, kinds[0], "y", spec.r1.root, spec.g1 and spec.g1.root),
                 ("y", spec.f2.root, kinds[1], "x", spec.r2.root, spec.g2 and spec.g2.root))
    # per component fed through a density window: its name, the component
    # f reads, f's name and the grid's row of f of that component
    windows = [(c, read, name, comp) for c, read, name, comp, kernel
               in (("x", "y", "f1", 1, spec.k1), ("y", "x", "f2", 0, spec.k2)) if kernel.density_lag is not None]

    def rates(tv: str) -> list:
        """Each rate at the stage time tv, once; a rate of 1 folds away.  The
        checked step leaves them to rhs."""
        return [] if checked else [f"r{c} = {_emit(r, tv)}" for c, _, _, _, r, _ in comps if r != Num(1.0)]

    def derivative(slot: str, state: dict, out: dict, end: bool = False) -> list:
        """rhs's r * (G * (feed - state)) at the state, from the feeds at
        slot, m (the midpoint) or e (the end): inline in rhs's and
        window_feed's operation order, or in the checked step the module's
        rhs of the window_feed values.  At the end state (end), f of the
        component a window reads is the step's end node's, fe."""
        if checked:
            xs, ys = state["x"], state["y"]
            return [f"{out['x']}, {out['y']} = rhs(spec, {'tm' if slot == 'm' else 't1'}, {xs}, {ys}, "
                    f"window_feed(f1, fx{slot}, {ys}, y, dy), window_feed(f2, fy{slot}, {xs}, x, dx))"]
        lines = []
        for c, f, kind, read, r, g in comps:
            feed, us = f"f{c}{slot}", state[read]
            if kind == "point":  # a number, or None for f of the stage state
                value = f"({_emit(f, us)} if {feed} is None else {feed})"
            else:  # s + wm * f(u0 * a + us * b + c * du0) + wt * f(us)
                lines.append(f"q = {read} * a{c}{slot} + {us} * b{c}{slot} + c{c}{slot} * d{read}")
                fu = _emit(f, us)
                if end:
                    lines.append(f"fe{c} = {fu}")
                    fu = f"fe{c}"
                value = f"(s{c}{slot} + w{c}{slot} * {_emit(f, 'q')} + v{c}{slot} * {fu})"
            term = f"({value} - {state[c]})"
            if g is not None:
                term = f"({_emit(g, state[c])} * {term})"
            lines.append(f"{out[c]} = {term}" if r == Num(1.0) else f"{out[c]} = r{c} * {term}")
        return lines

    def guard(name: str, state: tuple, k: tuple | None = None, tested: bool = True) -> list:
        """The guard on the state (unless not tested) and on the increments
        h * k (with k).  The checked step's test fires at a state past the
        threshold or non-finite, or an increment past the bound; the compiled
        loop's tests without calls fail wherever that fires, and also at a
        state equal to the threshold or on a NaN increment, where the checked
        step then decides."""
        (sx, sy), tests = state, []
        if checked:
            values = f"'state': [{sx}, {sy}], 'threshold': THRESHOLD"
            if tested:
                tests += [f"abs({sx}) > THRESHOLD", f"abs({sy}) > THRESHOLD",
                          f"not (isfinite({sx}) and isfinite({sy}))"]
            if k is not None:
                tests.append(f"h * max(abs({k[0]}), abs({k[1]})) > bound")
                values += f", 'increments': [h * {k[0]}, h * {k[1]}], 'bound': bound"
            return [f"if {' or '.join(tests)}:", f"    raise StageGuard({name!r}, {{{values}}})"]
        if tested:
            tests += [f"-THRESHOLD < {sx} < THRESHOLD", f"-THRESHOLD < {sy} < THRESHOLD"]
        if k is not None:
            tests += [f"-bound <= h * {k[0]} <= bound", f"-bound <= h * {k[1]} <= bound"]
        return [f"if not ({' and '.join(tests)}):", "    raise StageGuard"]

    # a factored window's row: (known, c0, c1, wl, wm, wt, a, b, c, sums,
    # i0, i1, j0, j1), its value known + c0 * s0 + c1 * s1 + wl * fp with the
    # block's running sums, and the weights of the step's start and midpoint
    # in s0 (i) and s1 (j) (see `windows`)
    def row(c: str, slot: str) -> str:
        incs = f"i0{c}, i1{c}, j0{c}, j1{c}" if slot == "e" else "_, _, _, _"
        return (f"k{c}{slot}, p{c}{slot}, r{c}{slot}, l{c}{slot}, w{c}{slot}, v{c}{slot}, a{c}{slot}, b{c}{slot}, "
                f"c{c}{slot}, S{c}{slot}, {incs} = f{c}{slot}")

    def midpoints() -> list:
        """The step's midpoint node, in `_hermite(0.5, ...)`'s operation
        order, of each component a window reads."""
        return [f"{u}m = 0.5 * {u} + 0.5 * {u}1 + h * (0.125 * d{u} + -0.125 * d{u}1)"
                for u in sorted({read for _, read, _, _ in windows})]

    def advance(c: str) -> list:
        """The step's two new nodes into the running sums of a factored
        window's block: the step's start (f of it is fp) and its midpoint
        join them, and f of its end becomes fp."""
        sums = ["fp = S.fp", f"S.s0 += i0{c} * fp + i1{c} * fm{c}", f"S.s1 += j0{c} * fp + j1{c} * fm{c}",
                f"S.fp = fe{c}"]
        if checked:  # a window fed otherwise has no running sums
            head = [f"if f{c}e.__class__ is tuple:", f"    S, i0{c}, i1{c}, j0{c}, j1{c} = f{c}e[9:]"]
            return [*head, *("    " + line for line in sums)]
        return [f"P{c} += fm{c}, fe{c}", f"S = S{c}e", *sums]

    stage = {"x": "sx", "y": "sy"}
    body = [
        "h = t1 - t",
        "tm = t + 0.5 * h",
        # the compiled loop's m is max(abs(x), abs(y)) but for the sign of a
        # zero or a NaN, which 1.0 + m drops or which fails every guard
        "scale0 = 1.0 + max(abs(x), abs(y))" if checked else "scale0 = 1.0 + m",
        "bound = RATIO * scale0",
        "sx = x + 0.5 * h * dx",
        "sy = y + 0.5 * h * dy",
        *guard("stage-1", ("sx", "sy"), ("dx", "dy")),
        *rates("tm"),
        *derivative("m", stage, {"x": "k2x", "y": "k2y"}),
        "sx = x + 0.5 * h * k2x",
        "sy = y + 0.5 * h * k2y",
        *guard("stage-2", ("sx", "sy"), ("k2x", "k2y")),
        *derivative("m", stage, {"x": "k3x", "y": "k3y"}),
        "sx = x + h * k3x",
        "sy = y + h * k3y",
        *guard("stage-3", ("sx", "sy"), ("k3x", "k3y")),
        *rates("t1"),
        *derivative("e", stage, {"x": "k4x", "y": "k4y"}),
        # k4's state passed stage-3, so only its increment can fire here
        "bound = RATIO4 * scale0",
        *guard("stage-4", ("sx", "sy"), ("k4x", "k4y"), tested=False),
        "x1 = x + (h / 6.0) * (dx + 2.0 * k2x + 2.0 * k3x + k4x)",
        "y1 = y + (h / 6.0) * (dy + 2.0 * k2y + 2.0 * k3y + k4y)",
        *guard("state-threshold", ("x1", "y1")),
        *derivative("e", {"x": "x1", "y": "y1"}, {"x": "dx1", "y": "dy1"}, end=True),
    ]
    if checked:
        store = ["append(t1, x1, y1, dx1, dy1)"]
        if windows:
            store += ["_, fxm, fym, fxe, fye = item", "h = t1 - t", *midpoints()]
            for c, read, name, comp in windows:
                store += [f"fm{c} = grid.node({comp}, {name}, {read}m, f{c}e)",
                          f"fe{c} = grid.node({comp}, {name}, {read}1, f{c}e)", *advance(c)]
        source = "\n".join([
            "def step(item, t, x, y, dx, dy):",
            *("    " + line for line in ["t1, fxm, fym, fxe, fye = item", *body, "return t1, x1, y1, dx1, dy1"]),
            "def store(item, t, x, y, dx, dy, t1, x1, y1, dx1, dy1):",
            *("    " + line for line in store),
        ])
    else:
        plain, unpack, values = [], [], []
        for c, _, kind, _, _, _ in comps:
            for slot in "me":
                feed = f"f{c}{slot}"
                if kind == "point":
                    plain.append(f"({feed} is None or {feed}.__class__ is float)")
                else:
                    plain.append(f"{feed}.__class__ is tuple")
                    unpack.append(row(c, slot))
                    values.append(f"s{c}{slot} = k{c}{slot} + p{c}{slot} * S{c}{slot}.s0 + r{c}{slot} * S{c}{slot}.s1"
                                  f" + l{c}{slot} * S{c}{slot}.fp")
        nodes = [*midpoints(), *(f"fm{c} = {_emit(comps[0 if c == 'x' else 1][1], read + 'm')}"
                                 for c, read, _, _ in windows)]
        finite = ["dx1", "dy1", *(f"fm{c}" for c, _, _, _ in windows)]
        # ax is abs(x) but for the sign of a zero and of a NaN, and m, like
        # max(ax, ay), is its first operand unless the second is greater
        largest = ["ax = x if x >= 0.0 else -x", "ay = y if y >= 0.0 else -y", "m = ay if ay > ax else ax"]
        source = "\n".join([
            "def run(feeds, check, checked, t, x, y, dx, dy):",
            "    traj.reserve(CHECK_EVERY)",
            "    T, V, i = traj._tm, traj._vm, traj.n",
            "    cap = traj._t.size",
            *(f"    P{c} = grid.pending[{comp}]" for c, _, _, comp in windows),
            *("    " + line for line in largest),
            # set on the way to the checked step alone, which is called outside
            # the except clause, so that its errors do not chain to the inline one
            "    hand = False",
            "    for item in feeds:",
            "        t1, fxm, fym, fxe, fye = item",
            f"        if {' and '.join(plain)}:",
            *("            " + line for line in unpack),
            "            try:",
            *("                " + line for line in [*values, *body, *nodes]),
            # a non-finite k2, k3 or k4 makes the next guarded state non-finite;
            # v - v is 0.0 for a finite v and NaN for an infinite or NaN one
            f"                if not ({' and '.join(f'{v} - {v} == 0.0' for v in finite)}):",
            "                    raise StageGuard",
            "            except Exception:",
            "                hand = True",
            "            else:",
            # the node, into the room reserved at entry or at the last check
            "                i += 1",
            "                T[i] = t1",
            "                at = 4 * i",
            "                V[at] = x1",
            "                V[at + 1] = y1",
            "                V[at + 2] = dx1",
            "                V[at + 3] = dy1",
            "                traj.n = i",
            "                traj.t_front = t1",
            *("                " + line for c, _, _, _ in windows for line in advance(c)),
            "        else:",
            "            hand = True",
            "        if hand:",
            "            hand = False",
            "            t1, x1, y1, dx1, dy1 = checked(item, t, x, y, dx, dy)",
            "            T, V, i = traj._tm, traj._vm, traj.n",
            "            cap = traj._t.size",
            "        t, x, y, dx, dy = t1, x1, y1, dx1, dy1",
            *("        " + line for line in largest),
            "        if m < EXTINCTION:",
            "            return 'extinct'",
            "        if i % CHECK_EVERY == 0:",
            "            if check(t, x, y):",
            "                return 'converged'",
            # room for the nodes up to the next check
            "            if i + CHECK_EVERY >= cap:",
            "                traj.reserve(CHECK_EVERY)",
            "                T, V = traj._tm, traj._vm",
            "                cap = traj._t.size",
            "    return 'reached-horizon'",
        ])
    # rhs as the module holds it now, so a patched rhs counts the checked step's calls
    namespace = dict(
        _SCALAR_ENV, float=float, tuple=tuple, Exception=Exception, isfinite=math.isfinite, traj=traj,
        THRESHOLD=threshold, RATIO=ratio, RATIO4=6.0 * ratio, EXTINCTION=extinction, CHECK_EVERY=CHECK_EVERY,
        rhs=rhs, spec=spec, window_feed=window_feed, f1=spec.f1, f2=spec.f2, StageGuard=_StageGuard, grid=grid,
    )
    if checked:
        namespace["append"] = traj.append
    exec(compile(source, f"<{'checked' if checked else 'compiled'} step>", "exec"), namespace)
    # the namespace would hold them in a cycle
    return (namespace.pop("step"), namespace.pop("store")) if checked else namespace.pop("run")


def _ends_apart(x: float, y: float, x_i: float, y_i: float, rtol: float) -> bool:
    """Whether the state x, y and the window's first stored step x_i, y_i
    already differ by rtol relative to max(1, |state|), so that the window
    cannot pass `_spread_within` (see the module docstring); NaN never
    rejects."""
    return abs(x - x_i) / max(1.0, abs(x)) >= rtol or abs(y - y_i) / max(1.0, abs(y)) >= rtol


def _spread_within(xs: np.ndarray, ys: np.ndarray, x: float, y: float, rtol: float) -> bool:
    """Whether the stored steps xs, ys of the window, which end at the state
    x, y, span less than rtol relative to max(1, |state|) in each component."""
    return (xs.max() - xs.min()) / max(1.0, abs(x)) < rtol and (ys.max() - ys.min()) / max(1.0, abs(y)) < rtol


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
    """Advance the system to the horizon or an earlier detected outcome:
    blow-up, extinction or convergence (see the module docstring).

    One call of the compiled loop takes every step (`_compile_steps`),
    handing those it cannot take inline to the checked step, compiled here
    when a step first needs it; the outcome's state and steps are the
    trajectory's front, and compiled_steps the steps the checked step did
    not take.  A guard that fires in the checked step is a blow-up, and so
    is a domain error at a state past 1e6; any other error of a feed or the
    right-hand side raises IntegrationError.

    Convergence is checked after every CHECK_EVERY-th step, at its time t,
    by one check defined here, which the loop calls.  The window is
    max(window_spans * spec.max_span(t), 100 * dt), and a check is made
    once t minus the window lies after t = 0 (never for a lag proportional
    to t, see the module docstring).  The run converges when x and y each
    span less than converge_rtol, relative to max(1, |x|) and max(1, |y|)
    of the state, over the stored steps from the first at or after t minus
    the window.  A check whose state and first window step
    already differ by that much fails without reading the rest of the
    window, which decides exactly as the full test.  Pass converge_rtol=0
    to disable the stop.  outcome.diagnostics counts the checks made
    (window_checks) and those that read the whole window (window_scans).

    Deterministic: identical inputs produce bit-identical trajectories.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if dt is None:
        dt = default_dt(spec, horizon)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")

    traj = Trajectory(spec.phi, spec.psi, capacity=min(1 << 20, int(horizon / dt) + 64))
    x, y = spec.phi.value_at_zero, spec.psi.value_at_zero
    t = 0.0
    eps_t = 1e-12 * max(1.0, horizon)

    # the start node goes in before the first right-hand side, whose value
    # is the node's slope: that call reads only times <= 0, which do not
    # use the slope
    traj.append(t, x, y, 0.0, 0.0)
    grid = _StepGrid(traj, dt) if spec.k1.density_lag is not None or spec.k2.density_lag is not None else None
    ends = dict.fromkeys(BLOCK_ENDS, 0)
    feeds = block_feeds(spec, traj, grid, dt, horizon, eps_t, ends)
    _, _, _, fx, fy = next(feeds)
    try:
        dx, dy = rhs(spec, t, x, y, window_feed(spec.f1, fx, y, y, 0.0), window_feed(spec.f2, fy, x, x, 0.0))
    except ERRORS as e:
        raise IntegrationError(f"right-hand side failed at t=0: {e}") from e
    traj._v[0, 2:] = dx, dy

    guard_note = guard_values = conv_point = None
    options = (spec, traj, grid, blowup_threshold, stage_ratio, extinction_threshold)
    step = store = None  # the checked step and its store, compiled when a step first needs them
    checks = scans = taken = 0

    def checked(item, t, x, y, dx, dy):
        """The checked step of item from t, x, y with its slopes, and the
        store of its end, which it returns."""
        nonlocal step, store, taken
        if step is None:
            step, store = _compile_steps(*options, checked=True)
        end = step(item, t, x, y, dx, dy)
        store(item, t, x, y, dx, dy, *end)
        taken += 1
        return end

    def check(t, x, y):
        """The convergence check after a CHECK_EVERY-th step at t, x, y: True
        when the window holds still, which also sets conv_point."""
        nonlocal checks, scans, conv_point
        # converge_rtol <= 0 can never stop the run: skip the window
        if not converge_rtol > 0.0:
            return False
        start = t - max(window_spans * spec.max_span(t), 100.0 * dt)
        T = traj._tm
        if not start > T[0]:
            return False
        checks += 1
        # the first node at or after start, as searchsorted(side="left") on
        # the strictly increasing times
        i = bisect_left(T, start, 0, traj.n + 1)
        if _ends_apart(x, y, traj._vm[4 * i], traj._vm[4 * i + 1], converge_rtol):
            return False
        scans += 1
        if _spread_within(traj.step_values(0)[i:], traj.step_values(1)[i:], x, y, converge_rtol):
            conv_point = (x, y)
            return True
        return False

    try:
        status = _compile_steps(*options)(feeds, check, checked, t, x, y, dx, dy)
    except _StageGuard as e:
        guard_note, values = e.args
        guard_values = {key: _json_safe(v) for key, v in values.items()}
        status = "blow-up"
    except ERRORS as e:
        x, y = traj._v[traj.n, :2].tolist()
        if not (isinstance(e, EvalDomainError) and max(abs(x), abs(y)) > 1e6):
            raise IntegrationError(f"right-hand side failed near t={traj.t_front!r}: {e}") from e
        guard_note = f"domain-error:{e}"
        status = "blow-up"
    # the last accepted state: the trajectory's front
    t, steps = traj.t_front, traj.n
    x, y = traj._v[steps, :2].tolist()
    outcome = RunOutcome(
        status=status,
        final_state=(x, y),
        t_final=t,
        blowup_time=t if status == "blow-up" else None,
        converged_point=conv_point,
        extinct_time=t if status == "extinct" else None,
        diagnostics={"steps": steps, "blocks": sum(ends.values()), "block_ends": ends, "dt": dt,
                     "stage_guard": guard_note, "guard_values": guard_values, "compiled_steps": steps - taken,
                     "window_checks": checks, "window_scans": scans},
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
