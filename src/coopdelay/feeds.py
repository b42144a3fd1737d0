"""Kernel feedbacks for blocks of upcoming steps: the method of steps.

A feedback reads known data wherever it reads behind the last accepted step,
so the delayed system is an ODE with known forcing there (Bellen & Zennaro,
Numerical Methods for Delay Differential Equations, 2003).  `block_feeds`
hands `integrate` the feedbacks step by step, built a block of steps at a
time, for point masses and for uniform and triangular density windows;
mixtures keep the per-stage path.

Point kernels: the lags at the blocks' stage times, every stored lagged
time of a block read with one `Trajectory.value_array`, and f once per
production function, component and stage time.  Lags and f are evaluated
one element at a time with the scalar `Expression.evaluate`, and stored and
initial data are read as the per-stage path reads them, so a point feed is
bit for bit the number the per-stage path computes.

Density windows, at a stage time t of a step [t0, t1] whose floor h(t) lies
at or behind the block's front F, are the per-stage path's composite Simpson
on the step grid, in three sums of positive terms: the known part, from h(t)
to F (the head with its two Hermite reads, one `value_array` for the whole
block, and the body with the grid's stored f values, one masked
matrix-vector product per production function); the part over the block's
own accepted nodes from F to t0, one small product per step once the step
before it is stored; and the tail panel from t0 to t, read from the in-step
quadratic toward the stage state, which `window_feed` evaluates at the stage.
The sums run in another order than the per-stage dot, so these feeds agree
with it to rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .expr import EvalDomainError
from .kernels import HistoryUnderflowError, PointMassKernel, TriangularDensityKernel, UniformDensityKernel

if TYPE_CHECKING:
    from .dynamics import SystemSpec
    from .integrator import _StageHistory, _StepGrid

__all__ = ["SERVED", "block_feeds", "step_end", "window_feed"]

# the kernels whose feedbacks blocks serve
SERVED = (PointMassKernel, UniformDensityKernel, TriangularDensityKernel)
# steps in the first block and in the shortest one that reads stored
# history; the longest block bounds the work done ahead of a stop and the
# block's transient memory, and so does the element budget of a window's
# weight matrix (stage times x grid nodes; 256 KB at 1 << 15, which keeps
# the benchmark's peak RSS within 1 MB of the per-stage path's)
MIN_BLOCK = 8
MAX_BLOCK = 256
WINDOW_ELEMENTS = 1 << 15


def step_end(j: int, dt: float, horizon: float, eps_t: float) -> float:
    """The end of step j: (j + 1) * dt, free of drift, the last step
    clamped to the horizon.  `integrate` and the blocks both form their
    steps with it, so the blocks' stage times are the run's."""
    t1 = (j + 1) * dt
    return horizon if t1 >= horizon - eps_t else t1


def window_feed(f, feed, us: float, u0: float, du0: float) -> float:
    """The feedback a block gives for one stage: a number; None for f of the
    stage state us (zero lag); or a window's (sum, wm, wt, a, b, c), whose
    tail reads the in-step quadratic a*u0 + b*us + c*du0 at the panel's
    midpoint and the stage state at its end."""
    if feed is None:
        return f(us)
    if feed.__class__ is not tuple:
        return feed
    s, wm, wt, a, b, c = feed
    return s + wm * f(u0 * a + us * b + c * du0) + wt * f(us)


def block_feeds(spec: SystemSpec, view: _StageHistory, dt: float, horizon: float, eps_t: float):
    """The feedbacks of two `SERVED` kernels, one item per step in turn: fx
    and fy at the step's midpoint, then fx and fy at its end, each as
    `window_feed` reads it; or None for a step that the per-stage path
    serves.  A density window needs the view's step grid.

    The items come in blocks (`_block`), each built when the run reaches
    its first step, after the step before it is stored.  A block may be as
    long as twice the last one (at least MIN_BLOCK, at most MAX_BLOCK
    steps), so its cost follows the steps it serves.  After a block cannot
    start, the per-stage path serves as many steps as it has served since
    the last block before the next try, so failed tries stay a vanishing
    share of the steps and a block starts at most twice as late as it
    could.
    """
    same = spec.k2 == spec.k1
    j, limit, skip = 0, MIN_BLOCK, 1
    while True:
        items, served = _block(spec, same, view, j, limit, dt, horizon, eps_t)
        if served:
            yield from items
            j += served
            limit = min(MAX_BLOCK, max(MIN_BLOCK, 2 * served))
            skip = 1
        else:
            yield from itertools.repeat(None, skip)
            j += skip
            skip *= 2


def _block(spec: SystemSpec, same: bool, view: _StageHistory, j: int, limit: int, dt: float,
           horizon: float, eps_t: float):
    """The items of at most limit steps from step j, which starts at the
    trajectory's front, and their number: a list, or with a window a
    generator that finishes each step's feeds once the step before it is
    stored.

    Each kernel's lag is evaluated at the stage times, formed as `integrate`
    forms them.  A point kernel's lagged time s is sorted:

    - s at or after the stage time (zero lag): f of the stage state, which
      the caller computes (the feed is None);
    - 0 < s <= the front: stored history;
    - s <= 0: the initial data, read for the fed component alone;
    - in between (inside its own step, or in a step accepted after the block
      began): the block ends before this step.

    A window's floor must lie at or behind the front: the block ends before
    the first step where it does not, or where the window's weight matrix
    would pass WINDOW_ELEMENTS.  The points' stored times and the windows'
    head reads are read together, with one `Trajectory.value_array`.

    A step whose lag or point read raises also ends the block, so the
    per-stage path raises the error at the stage that reads it; so does a
    point's f.  When a window's known part raises, no block is built; when f
    of a node the block accepted raises, that step and the rest of the block
    are items of None.  A block that reads stored history and ends before
    MIN_BLOCK steps, short of the horizon, is not built: its array read would
    cost more than the per-stage reads it replaces.
    """
    traj = view.traj
    front = traj.t_front
    # each kernel's lagged times or floors, up to the first step one cannot
    # serve; kernel 1 feeds x (from y), kernel 2 feeds y (from x)
    taus, ss1 = _cut(spec.k1, _stage_times(front, j, limit, dt, horizon, eps_t), front, dt)
    ss2 = ss1
    if not same:
        taus, ss2 = _cut(spec.k2, taus, front, dt)
        ss1 = ss1[: len(taus)]
    if not taus:
        return (), 0
    short = len(taus) < 2 * MIN_BLOCK and taus[-1] < horizon
    reads = ((spec.k1, ss1),) if same else ((spec.k1, ss1), (spec.k2, ss2))
    floors = [min(ss) for kernel, ss in reads if not isinstance(kernel, PointMassKernel)]
    if floors and short:
        return (), 0
    try:
        if floors:
            # before any window takes grid indices: covering shifts the nodes
            view.grid.cover(min(floors))
        readers = [_PointReads(taus, ss, front) if isinstance(kernel, PointMassKernel)
                   else _WindowBlock(kernel, view.grid, taus, ss) for kernel, ss in reads]
        times = [r.times for r in readers]
        cut = len(times[0])  # kernel 1's reads come first
        if cut or len(times[-1]):
            if short:
                return (), 0
            xs, ys = traj.value_array(np.concatenate(times)).tolist()
        else:
            xs = ys = []
        fx = readers[0].feeds(view, spec.f1, 1, ys[:cut])
        fy = readers[-1].feeds(view, spec.f2, 0, xs if same else xs[cut:])
    except (EvalDomainError, HistoryUnderflowError):
        return (), 0  # the per-stage path raises it again, at the stage that reads it
    if fx.__class__ is list and fy.__class__ is list:
        items = list(zip(fx[0::2], fy[0::2], fx[1::2], fy[1::2]))
        return items, len(items)
    n = min([len(f) // 2 for f in (fx, fy) if f.__class__ is list], default=len(taus) // 2)
    return _window_items(_pairs(fx), _pairs(fy), n), n


def _pairs(feeds):
    """A point kernel's list of feeds as (midpoint, end) pairs per step; a
    window's feeds are made so."""
    return zip(feeds[0::2], feeds[1::2]) if feeds.__class__ is list else feeds


def _window_items(fx, fy, n: int):
    """The n items of a block with a window, from the pairs of its two
    feeds; from a step where f of a node the block accepted raises, None
    (the per-stage path raises it again)."""
    k = 0
    try:
        for (xm, xe), (ym, ye) in zip(fx, fy):
            yield xm, ym, xe, ye
            k += 1
    except EvalDomainError:
        yield from itertools.repeat(None, n - k)


def _stage_times(t: float, j: int, limit: int, dt: float, horizon: float, eps_t: float):
    """The two stage times of each of at most limit steps from step j, which
    starts at t, formed as `integrate` forms them."""
    for _ in range(limit):
        t1 = step_end(j, dt, horizon, eps_t)
        yield t + 0.5 * (t1 - t)
        yield t1
        if t1 == horizon:
            return
        t = t1
        j += 1


def _cut(kernel, taus, front: float, dt: float) -> tuple[list, list]:
    """The stage times taus and the kernel's lagged time (a point) or floor (a
    window) at them, cut before the first step with a point read neither in
    stored history up to front nor at its stage time, a floor past front or
    past the element budget, or a lag that raises (the per-stage path raises
    it again)."""
    point = isinstance(kernel, PointMassKernel)
    lag = kernel.lag
    served, ss = [], []
    low = front
    for tau in taus:
        try:
            s = lag.evaluate(tau)
        except EvalDomainError:
            break
        if point:
            if front < s < tau:
                break
        else:
            if s > front or s >= tau:  # reads its own step, or an empty window
                break
            low = min(low, s)
            rows = len(ss) + 1
            if rows * ((front - low) * (2.0 / dt) + rows + 3.0) > WINDOW_ELEMENTS:
                break
        served.append(tau)
        ss.append(s)
    n = len(ss) & ~1
    return served[:n], ss[:n]


class _PointReads:
    """A point kernel's lagged times ss at a block's stage times taus, and
    the stored ones."""

    __slots__ = ("taus", "ss", "times")

    def __init__(self, taus: list, ss: list, front: float):
        self.taus = taus
        self.ss = ss
        self.times = [s for s in ss if 0.0 < s <= front]

    def feeds(self, view: _StageHistory, f, comp: int, stored: list) -> list:
        """f of the component at each lagged time ss[i] for the stage time
        taus[i], up to the first that raises: None for a zero lag, else f of
        the next value of stored for a time in stored history, or of the fed
        component's initial data for a time up to 0."""
        traj = view.traj
        out = []
        values = iter(stored)
        try:
            for tau, s in zip(self.taus, self.ss):
                if s >= tau:
                    out.append(None)
                else:
                    out.append(f(next(values) if s > 0.0 else traj.value_scalar(s, comp)))
        except (EvalDomainError, HistoryUnderflowError):
            pass  # the per-stage path raises it again, at the stage that reads it
        return out


class _WindowBlock:
    """A density window's Simpson weights over a block of stage times.

    Row r weighs the grid nodes from the first step end at or after its
    floor (column `first[r]`) to the start of its step (column `last[r]`) as
    `integrator._Window` does: the head panel's end weight plus the first
    whole step's start weight at the first node (`edge`), Simpson's 4, 2, 4,
    ... between, the last whole step's end weight plus the tail panel's start
    weight at the last.  Columns from `lo` up to the front `p` are the grid's
    known nodes (`known`, the first and inner ones); the rest are the block's
    own nodes, the midpoints and ends of its steps, which are its stage times
    (`own`, the inner and last ones).  Every weight is a Simpson weight times
    the density, so each sum adds positive terms.
    """

    __slots__ = ("lo", "p", "first", "edge", "known", "inner", "own", "times", "head", "tail")

    def __init__(self, kernel, grid: _StepGrid, taus: list, floors: list):
        """The weights at the stage times taus with the window's floors,
        which the grid covers."""
        a = np.array(floors)
        n = grid.n
        p = n - 1
        tau = np.array(taus)
        rows = np.arange(tau.size)
        i = grid.t[:n].searchsorted(a, side="left")
        i += i & 1  # a midpoint: the head runs on to the step end after it
        e = grid.t[i]
        lo = int(i.min())
        k = p - lo  # the front's column
        s = np.concatenate((grid.t[lo:n], tau[:-2]))
        first = i - lo
        last = k + (rows & ~1)
        t0 = s[last]
        T = tau - t0
        tm = t0 + 0.5 * T
        mid = 0.5 * (a + e)
        d = kernel.density_at(tau[:, None], a[:, None], np.broadcast_to(s, (tau.size, s.size)))
        dh = kernel.density_at(tau[:, None], a[:, None], np.stack((a, mid, tm, tau), axis=1))
        lead = int(first.max()) + 1
        d[:, :lead][np.arange(lead) <= first[:, None]] = 0.0  # inner nodes only
        w = np.empty(s.size)
        w[0::2] = grid.w[2]
        w[1::2] = grid.w[1]
        ends = np.where(first < last, grid.w[0], 0.0)
        third = (e - a) / 6.0
        self.lo = lo
        self.p = p
        self.first = first
        self.edge = (third + ends) * kernel.density_at(tau, a, s[first])
        self.known = d[:, :k]
        self.inner = w[:k]
        self.own = d[:, k:] * w[k:]
        self.own[rows, last - k] = (ends + T / 6.0) * kernel.density_at(tau, a, t0)
        self.times = np.concatenate((a, mid))
        self.head = (third * dh[:, 0], 4.0 * third * dh[:, 1])
        r = (tm - t0) / T
        r2 = r * r
        self.tail = list(zip(
            (4.0 * T / 6.0 * dh[:, 2]).tolist(), (T / 6.0 * dh[:, 3]).tolist(),
            (1.0 - r2).tolist(), r2.tolist(), (T * (r - r2)).tolist(),
        ))

    def feeds(self, view: _StageHistory, f, comp: int, heads: list):
        """The known part of f of the component at every stage time, now, and
        a generator of each step's (midpoint, end) feeds, which adds the part
        over the block's own nodes once the step before it is stored.  heads
        holds the component at the head reads (`times`)."""
        grid = view.grid
        fk = grid.fed(f, comp, self.lo)[: self.p - self.lo + 1]
        known = self.known @ (self.inner * fk[:-1]) + self.edge * fk[self.first]
        fh = f.eval_array(np.array(heads))
        half = fh.size // 2
        known += self.head[0] * fh[:half] + self.head[1] * fh[half:]
        return self._steps(grid, f, comp, known)

    def _steps(self, grid: _StepGrid, f, comp: int, known):
        own, tail, p = self.own, self.tail, self.p
        for r in range(0, own.shape[0], 2):
            mid, end = (known[r : r + 2] + own[r : r + 2, : r + 1] @ grid.fed(f, comp, p)).tolist()
            yield (mid, *tail[r]), (end, *tail[r + 1])
