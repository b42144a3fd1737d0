"""Kernel feedbacks for blocks of upcoming steps: the method of steps.

Whatever a feedback reads behind the last accepted step is known, so the
delayed system is an ODE with known forcing there (Bellen & Zennaro,
Numerical Methods for Delay Differential Equations, 2003).  `block_feeds`
hands `integrate` every feedback of a run, built a block of steps at a time
by each kernel's `integrate(f, u, t)`, t the block's stage times and u the
component it reads (`_Reader`).  A feed is what `window_feed` evaluates at a
stage: a number; None for f of the stage state (a zero lag); a window's
known sum plus its tail panel, whose midpoint reads the in-step quadratic
a*u0 + b*us + c*du0; `_InStep`, f of that quadratic at a lagged time inside
the step; `_Sum`, weighted feeds (a mixture, or a window whose floor lies
inside the step); or `_Raise`, a lag, read or f that failed, raised at the
stage that reads it, so a guard that fires at an earlier stage still wins.

A point mass reads its lagged time s at the stage time t of a step [t0, t1]:
the stage state from t on, the quadratic inside the step, stored history up
to the block's front F, the fed component's initial data up to 0, and times
in the block's own steps, F < s <= t0, once stored.  Lags and f are
evaluated with the scalar `Expression.evaluate`, so a point feed is f(u(s))
bit for bit.  A window is composite Simpson on the step grid
(`integrator._StepGrid`), in sums of non-negative terms, never a difference
of sums (`_WindowBlock`).  From the first node that every row of a block
covers on, a uniform or triangular density factors (`density_factors`) into
per-row coefficients of one or two sums that the rows share: one pass over
the known nodes up to F per block and production function, then running sums
that each step carries on by its two new nodes.  Only each row's lead-in, the
nodes between the rows' floors, keeps dense weights, and so does every node
of a density that does not factor (a mixture's).  Two head reads and the
tail panel complete a feed.

From MIN_BLOCK steps on, a block ends before the step that first reads its
own steps, or whose dense window weights would pass WINDOW_ELEMENTS (for a
factored density, however long its window); any block ends after the first
step whose lag raises.  A shorter block reads its stored times one
by one, cheaper there than one `Trajectory.value_array`.  A build that raises
is tried again with half the steps, and a one-step build that raises builds
each feed of the step alone, as a block of one row; a feed whose build
raises becomes a `_Raise`, and in a block of one row so does a window whose
build raises, so a mixture's atoms raise before its density.  The derivative
at the front is a block of one row too: its one stage time serves as both
the midpoint and the end of an item.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .expr import EvalDomainError
from .kernels import HistoryUnderflowError

if TYPE_CHECKING:
    from .dynamics import SystemSpec
    from .integrator import Trajectory, _StepGrid

__all__ = ["block_feeds", "step_end", "window_feed"]

# the longest block bounds the work done ahead of a stop and the block's
# memory, and so does the element budget of a window's dense weights (stage
# times x lead-in nodes, or x every node for a density that does not factor;
# 256 KB at 1 << 15)
MIN_BLOCK = 8
MAX_BLOCK = 256
WINDOW_ELEMENTS = 1 << 15
# what a lag, a read or f may raise, raised again at the stage that reads it
ERRORS = (EvalDomainError, HistoryUnderflowError, ValueError)


def step_end(j: int, dt: float, horizon: float, eps_t: float) -> float:
    """The end of step j: (j + 1) * dt, free of drift, the last step
    clamped to the horizon.  `integrate` and the blocks both form their
    steps with it, so the blocks' stage times are the run's."""
    t1 = (j + 1) * dt
    return horizon if t1 >= horizon - eps_t else t1


class _InStep:
    """f at the time s inside the step [t0, t0 + T] read at the stage time
    t0 + T: the quadratic u0*a + us*b + c*du0, with r = (s - t0)/T,
    a = 1 - r^2, b = r^2 and c = T*(r - r^2)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, t0: float, t: float, s: float):
        T = t - t0
        r = (s - t0) / T
        r2 = r * r
        self.a = 1.0 - r2
        self.b = r2
        self.c = T * (r - r2)

    def __call__(self, f, us, u0, du0):
        return f(u0 * self.a + us * self.b + self.c * du0)


class _Sum:
    """Weighted feeds, added in order from 0.0."""

    __slots__ = ("parts",)

    def __init__(self, parts: list):
        self.parts = parts

    def __call__(self, f, us, u0, du0):
        total = 0.0
        for w, feed in self.parts:
            total += w * window_feed(f, feed, us, u0, du0)
        return total


class _Raise:
    """A feed whose lag, read or f failed: the error, raised at its stage.
    It keeps no traceback, whose frames would hold the block in a cycle."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error.with_traceback(None)

    def __call__(self, f, us, u0, du0):
        raise self.error


_DEFERRED = (_InStep, _Sum, _Raise)


def window_feed(f, feed, us: float, u0: float, du0: float) -> float:
    """The value of a feed (see the module docstring) at a stage whose state
    is us, in a step that starts from u0 with slope du0."""
    if feed is None:
        return f(us)
    if feed.__class__ is tuple:
        s, wm, wt, a, b, c = feed
        return s + wm * f(u0 * a + us * b + c * du0) + wt * f(us)
    if feed.__class__ in _DEFERRED:
        return feed(f, us, u0, du0)
    return feed


def block_feeds(spec: SystemSpec, traj: Trajectory, grid: _StepGrid | None, dt: float, horizon: float,
                eps_t: float, blocks: list):
    """The feeds of the derivative at the trajectory's front, then of each
    step, one item per step: the tuple (fx, fy, fx, fy) at the step's
    midpoint and at its end, whatever the feeds are.  grid is the run's step
    grid, None without density parts; blocks[0] counts the blocks built.  A
    block is built when the run reaches its first step, at most twice as
    long as the last (MIN_BLOCK to MAX_BLOCK steps)."""
    front = traj.t_front
    # the derivative: a block of one row, at the front
    yield from _block(spec, traj, grid, _Ahead(traj.n, front, dt, horizon, eps_t, [front]), 1, dt)[0]
    ahead = _Ahead(traj.n, front, dt, horizon, eps_t)
    limit = MIN_BLOCK
    while True:
        items, steps = _block(spec, traj, grid, ahead, limit, dt)
        if not steps:  # past the horizon
            return
        blocks[0] += 1
        yield from items
        ahead.advance(steps)
        limit = min(MAX_BLOCK, max(MIN_BLOCK, 2 * steps))


class _Ahead:
    """The upcoming stage times and their steps' starts, two rows per step
    from step j at t (or the stage times taus, starting at t), and each lag's
    values there (`values`, by lag or window), each evaluated once."""

    __slots__ = ("j", "t", "dt", "horizon", "eps_t", "done", "taus", "starts", "values")

    def __init__(self, j: int, t: float, dt: float, horizon: float, eps_t: float, taus: list | None = None):
        self.j, self.t, self.dt, self.horizon, self.eps_t = j, t, dt, horizon, eps_t
        self.done = taus is not None
        self.taus: list = taus or []
        self.starts: list = [t] * len(self.taus)
        self.values: dict = {}

    def rows(self, steps: int) -> int:
        """The rows of the next steps steps, fewer at the horizon."""
        taus, starts, j, t = self.taus, self.starts, self.j, self.t
        while len(taus) < 2 * steps and not self.done:
            t1 = step_end(j, self.dt, self.horizon, self.eps_t)
            taus.append(t + 0.5 * (t1 - t))
            taus.append(t1)
            starts.append(t)
            starts.append(t)
            j, t = j + 1, t1
            self.done = t1 == self.horizon
        self.j, self.t = j, t
        return min(len(taus), 2 * steps)

    def advance(self, steps: int) -> None:
        """Drop the rows of the steps a block served."""
        k = 2 * steps
        del self.taus[:k]
        del self.starts[:k]
        for values in self.values.values():
            del values[:k]


def _plan(ahead: _Ahead, kernels, front: float, dt: float, steps: int) -> tuple[int, dict, dict]:
    """The rows one block serves, at most steps steps, and each lag's values
    there: per point lag (by identity) its time, per window its floor."""
    n = ahead.rows(steps)
    points: dict = {}
    windows: dict = {}
    for kernel in kernels:
        for lag in kernel.atom_lags():
            if id(lag) not in points:
                n, points[id(lag)] = _plan_lag(ahead, id(lag), lag.evaluate, n, front, 0.0)
        if kernel.density_lag is not None and kernel not in windows:
            n, windows[kernel] = _plan_lag(ahead, kernel, kernel.density_lag.evaluate, n, front, dt)
    return n, points, windows


def _plan_lag(ahead: _Ahead, key, lag, n: int, front: float, dt: float) -> tuple[int, list]:
    """lag at the first n rows, and how many a block serves (see the module
    docstring); dt is 0 for a point lag."""
    taus, starts = ahead.taus, ahead.starts
    values = ahead.values.setdefault(key, [])
    for tau in taus[len(values) : n]:
        try:
            values.append(lag(tau))
        except (EvalDomainError, ValueError) as e:
            values.append(_Raise(e))
    plan = values[:n]
    if not dt and _Raise not in map(type, plan):  # a point lag that never raises here
        r = next((r for r, s, t0 in zip(itertools.count(), plan, starts) if front < s <= t0), n)
        return (n, plan) if r < 2 * MIN_BLOCK or r == n else (r & ~1, plan[: r & ~1])
    low, high, rows, late = front, -math.inf, 0, False
    dense = dt and key.density_factors is None  # a density weighed node by node
    r = -1
    while r + 1 < n:
        r += 1
        s = values[r]
        if dt and s.__class__ is not _Raise and s >= taus[r]:  # an empty window: its error
            try:
                key.density_floor(taus[r])
            except ValueError as e:
                s = values[r] = _Raise(e)
        if s.__class__ is _Raise:
            if r >= 2:  # the step becomes the next block's first
                n = r & ~1
                break
            n = min(n, 2)
        elif s <= starts[r] and (dt or s > front):
            if s > front and not late:
                if r >= 2 * MIN_BLOCK:
                    n = r & ~1
                    break
                late = True
            low = min(low, s)
            high = max(high, s)
            rows += 1
            if dt and r >= 2 * MIN_BLOCK:
                # the dense weights' nodes per row: from the lowest floor to
                # the highest, or for a density that does not factor to the
                # last row's step
                width = (front - low) * (2.0 / dt) + rows if dense else (high - low) * (2.0 / dt)
                if rows * (width + 3.0) > WINDOW_ELEMENTS:
                    n = r & ~1
                    break
    return n, values[:n]


def _block(spec: SystemSpec, traj: Trajectory, grid, ahead: _Ahead, steps: int, dt: float):
    """The items of at most steps steps from the front, and their number."""
    k1, k2 = spec.k1, spec.k2
    kernels = (k1,) if k2 == k1 else (k1, k2)
    n, points, windows = _plan(ahead, kernels, traj.t_front, dt, steps)
    while True:
        try:
            block = _Block(traj, grid, ahead, n, points, windows)
            fx = k1.integrate(spec.f1, _Reader(block, 1), block.taus)
            fy = k2.integrate(spec.f2, _Reader(block, 0), block.taus)
        except ERRORS:
            if n <= 2:
                return _stepwise(spec, traj, grid, ahead, dt), 1
            n = (n >> 1) & ~1
            continue
        return block.items(fx, fy), (n + 1) >> 1


def _stepwise(spec: SystemSpec, traj: Trajectory, grid, ahead: _Ahead, dt: float) -> list:
    """The first step's item with each feed built alone, a block of one row,
    in the order the stage reads them; a feed whose build raises raises at
    its stage."""
    item = []
    for r in range(min(2, len(ahead.taus))):
        row = _Ahead(ahead.j, ahead.starts[r], dt, ahead.horizon, ahead.eps_t, ahead.taus[r : r + 1])
        row.values = {key: values[r : r + 1] for key, values in ahead.values.items() if len(values) > r}
        for kernel, f, comp in ((spec.k1, spec.f1, 1), (spec.k2, spec.f2, 0)):
            try:
                n, points, windows = _plan(row, (kernel,), traj.t_front, dt, 1)
                block = _Block(traj, grid, row, n, points, windows)
                feed = next(iter(_pairs(kernel.integrate(f, _Reader(block, comp), block.taus))))[0]
            except ERRORS as e:
                feed = _Raise(e)
            item.append(feed)
    return [tuple(item if len(item) == 4 else item * 2)]


def _pairs(feeds):
    """A kernel's feeds as (midpoint, end) pairs per step; the one row of a
    block of one row is both."""
    if feeds.__class__ is not list:
        return feeds
    return zip(feeds[0::2], feeds[1::2]) if len(feeds) > 1 else zip(feeds, feeds)


class _Block:
    """The rows of one block and what its kernels read there: the point
    lags' stored times up to the front, read together (`values`, the x and
    the y row), times in the block's own steps, read once stored (`read`),
    and the windows' weights.  `items` pairs the two kernels' feeds into one
    tuple per step, whatever the feeds are.
    """

    __slots__ = ("traj", "grid", "taus", "starts", "front", "short", "points", "offsets", "stored",
                 "zero", "values", "windows", "late")

    def __init__(self, traj: Trajectory, grid, ahead: _Ahead, n: int, points: dict, windows: dict):
        self.traj, self.grid = traj, grid
        self.taus = taus = ahead.taus[:n]
        self.starts = starts = ahead.starts[:n]
        self.front = front = traj.t_front
        self.short = n < 2 * MIN_BLOCK
        self.late: dict = {}
        times: list = []
        self.points = {}
        self.offsets = {}
        self.stored = set()  # the point lags whose every time is in times
        self.zero = set()  # the point lags that read the stage state alone
        for key, plan in points.items():
            plan = self.points[key] = plan[:n]
            self.offsets[key] = len(times)
            if _Raise not in map(type, plan) and all(map(operator.ge, plan, taus)):
                self.zero.add(key)
                continue
            times += [s for s in plan if s.__class__ is not _Raise and 0.0 < s <= front]
            if len(times) - self.offsets[key] == n:
                self.stored.add(key)
                continue
            # what the stage reads: the stage state (None), the in-step
            # quadratic, or an error; the times left are read for each f
            plan = self.points[key] = [
                s if s.__class__ is _Raise or s <= t0 else None if s >= t else _InStep(t0, t, s)
                for s, t, t0 in zip(plan, taus, starts)]
        if not times:
            self.values = ((), ())
        elif self.short:
            self.values = tuple(zip(*[traj.value_scalar(s) for s in times]))
        else:
            self.values = tuple(traj.value_array(np.array(times)).tolist())
        plans = {kernel: plan[:n] for kernel, plan in windows.items()}
        floors = [a for plan in plans.values() for a in plan if a.__class__ is not _Raise]
        if floors:
            # before any window takes grid indices: extending shifts them
            grid.extend(min(floors))
        self.windows = plans  # each window's floors, weighed at its first read

    def read(self, s: float) -> tuple:
        """(x, y) at a time s in the block's own steps, once they hold it."""
        xy = self.late.get(s)
        if xy is None:
            xy = self.late[s] = self.traj.value_scalar(s)
        return xy

    def items(self, fx, fy):
        if fx.__class__ is list and fy.__class__ is list:
            if len(fx) == 1:
                fx, fy = fx * 2, fy * 2
            return list(zip(fx[0::2], fy[0::2], fx[1::2], fy[1::2]))
        return ((xm, ym, xe, ye) for (xm, xe), (ym, ye) in zip(_pairs(fx), _pairs(fy)))


class _Reader:
    """The component x (comp 0) or y (comp 1) as a block's kernels read it:
    the u of `kernel.integrate(f, u, t)`, t the block's stage times."""

    __slots__ = ("block", "comp")

    def __init__(self, block: _Block, comp: int):
        self.block, self.comp = block, comp

    def point(self, lag, f, t):
        """f of the component at the lag's time at each stage time: a list,
        or with times in the block's own steps pairs per step, read later."""
        block, comp = self.block, self.comp
        values = block.values[comp]
        i = block.offsets[id(lag)]
        plan = block.points[id(lag)]
        if id(lag) in block.zero:
            return [None] * len(plan)
        if id(lag) in block.stored:
            try:
                return [f(v) for v in values[i : i + len(plan)]]
            except ERRORS:
                pass  # each read again, its error kept at its stage time
        out = []
        late = []
        for r, s in enumerate(plan):
            if s is None or s.__class__ in _DEFERRED:
                pass
            elif s > block.front:
                late.append(r)
            else:
                try:
                    if s > 0.0:
                        v = values[i]
                        i += 1
                    else:  # the fed component's initial data alone
                        v = block.traj.value_scalar(s, comp)
                    s = f(v)
                except ERRORS as e:
                    s = _Raise(e)
            out.append(s)
        return self._late(out, late, f) if late else out

    def _late(self, out: list, late: list, f):
        block, comp = self.block, self.comp
        late = iter(late)
        r = next(late)
        for j in range(len(out) // 2):
            while r >> 1 == j:
                try:
                    out[r] = f(block.read(out[r])[comp])
                except ERRORS as e:
                    out[r] = _Raise(e)
                r = next(late, -1)
            yield out[2 * j], out[2 * j + 1]

    def window(self, kernel, f, t):
        """The density window's feeds, per step as (midpoint, end).  In a
        block of one row a window that raises is a `_Raise`, read after what
        a mixture's atoms raise there."""
        block = self.block
        try:
            window = block.windows[kernel]
            if window.__class__ is list:
                window = block.windows[kernel] = _WindowBlock(kernel, block.grid, block.taus, block.starts, window)
            return window.feeds(block, f, self.comp)
        except ERRORS as e:
            if len(block.taus) > 1:
                raise
            return iter([[_Raise(e)] * 2])

    def mix(self, atoms: list, density):
        """Per step, (midpoint, end) sums of the weighted atoms' feeds and
        then the density's."""
        parts = [(w, _pairs(feeds)) for w, feeds in atoms] + ([(1.0, density)] if density is not None else [])
        for _ in range((len(self.block.taus) + 1) // 2):
            pairs = [(w, next(feeds)) for w, feeds in parts]
            yield [_Sum([(w, pair[e]) for w, pair in pairs]) for e in (0, 1)]


class _WindowBlock:
    """A density window's feeds over a block's stage times.

    `fixed` holds by row a floor inside its step, one Simpson panel of
    in-step reads (`_Sum`), or a floor that raised (`_Raise`).  The other
    `rows` weigh the nodes from the first step end at or after the floor
    (node first) to their step's start (node last): the head panel's and
    first whole step's weights at the first, Simpson's 4, 2, 4, ... between,
    the last whole step's and the tail's at the last (`wl`), each times the
    density.  Nodes up to the front's, k, are the grid's known nodes from
    `lo` on; the rest are the block's own nodes, its stage times.

    From node c on, the first past every row's first, the density factors
    (`density_factors`): per row, coefficients (`coef`) of sums that every
    row shares, sum w*f and sum w*f*(s - s_c), which `feeds` takes over the
    known nodes (`common`) and `_steps` carries on by each step's two new
    nodes (`inc`).  Only the nodes before c keep dense weights, in the known
    part (`known`) and in the block's own nodes (`own`): a row's lead-in
    from its first, as wide as the floors spread, not as long as the window;
    or, for a density that does not factor (a mixture's), every node.  All
    weights and sums are of non-negative terms.  The head's reads at the
    floor and the head's midpoint (`times`) come with the known part, or
    once their step is stored for a floor in the block's own steps (`late`).
    """

    __slots__ = ("fixed", "rows", "spans", "lo", "k", "c", "known", "own", "common", "coef", "inc", "wl",
                 "head", "times", "early", "xy", "late", "tail")

    def __init__(self, kernel, grid: _StepGrid, taus: list, starts: list, plan: list):
        """The weights at the stage times taus with the floors in plan."""
        self.fixed = fixed = [None] * len(plan)
        tau = np.array(taus)
        if _Raise not in map(type, plan) and all(map(operator.le, plan, starts)):
            # the usual case: every floor at or behind its step's start
            rows = list(range(len(plan)))
            self.spans = [*range(0, len(plan), 2), len(plan)]
            a = np.array(plan)
        else:
            rows = []
            for r, a in enumerate(plan):
                if a.__class__ is _Raise:
                    fixed[r] = a
                elif a > starts[r]:
                    t = taus[r]
                    mid = 0.5 * (a + t)
                    d = kernel.density_at(t, a, np.array([a, mid, t])).tolist()
                    third = (t - a) / 6.0
                    fixed[r] = _Sum([(third * d[0], _InStep(starts[r], t, a)),
                                     (4.0 * third * d[1], _InStep(starts[r], t, mid)), (third * d[2], None)])
                else:
                    rows.append(r)
            # the grid rows of step j are rows[spans[j]:spans[j + 1]]
            self.spans = np.searchsorted(rows, np.arange(0, len(plan) + 2, 2)).tolist()
            a = np.array([plan[r] for r in rows])
        self.rows = rows
        if not rows:
            return
        own = tau[: 2 * (rows[-1] >> 1)]  # the block's nodes after the front
        index = np.arange(len(rows))
        if len(rows) < len(plan):
            tau = tau[rows]
            steps = np.array(rows) >> 1
        else:
            steps = index >> 1
        n = grid.n
        i = grid.t[:n].searchsorted(a, side="left")
        late = None
        if a.max() > grid.t[n - 1]:
            late = a > grid.t[n - 1]
            i[late] = n + own.searchsorted(a[late], side="left")
        i += i & 1  # a midpoint: the head runs on to the step end after it
        lo = min(int(i.min()), n - 1)
        self.lo = lo
        self.k = k = n - 1 - lo
        s = np.concatenate((grid.t[lo:n], own))
        first = i - lo
        e = s[first]
        last = k + 2 * steps
        t0 = s[last]
        T = tau - t0
        tm = t0 + 0.5 * T
        mid = 0.5 * (a + e)
        dh = kernel.density_at(tau[:, None], a[:, None], np.stack((a, mid, tm, tau, e, t0), axis=1))
        sixth = grid.dt / 6.0
        simpson = np.empty(s.size)
        simpson[0::2] = 2.0 * sixth
        simpson[1::2] = 4.0 * sixth
        whole = first < last  # a whole step between the head and the tail
        ends = np.where(whole, sixth, 0.0)
        third = (e - a) / 6.0
        edge = (third + ends) * dh[:, 4]
        # the step start's weight: the last whole step's end (or the head's)
        # and the tail's start
        self.wl = ((ends + T / 6.0) * dh[:, 5] + np.where(whole, 0.0, edge)).tolist()
        # node c, the first past every row's first, starts the sums that the
        # rows share; the nodes before it (all, for a density that does not
        # factor) keep dense weights
        c = int(first.max()) + 1
        if kernel.density_factors is None or c >= s.size:
            c = s.size
        self.c = c
        dense = kernel.density_at(tau[:, None], a[:, None], np.broadcast_to(s[:c], (tau.size, c)))
        dense *= simpson[:c]
        nodes = np.arange(c)
        outer = nodes <= first[:, None]  # inner nodes only
        if c > last.min():
            outer |= nodes >= last[:, None]
        np.copyto(dense, 0.0, where=outer)
        dense[index[whole], first[whole]] = edge[whole]
        self.known = dense[:, : k + 1]
        self.own = dense[:, k + 1 :]
        coef = np.zeros((2, tau.size))
        factors = kernel.density_factors(tau, a, s[c]) if c < s.size else ()
        common = np.empty((len(factors), s.size - c))
        for m, factor in enumerate(factors):
            coef[m] = factor
            common[m] = simpson[c:] * (s[c:] - s[c]) ** m
        self.coef = coef.tolist()
        # the sums' weights over the known nodes c to k - 1, then by own node
        # from the front's on
        kc = max(k - c, 0)
        self.common = common[:, :kc]
        inc = np.zeros((2, s.size - k))
        inc[: len(common), max(c - k, 0) :] = common[:, kc:]
        self.inc = inc.tolist()
        head = (third * dh[:, 0], 4.0 * third * dh[:, 1])
        self.late = None
        self.early = None  # the rows whose heads are read with the known part: all
        if late is not None:
            self.late = [(w0, w1, x, m) if flag else None for w0, w1, x, m, flag
                         in zip(head[0].tolist(), head[1].tolist(), a.tolist(), mid.tolist(), late.tolist())]
            self.early = np.flatnonzero(~late)
            head = (head[0][self.early], head[1][self.early])
            a, mid = a[self.early], mid[self.early]
        self.head = head
        self.times = np.concatenate((a, mid))
        self.xy = None
        # the tail's quadratic as `_InStep` forms it; none at the front's T = 0
        self.tail = None
        if taus[rows[0]] > starts[rows[0]]:  # T > 0, so not the derivative at the front
            r = (tm - t0) / T
            r2 = r * r
            self.tail = list(zip(
                (4.0 * T / 6.0 * dh[:, 2]).tolist(), (T / 6.0 * dh[:, 3]).tolist(),
                (1.0 - r2).tolist(), r2.tolist(), (T * (r - r2)).tolist(),
            ))

    def feeds(self, block: _Block, f, comp: int):
        """The known part of f of the component now, and a generator of each
        step's feeds, which adds the part over the block's own nodes."""
        if not self.rows:
            return _pairs(self.fixed)
        k = self.k
        fk = block.grid.fed(f, comp, self.lo)[: k + 1]
        known = self.known @ fk[: self.known.shape[1]]
        sums = [0.0, 0.0]
        sums[: len(self.common)] = (self.common @ fk[self.c : k]).tolist()
        times = self.times
        if times.size:
            traj = block.traj
            if block.short:
                fh = np.array([f(traj.value_scalar(s, comp)) for s in times.tolist()])
            else:
                if self.xy is None and times.min() > 0.0:  # stored history: both components at once
                    self.xy = traj.value_array(times)
                fh = f.eval_array(self.xy[comp] if self.xy is not None else traj.value_array(times, comp))
            m = fh.size // 2
            heads = self.head[0] * fh[:m] + self.head[1] * fh[m:]
            if self.early is None:
                known += heads
            else:
                known[self.early] += heads
        return self._steps(block, f, comp, known.tolist(), *sums, fk.item(k))

    def _steps(self, block: _Block, f, comp: int, known: list, s0: float, s1: float, fp: float):
        """Each step's feeds: its rows' known parts plus the sums over the
        nodes up to its start, the dense own part and f at the start (fp,
        the front's at the first step), and the heads read late."""
        grid = block.grid
        fixed, rows, own, late, tail, spans = self.fixed, self.rows, self.own, self.late, self.tail, self.spans
        (c0, c1), (inc0, inc1), wl = self.coef, self.inc, self.wl
        if late is None and tail is not None and len(rows) == len(fixed) > 1 and not own.shape[1]:
            # the usual case: f at the step's start and the two nodes before
            for r in range(0, len(rows), 2):
                if r:
                    try:
                        fa, fm, fp = grid.fed(f, comp, grid.n - 3).tolist()
                    except ERRORS as e:
                        yield [_Raise(e), _Raise(e)]
                        return
                    s0 += inc0[r - 2] * fa + inc0[r - 1] * fm
                    s1 += inc1[r - 2] * fa + inc1[r - 1] * fm
                yield ((known[r] + c0[r] * s0 + c1[r] * s1 + wl[r] * fp, *tail[r]),
                       (known[r + 1] + c0[r + 1] * s0 + c1[r + 1] * s1 + wl[r + 1] * fp, *tail[r + 1]))
            return
        p = grid.n - 1  # the front: own node 0
        width = own.shape[1]
        done = 0  # the own nodes in the sums
        for j in range(len(spans) - 1):
            g, h = spans[j], spans[j + 1]  # the step's grid rows
            pair = fixed[2 * j : 2 * j + 2]
            try:
                if h > g:
                    fo = grid.fed(f, comp, p)  # the own nodes up to the step's start
                    new = fo[done:].tolist()
                    for q, v in enumerate(new[:-1], done):
                        s0 += inc0[q] * v
                        s1 += inc1[q] * v
                    done, fp = 2 * j, new[-1]
                    m = min(2 * j, width)
                    dense = (own[g:h, :m] @ fo[1 : m + 1]).tolist() if m else [0.0] * (h - g)
                for q in range(g, h):
                    value = known[q] + c0[q] * s0 + c1[q] * s1 + wl[q] * fp + dense[q - g]
                    if late is not None and late[q] is not None:
                        w0, w1, a, m = late[q]
                        value += w0 * f(block.read(a)[comp]) + w1 * f(block.read(m)[comp])
                    pair[rows[q] & 1] = value if tail is None else (value, *tail[q])
            except ERRORS as e:
                yield [_Raise(e), _Raise(e)]
                return
            yield pair if len(pair) == 2 else pair * 2
