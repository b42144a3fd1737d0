"""Kernel feedbacks for blocks of upcoming steps: the method of steps.

Whatever a feedback reads behind the last accepted step is known, so the
delayed system is an ODE with known forcing there (Bellen & Zennaro,
Numerical Methods for Delay Differential Equations, 2003).  `block_feeds`
hands `integrate` every feedback of a run, built a block of steps at a time
by each kernel's `integrate(f, u, t)`, t the block's stage times and u the
component it reads (`_Reader`), and each step's end with its feeds:
`_Ahead.rows` alone decides where steps end.  A feed is what `window_feed`
evaluates at a stage: a number; None for f of the stage state (a zero lag);
a window's row, the tuple (known, c0, c1, wl, wm, wt, a, b, c, sums, ...),
whose value is known + c0*s0 + c1*s1 + wl*fp with its block's running sums
(`_Sums`) plus the tail panel wm*f(a*u0 + b*us + c*du0) + wt*f(us), the
panel's midpoint read from the in-step quadratic; `_InStep`, f of that
quadratic at a lagged time inside the step; `_Sum`, weighted feeds (a
mixture, or a window whose floor lies inside the step); or `_Raise`, a lag,
read or f that failed, raised at the stage that reads it, so a guard that
fires at an earlier stage still wins.

A point mass reads its lagged time s at the stage time t of a step [t0, t1]:
the stage state from t to t + 1e-12 (`validate_kernel`'s slack; further
ahead the lag raises), the quadratic inside the step, stored history up to
the block's front F, the fed component's initial data up to 0, and times in
the block's own steps, F < s <= t0, once stored.  A block's lag times, its
initial data reads and f of its reads are one pass each of code generated
from the expressions' scalar source (`Expression.evaluate_each`), so a point
feed is f(u(s)) as `Expression.evaluate` gives it, bit for bit; where a pass
raises or meets a non-finite value the block evaluates value by value, and
a value that raises becomes a `_Raise`.

A window is composite Simpson on the step grid (`integrator._StepGrid`), in
sums of non-negative terms, never a difference of sums (`_WindowBlock`).  A
uniform or triangular density factors (`density_factors`).  From the first
node past every row's first on, each row weighs one or two sums that the
rows of the block share: one pass over the known nodes up to F per block
and production function, then the step template adds each step's two new
nodes as it stores the step, with the weights the block hands over
(`integrator._compile_steps`), so a step reads its rows as they are.  Each
row's lead-in, its nodes before that one, comes from suffix sums over the
known nodes, by the row's own density factors.  Only a density that does
not factor (a mixture's) keeps dense weights, over every node.  Two head
reads and the tail panel complete a feed; a head whose floor is a step
end has no width and reads nothing.

Blocks double from MIN_BLOCK steps, up to MAX_BLOCK in a run with a density
window, whose rows hold weights, and up to MAX_POINT_BLOCK in a run of
point lags alone, whose rows hold numbers, so that its blocks mostly end
where its reads end them.  From MIN_BLOCK steps on, a block ends before the
step that first reads its own steps, or, for a density that does not
factor, whose dense weights would pass WINDOW_ELEMENTS; any block ends
after the first step whose lag raises (BLOCK_ENDS counts why blocks end).
A build that raises is tried again with half the steps, and a one-step
build that raises builds each feed of the step alone, as a block of one
row; a feed whose build raises becomes a `_Raise`, and in a block of one
row so does a window whose build raises, so a mixture's atoms raise before
its density.  The derivative at the front is a block of one row too: its
item's end is its one stage time, which serves as both the midpoint and the
end.  A window whose floors all lie behind the front hands over its rows
CHUNK steps at a time; any other works out each step's rows as the step
reads them, after the steps before it are stored.

Blocks are planned by masks (`_plan_lag`, `_Block`) over float arrays
(`_Ahead`): the stage times, the step starts and each lag's values there,
NaN where the lag raises.  Masks find the point lags that run ahead, the
empty windows, the first read of the block's own steps, and the point
lags that read the stage state alone, stored history alone, or stored
history and the initial data; the stored times go to
`Trajectory.value_array` as one array.  Only a row that needs a decision
of its own goes row by row: one that raises (its error made again where a
feed needs it, `_error`), a read in the block's own steps or inside the
step, and a dense window's weight budget.  What reaches an item or an
error message is a Python float.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from .expr import EvalDomainError
from .kernels import HistoryUnderflowError

if TYPE_CHECKING:
    from .dynamics import SystemSpec
    from .integrator import Trajectory, _StepGrid

__all__ = ["BLOCK_ENDS", "block_feeds", "window_feed"]

# blocks double from MIN_BLOCK steps.  A block of a run with a density
# window ends at MAX_BLOCK steps: its rows hold weights, so the cap bounds
# the work done ahead of a stop and the block's memory, and so does the
# element budget of the dense window weights of a density that does not
# factor (stage times x nodes; 256 KB at 1 << 15); a factored window's rows
# are made CHUNK steps at a time, so a block holds few of them at once (they
# take about 0.6 KB per step of a window that feeds both components).  A
# block of a run of point lags alone holds a number per row, so it runs on
# to MAX_POINT_BLOCK steps, which still bounds the work done ahead of a
# stop, or to the first read of its own steps: such a block costs a fixed
# 50-90 us to set up and 0.1-0.5 us per step (shared 2-core x86-64 host),
# and a lag t - 1 at dt 2e-3 knows its reads 500 steps ahead
MIN_BLOCK = 8
MAX_BLOCK = 256
MAX_POINT_BLOCK = 1024
WINDOW_ELEMENTS = 1 << 15
CHUNK = 32
# what a lag, a read or f may raise, raised again at the stage that reads it
ERRORS = (EvalDomainError, HistoryUnderflowError, ValueError)
# why a block ends: it served the steps asked for, its dense window weights
# reached WINDOW_ELEMENTS, a row reads its own steps, a lag or read raised,
# or the horizon
BLOCK_ENDS = ("limit", "budget", "own-steps", "raise", "horizon")


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

    def __float__(self) -> float:
        return math.nan


class _Sums:
    """The running sums that the rows of a factored window's block share:
    s0 and s1 over the nodes from its node c to the start of the step being
    taken, f at that start (fp), and the error of f at a node they hold,
    raised by each row that reads them.  The step template carries them on
    as it stores each step (`integrator._compile_steps`)."""

    __slots__ = ("s0", "s1", "fp", "error")

    def __init__(self, s0: float, s1: float, fp: float):
        self.s0, self.s1, self.fp = s0, s1, fp
        self.error = None


_DEFERRED = (_InStep, _Sum, _Raise)


def _each(fn, vs) -> list:
    """fn at each of vs, or a `_Raise` of what it raises there: one generated
    pass (`Expression.evaluate_each`), bit for bit, where it does not fail,
    or else value by value, so each error keeps its value and message."""
    out = fn.evaluate_each(vs) if vs else []
    if out is None:
        out = []
        for v in vs:
            try:
                out.append(fn(v))
            except ERRORS as e:
                out.append(_Raise(e))
    return out


def _each_array(fn, vs: list) -> np.ndarray:
    """`_each` as one float array, NaN where fn raises (a `_Raise` converts
    to NaN)."""
    return np.array(_each(fn, vs), dtype=float)


def _error(lag, t: float, window=None) -> _Raise:
    """The error of a row whose lag value is NaN, made again at its stage
    time t: what the lag raises there, or else a point lag's that runs
    ahead, or the window's (the kernel whose floor lag is) that is empty."""
    try:
        if window is not None:
            window.density_floor(t)
        s = lag(t)
        raise ValueError(f"advanced lag {s!r} exceeds t={t!r}")
    except ERRORS as e:
        return _Raise(e)


def window_feed(f, feed, us: float, u0: float, du0: float) -> float:
    """The value of a feed (see the module docstring) at a stage whose state
    is us, in a step that starts from u0 with slope du0."""
    if feed is None:
        return f(us)
    if feed.__class__ is tuple:  # a factored window's row
        known, c0, c1, wl, wm, wt, a, b, c, sums = feed[:10]
        if sums.error is not None:
            raise sums.error
        s = known + c0 * sums.s0 + c1 * sums.s1 + wl * sums.fp
        return s + wm * f(u0 * a + us * b + c * du0) + wt * f(us)
    if feed.__class__ in _DEFERRED:
        return feed(f, us, u0, du0)
    return feed


def block_feeds(spec: SystemSpec, traj: Trajectory, grid: _StepGrid | None, dt: float, horizon: float,
                eps_t: float, ends: dict):
    """The feeds of the derivative at the trajectory's front, then of each
    step, one item per step: the tuple (t1, fx, fy, fx, fy) of the step's
    end t1 (`_Ahead.rows`) and the feeds at the step's midpoint and at its
    end, whatever the feeds are; none past the horizon.  grid is the run's
    step grid, None without density parts; ends counts the blocks built by
    why each ended (BLOCK_ENDS).  A block is built when the run reaches its
    first step, at most twice as long as the last (MIN_BLOCK to MAX_BLOCK
    steps, or MAX_POINT_BLOCK without a grid)."""
    front = traj.t_front
    # the derivative: a block of one row, at the front
    yield from _block(spec, traj, grid, _Ahead(traj.n, front, dt, horizon, eps_t, np.array([front])), 1, dt)[0]
    ahead = _Ahead(traj.n, front, dt, horizon, eps_t)
    cap = MAX_POINT_BLOCK if grid is None else MAX_BLOCK
    limit = MIN_BLOCK
    while ahead.taus.size or not ahead.done:  # up to the horizon
        items, steps, reason = _block(spec, traj, grid, ahead, limit, dt)
        ends[reason] += 1
        yield from items
        items = None  # not held while the next block is built
        ahead.advance(steps)
        limit = min(cap, max(MIN_BLOCK, 2 * steps))


class _Ahead:
    """The upcoming stage times and their steps' starts, two rows per step
    from step j at t (or the stage times taus, starting at t), as float
    arrays, and each lag's values there, each evaluated once: by lag or
    window a float array, NaN at a row where the lag raises (`values`)."""

    __slots__ = ("j", "t", "dt", "horizon", "eps_t", "done", "taus", "starts", "values")

    def __init__(self, j: int, t: float, dt: float, horizon: float, eps_t: float, taus: np.ndarray | None = None):
        self.j, self.t, self.dt, self.horizon, self.eps_t = j, t, dt, horizon, eps_t
        self.done = taus is not None
        self.taus = np.empty(0) if taus is None else taus
        self.starts = np.full(self.taus.size, t)
        self.values: dict = {}

    def rows(self, steps: int) -> int:
        """The rows of the next steps steps, fewer at the horizon, the steps
        still missing made in one numpy pass.  This is the one place where
        steps end: step j ends at (j + 1) * dt, free of drift, and the last
        step at the horizon, from eps_t before it on; a step's midpoint is
        t0 + 0.5 * (t1 - t0), as the step template forms it from t1."""
        m = steps - self.taus.size // 2
        if m > 0 and not self.done:
            t1 = np.arange(self.j + 1, self.j + 1 + m) * self.dt
            clamped = t1 >= self.horizon - self.eps_t
            if clamped.any():
                t1 = t1[: clamped.argmax() + 1]
                t1[-1] = self.horizon
                self.done = True
            t0 = np.concatenate(([self.t], t1[:-1]))
            self.taus = np.concatenate((self.taus, np.stack((t0 + 0.5 * (t1 - t0), t1), axis=1).ravel()))
            self.starts = np.concatenate((self.starts, t0.repeat(2)))
            self.j += t1.size
            self.t = t1.item(-1)
        return min(self.taus.size, 2 * steps)

    def advance(self, steps: int) -> None:
        """Drop the rows of the steps a block served."""
        k = 2 * steps
        self.taus, self.starts = self.taus[k:], self.starts[k:]
        for key, values in self.values.items():
            self.values[key] = values[k:]


def _plan(ahead: _Ahead, kernels, front: float, dt: float, steps: int) -> tuple[int, dict, dict, str]:
    """The rows one block serves, at most steps steps, each lag's values
    there (`_Ahead.values`): per point lag (by identity) its times, per
    window its floors, and why the block ends there (BLOCK_ENDS)."""
    n = ahead.rows(steps)
    reason = "limit" if n == 2 * steps else "horizon"
    points: dict = {}
    windows: dict = {}
    for kernel in kernels:
        for lag in kernel.atom_lags():
            if id(lag) not in points:
                m, points[id(lag)], why = _plan_lag(ahead, id(lag), lag, n, front, 0.0)
                if m < n:
                    n, reason = m, why
        if kernel.density_lag is not None and kernel not in windows:
            m, windows[kernel], why = _plan_lag(ahead, kernel, kernel.density_lag, n, front, dt)
            if m < n:
                n, reason = m, why
    return n, points, windows, reason


def _plan_lag(ahead: _Ahead, key, lag, n: int, front: float, dt: float) -> tuple[int, np.ndarray, str | None]:
    """lag at the first n rows, how many a block serves (see the module
    docstring) and why it serves fewer; dt is 0 for a point lag.  A point
    lag's times and a window's floors are one generated pass of the scalar
    evaluation (`_each_array`); masks mark a point lag's time past its stage
    time by more than `validate_kernel`'s 1e-12 and an empty window as
    raising (NaN), and find the first read of the block's own steps.  Only
    a dense window's weight budget goes row by row."""
    taus = ahead.taus[:n]
    values = ahead.values.get(key)
    done = 0 if values is None else values.size
    if done < n:
        got = _each_array(lag, taus[done:].tolist())
        if not dt:
            got[got > taus[done:] + 1e-12] = math.nan
        values = ahead.values[key] = got if values is None else np.concatenate((values, got))
    s = values[:n]
    if dt:
        s[s >= taus] = math.nan
    nan = np.isnan(s)
    first = int(nan.argmax()) if nan.any() else n  # the first row that raises
    if first < min(n, 2):
        return min(n, 2), values, "raise"
    if dt and key.density_factors is None:  # a density weighed node by node
        m, why = _budget(s[:first].tolist(), ahead.starts[:first].tolist(), front, dt)
    else:  # the block ends only at a read of its own steps
        late = (front < s[:first]) & (s[:first] <= ahead.starts[:first])
        r = int(late.argmax())  # the first, or 0 without one
        m, why = (r & ~1, "own-steps") if r >= 2 * MIN_BLOCK and late[r] else (first, None)
    if m < first:
        return m, values, why
    return (first & ~1, values, "raise") if first < n else (n, values, None)


def _budget(floors: list, starts: list, front: float, dt: float) -> tuple[int, str | None]:
    """The rows of a density that does not factor that a block serves, and
    why it serves fewer: a row whose floor lies in the block's own steps, or
    whose dense weights, from the lowest floor to the row's step, pass
    WINDOW_ELEMENTS (both from MIN_BLOCK steps on)."""
    low, rows, late = front, 0, False
    for r, (s, t0) in enumerate(zip(floors, starts)):
        if s <= t0:
            if s > front and not late:
                if r >= 2 * MIN_BLOCK:
                    return r & ~1, "own-steps"
                late = True
            low = min(low, s)
            rows += 1
            if r >= 2 * MIN_BLOCK and rows * ((front - low) * (2.0 / dt) + rows + 3.0) > WINDOW_ELEMENTS:
                return r & ~1, "budget"
    return len(floors), None


def _block(spec: SystemSpec, traj: Trajectory, grid, ahead: _Ahead, steps: int, dt: float):
    """The items of at most steps steps from the front, their number, and
    why the block ends there (BLOCK_ENDS)."""
    k1, k2 = spec.k1, spec.k2
    kernels = (k1,) if k2 == k1 else (k1, k2)
    if grid is not None:
        grid.sync()
    n, points, windows, reason = _plan(ahead, kernels, traj.t_front, dt, steps)
    while True:
        try:
            block = _Block(traj, grid, ahead, n, points, windows)
            fx = k1.integrate(spec.f1, _Reader(block, 1), block.taus)
            fy = k2.integrate(spec.f2, _Reader(block, 0), block.taus)
        except ERRORS:
            if n <= 2:
                return _stepwise(spec, traj, grid, ahead, dt), 1, "raise"
            n, reason = (n >> 1) & ~1, "raise"
            continue
        return block.items(fx, fy), (n + 1) >> 1, reason


def _stepwise(spec: SystemSpec, traj: Trajectory, grid, ahead: _Ahead, dt: float) -> list:
    """The first step's item with each feed built alone, a block of one row,
    in the order the stage reads them; a feed whose build raises raises at
    its stage."""
    rows = min(2, ahead.taus.size)
    item = [ahead.taus.item(rows - 1)]
    for r in range(rows):
        row = _Ahead(ahead.j, ahead.starts.item(r), dt, ahead.horizon, ahead.eps_t, ahead.taus[r : r + 1])
        row.values = {key: values[r : r + 1].copy() for key, values in ahead.values.items() if values.size > r}
        for kernel, f, comp in ((spec.k1, spec.f1, 1), (spec.k2, spec.f2, 0)):
            try:
                n, points, windows, _ = _plan(row, (kernel,), traj.t_front, dt, 1)
                block = _Block(traj, grid, row, n, points, windows)
                feed = next(_rows(kernel.integrate(f, _Reader(block, comp), block.taus)))
            except ERRORS as e:
                feed = _Raise(e)
            item.append(feed)
    return [tuple(item if len(item) == 5 else item + item[1:])]


def _rows(feeds):
    """A kernel's feeds row by row, midpoint and end of each step in turn,
    from a list or from lists of whole steps' rows made as they are read;
    the one row of a block of one row is both."""
    if feeds.__class__ is list:
        return iter(feeds * 2 if len(feeds) == 1 else feeds)
    return itertools.chain.from_iterable(feeds)


class _Block:
    """The rows of one block and what its kernels read there: the point
    lags' stored times up to the front, read together (`values`, the x and
    the y row), times in the block's own steps, read once stored (`read`),
    and the windows' weights.  `items` pairs the two kernels' feeds into one
    tuple per step with the step's end, whatever the feeds are.

    A point lag's plan is None when it reads the stage state at every row,
    or else the array of its times, those of stored history read together
    (all of them for a lag in `stored`); `_Reader.point` replaces an array
    that needs decisions row by row with the list of what each row reads.
    """

    __slots__ = ("traj", "grid", "taus", "starts", "front", "points", "offsets", "stored", "values", "windows",
                 "late")

    def __init__(self, traj: Trajectory, grid, ahead: _Ahead, n: int, points: dict, windows: dict):
        self.traj, self.grid = traj, grid
        self.taus = taus = ahead.taus[:n]
        self.starts = ahead.starts[:n]
        self.front = front = traj.t_front
        self.late: dict = {}
        times: list = []
        count = 0
        self.points = {}
        self.offsets = {}
        self.stored = set()  # the point lags whose every time is stored
        for key, plan in points.items():
            plan = plan[:n]
            if (plan >= taus).all():  # NaN, a row that raises, fails
                self.points[key] = None
                continue
            stored = (0.0 < plan) & (plan <= front)
            times.append(plan[stored])
            self.points[key], self.offsets[key] = plan, count
            m = int(np.count_nonzero(stored))
            if m == n:
                self.stored.add(key)
            count += m
        self.values = traj.value_array(np.concatenate(times)) if count else np.empty((2, 0))
        self.windows = dict(windows)  # each window's floors, weighed at its first read
        if windows:
            # before any window takes grid indices: extending shifts them
            low = np.fmin.reduce(np.concatenate([plan[:n] for plan in windows.values()]))
            if low == low:  # not NaN: a floor that does not raise
                grid.extend(low.item())

    def read(self, s: float) -> tuple:
        """(x, y) at a time s in the block's own steps, once they hold it."""
        xy = self.late.get(s)
        if xy is None:
            xy = self.late[s] = self.traj.value_scalar(s)
        return xy

    def items(self, fx, fy):
        taus = self.taus
        ends = (taus[1::2] if taus.size > 1 else taus).tolist()  # a block of one row ends at its one stage time
        if fx.__class__ is list and fy.__class__ is list:
            if len(fx) == 1:
                fx, fy = fx * 2, fy * 2
            return list(zip(ends, fx[0::2], fy[0::2], fx[1::2], fy[1::2]))
        xs, ys = _rows(fx), _rows(fy)
        return zip(ends, xs, ys, xs, ys)


class _Reader:
    """The component x (comp 0) or y (comp 1) as a block's kernels read it:
    the u of `kernel.integrate(f, u, t)`, t the block's stage times."""

    __slots__ = ("block", "comp")

    def __init__(self, block: _Block, comp: int):
        self.block, self.comp = block, comp

    def point(self, lag, f, t):
        """f of the component at the lag's time at each stage time: a list,
        or with times in the block's own steps pairs per step, read later.
        The initial data read, and f of what is read, are one pass each
        (`_each`)."""
        block, comp = self.block, self.comp
        plan = block.points[id(lag)]
        if plan is None:
            return [None] * block.taus.size
        i = block.offsets[id(lag)]
        if id(lag) in block.stored:
            return _each(f, block.values[comp, i : i + plan.size].tolist())
        traj = block.traj
        data = (traj.phi, traj.psi)[comp]
        if plan.__class__ is not list:
            if (plan <= block.front).all():  # stored history and the initial data alone
                early = plan <= 0.0
                got = _each_array(data, plan[early].tolist())
                if not np.isnan(got).any():
                    u = np.empty(plan.size)
                    u[~early] = block.values[comp, i : i + plan.size - got.size]
                    u[early] = got
                    return _each(f, u.tolist())
            # row by row, what the stage reads, kept for the other component:
            # the stage state (None), the in-step quadratic, an error, or the
            # time left to read for f
            plan = block.points[id(lag)] = [
                _error(lag, t) if s != s else s if s <= t0 else None if s >= t else _InStep(t0, t, s)
                for s, t, t0 in zip(plan.tolist(), block.taus.tolist(), block.starts.tolist())]
        stored, early, late = [], [], []
        for r, s in enumerate(plan):
            if s is not None and s.__class__ not in _DEFERRED:
                (late if s > block.front else stored if s > 0.0 else early).append(r)
        out = list(plan)
        reads = block.values[comp, i : i + len(stored)].tolist()
        for r, v in zip(early, _each(data, [plan[r] for r in early])):
            if v.__class__ is _Raise:
                out[r] = v
            else:
                stored.append(r)
                reads.append(v)
        for r, v in zip(stored, _each(f, reads)):
            out[r] = v
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
        """The density window's feeds (`_WindowBlock.feeds`).  In a block of
        one row a window that raises is a `_Raise`, read after what a
        mixture's atoms raise there."""
        block = self.block
        try:
            window = block.windows[kernel]
            if window.__class__ is not _WindowBlock:
                window = block.windows[kernel] = _WindowBlock(kernel, block.grid, block.taus, block.starts, window)
            return window.feeds(block, f, self.comp)
        except ERRORS as e:
            if len(block.taus) > 1:
                raise
            return [_Raise(e)]

    def mix(self, atoms: list, density):
        """Per step, (midpoint, end) sums of the weighted atoms' feeds and
        then the density's."""
        parts = [(w, _rows(feeds)) for w, feeds in [*atoms, *([(1.0, density)] if density is not None else [])]]
        for _ in range((len(self.block.taus) + 1) // 2):
            rows = [(w, next(feeds), next(feeds)) for w, feeds in parts]
            yield [_Sum([(w, row[e]) for w, *row in rows]) for e in (0, 1)]


class _WindowBlock:
    """A density window's feeds over a block's stage times.

    `fixed` holds by row a floor inside its step, one Simpson panel of
    in-step reads (`_Sum`), or a floor that raised (`_Raise`).  The other
    `rows` weigh the nodes from the first step end at or after the floor
    (node first) to their step's start (node last): the head panel's and
    first whole step's weights at the first (`edge`), Simpson's 4, 2, 4, ...
    between, the last whole step's and the tail's at the last (`wl`), each
    times the density.  Nodes up to the front's, k, are the grid's known
    nodes from `lo` on; the rest are the block's own nodes, its stage times.

    A uniform or triangular density factors (`density_factors`).  From node
    c on, the first past the first of every row whose floor lies at or
    behind the front, a row weighs the sums sum w*f and sum w*f*(s - s_c)
    that every row shares, by its coefficients (`coef`); `feeds` takes them
    over the known nodes (`common`), and the step template carries them on
    by each step's two new nodes, weighed by `inc` (see `_Sums`), or
    `_steps` does where it works out the rows step by step.  Each row's
    lead-in, its nodes between its first and c, comes from the suffix sums
    R0[m] = sum_{m <= j < E} w_j f_j and R1[m] = R1[m + 1] + (s_{m+1} - s_m)
    R0[m + 1] over the known nodes up to E = min(c, k), by the factors of
    the row's density taken at its first node (`lead`), so no weight is
    held per row and node; with c = k + 1 the rows of the later steps add
    the front's node by itself (`extra`).  A density that does not factor (a
    mixture's) keeps dense weights over every node, in the known part
    (`known`) and in the block's own nodes (`own`); for one that does,
    `known` holds the weight of each row's first where it is a known node.
    All weights and sums are of non-negative terms.  The head's reads at
    the floor and the head's midpoint (`times`) come with the known part, or
    once their step is stored for a floor in the block's own steps (`late`);
    such a row of a factored density adds its own nodes as its step reads
    them.  A head whose floor is a step end has no width and weighs
    exactly 0: it reads nothing.
    """

    __slots__ = ("kernel", "fixed", "rows", "spans", "lo", "k", "c", "s", "simpson", "first", "last", "tau", "a",
                 "lead", "edge", "extra", "known", "own", "common", "coef", "inc", "wl", "head", "times", "early",
                 "xy", "late", "tail", "chunk")

    def __init__(self, kernel, grid: _StepGrid, taus: np.ndarray, starts: np.ndarray, plan: np.ndarray):
        """The weights at the stage times taus with the floors in plan, NaN
        at a row whose floor raises."""
        self.kernel = kernel
        size = taus.size
        plan = plan[:size]
        self.fixed = fixed = [None] * size
        tau = taus
        if (plan <= starts).all():
            # the usual case: every floor at or behind its step's start
            rows = range(size)
            self.spans = [*range(0, size, 2), size]
            a = plan
        else:
            rows = []
            for r, (a, t, t0) in enumerate(zip(plan.tolist(), taus.tolist(), starts.tolist())):
                if a != a:
                    fixed[r] = _error(kernel.density_lag, t, kernel)
                elif a > t0:
                    mid = 0.5 * (a + t)
                    d = kernel.density_at(t, a, np.array([a, mid, t])).tolist()
                    third = (t - a) / 6.0
                    fixed[r] = _Sum([(third * d[0], _InStep(t0, t, a)),
                                     (4.0 * third * d[1], _InStep(t0, t, mid)), (third * d[2], None)])
                else:
                    rows.append(r)
            # the grid rows of step j are rows[spans[j]:spans[j + 1]]
            self.spans = np.searchsorted(rows, np.arange(0, size + 2, 2)).tolist()
            a = plan[rows]
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
        self.s = s = np.concatenate((grid.t[lo:n], own))
        self.first = first = i - lo
        e = s[first]
        self.last = last = k + 2 * steps
        t0 = s[last]
        T = tau - t0
        tm = t0 + 0.5 * T
        mid = 0.5 * (a + e)
        dh = kernel.density_at(tau[:, None], a[:, None], np.stack((a, mid, tm, tau, e, t0), axis=1))
        sixth = grid.dt / 6.0
        self.simpson = simpson = np.empty(s.size)
        simpson[0::2] = 2.0 * sixth
        simpson[1::2] = 4.0 * sixth
        whole = first < last  # a whole step between the head and the tail
        ends = np.where(whole, sixth, 0.0)
        third = (e - a) / 6.0
        edge = (third + ends) * dh[:, 4]
        # the step start's weight: the last whole step's end (or the head's)
        # and the tail's start
        self.wl = (ends + T / 6.0) * dh[:, 5] + np.where(whole, 0.0, edge)
        self.edge = edge = np.where(whole, edge, 0.0)
        self.tau, self.a = tau, a
        coef = np.zeros((2, tau.size))
        if kernel.density_factors is None:
            c = s.size
            dense = kernel.density_at(tau[:, None], a[:, None], np.broadcast_to(s, (tau.size, c)))
            dense *= simpson
            nodes = np.arange(c)
            np.copyto(dense, 0.0, where=(nodes <= first[:, None]) | (nodes >= last[:, None]))  # inner nodes only
            dense[index[whole], first[whole]] = edge[whole]
            self.known = dense[:, : k + 1]
            self.own = dense[:, k + 1 :]
            self.lead = self.extra = None
        else:
            # node c, the first past every first at or behind the front,
            # starts the sums that the rows share; each such row's lead-in
            # comes from the suffix sums, by its density's factors at its
            # first node; a row whose floor lies in the block's own steps
            # weighs its nodes as its step reads them
            known = first <= k
            c = min(int(first[known].max()) + 1, s.size) if known.any() else s.size
            self.lead = kernel.density_factors(tau, a, s[np.minimum(first, k)])
            self.known = np.where(known, edge, 0.0)  # the first's weight, where it is a known node
            # with c = k + 1 the front's node lies between the suffix sums
            # (up to k) and c: inner to the rows of the later steps
            self.extra = None
            if c == k + 1:
                self.extra = np.where(known & (first < k) & (last > k),
                                      simpson[k] * kernel.density_at(tau, a, np.full(tau.shape, s[k])), 0.0)
            if c < s.size:
                for m, factor in enumerate(kernel.density_factors(tau, a, s[c])):
                    coef[m] = np.where(known, factor, 0.0)
            self.own = None
        self.c = c
        self.coef = coef
        common = np.empty((len(self.lead) if self.lead is not None and c < s.size else 0, s.size - c))
        for m in range(len(common)):
            common[m] = simpson[c:] * (s[c:] - s[c]) ** m
        # the sums' weights over the known nodes c to k - 1, then by own node
        # from the front's on, two per step of the block (the last step's
        # weigh nothing the block reads)
        kc = max(k - c, 0)
        self.common = common[:, :kc]
        inc = np.zeros((2, 2 * (len(plan) + 1 >> 1)))
        inc[: len(common), max(c - k, 0) : s.size - k] = common[:, kc:]
        self.inc = inc
        head = (third * dh[:, 0], 4.0 * third * dh[:, 1])
        # a head whose floor is its first node has no width: nothing reads it
        wide = e > a
        self.late = None
        if late is not None:
            self.late = [((w0, w1, x, m) if width else ()) if flag else None for w0, w1, x, m, width, flag
                         in zip(*(v.tolist() for v in (*head, a, mid, wide, late)))]
            wide &= ~late
        self.early = None  # the rows whose heads are read with the known part: all
        if not wide.all():
            self.early = np.flatnonzero(wide)
            head = (head[0][self.early], head[1][self.early])
            a, mid = a[self.early], mid[self.early]
        self.head = head
        self.times = np.concatenate((a, mid))
        self.xy = self.chunk = None
        # the tail's quadratic as `_InStep` forms it; none at the front's T = 0
        self.tail = None
        if taus[rows[0]] > starts[rows[0]]:  # T > 0, so not the derivative at the front
            r = (tm - t0) / T
            r2 = r * r
            self.tail = np.stack((4.0 * T / 6.0 * dh[:, 2], T / 6.0 * dh[:, 3], 1.0 - r2, r2, T * (r - r2)))

    def feeds(self, block: _Block, f, comp: int):
        """The feeds of f of the component now, as `_rows` reads them: the
        rows of a factored window whose every floor lies at or behind the
        front, CHUNK steps at a time, reading the block's running sums
        (`_Sums`); the fixed feeds when no row reads the grid; or else each
        step's two feeds, worked out as the step reads them (`_steps`)."""
        if not self.rows:
            return self.fixed
        k, c, first = self.k, self.c, self.first
        fk = block.grid.fed(f, comp, self.lo)[: k + 1]
        if self.own is not None:
            known = self.known @ fk
        else:
            known = self.known * fk[np.minimum(first, k)]
            if self.extra is not None:
                known += self.extra * fk[k]
            end = min(c, k)
            low = int(first.min())
            if end - low >= 2:  # the lead-ins, from the suffix sums over nodes low + 1 to end - 1
                s = self.s
                r0 = np.zeros(end - low + 1)  # R0[m - low]
                r0[1:-1] = np.cumsum((self.simpson[low + 1 : end] * fk[low + 1 : end])[::-1])[::-1]
                known += self.lead[0] * r0[np.minimum(first + 1, end) - low]
                if len(self.lead) > 1:
                    r1 = np.zeros(end - low + 1)  # R1[m - low]
                    r1[:-1] = np.cumsum(((s[low + 1 : end + 1] - s[low:end]) * r0[1:])[::-1])[::-1]
                    known += self.lead[1] * r1[np.minimum(first, end) - low]
        sums = [0.0, 0.0]
        sums[: len(self.common)] = (self.common @ fk[c:k]).tolist()
        times = self.times
        if times.size:
            if self.xy is None and times.min() > 0.0:  # stored history: both components at once
                self.xy = block.traj.value_array(times)
            u = self.xy[comp] if self.xy is not None else block.traj.value_array(times, comp)
            try:
                fh = f.evaluate_array(u)
            except EvalDomainError:
                for v in u.tolist():  # the scalar f names the first value that fails
                    f(v)
                raise
            m = fh.size // 2
            heads = self.head[0] * fh[:m] + self.head[1] * fh[m:]
            if self.early is None:
                known += heads
            else:
                known[self.early] += heads
        fp = fk.item(k)
        if self.late is None and self.tail is not None and len(self.rows) == len(self.fixed) > 1 \
                and self.own is None:
            return self._chunks(known, _Sums(*sums, fp))
        return self._steps(block, f, comp, known.tolist(), *sums, fp)

    def _chunks(self, known: np.ndarray, sums: _Sums):
        """The rows of a factored window whose every floor lies behind the
        front, CHUNK steps at a time: each row's known part, then what the
        rows of every component this window feeds share (`_shared`)."""
        shared = itertools.repeat(sums)
        for lo in range(0, known.size, 2 * CHUNK):
            c0, c1, wl, wm, wt, a, b, c, *inc = self._shared(lo)
            yield list(zip(known[lo : lo + 2 * CHUNK].tolist(), c0, c1, wl, wm, wt, a, b, c, shared, *inc))

    def _shared(self, lo: int) -> list:
        """The rows' coefficients, wl and tail from row lo on, CHUNK steps'
        worth, and the weights of each row's step's start and midpoint in s0
        and in s1, kept until the next chunk is asked for; a sum a uniform
        density lacks is 0 throughout."""
        if self.chunk is None or self.chunk[0] != lo:
            hi = lo + 2 * CHUNK
            c0, *rest = np.concatenate((self.coef[: len(self.lead)], self.wl[None], self.tail))[:, lo:hi].tolist()
            # per own node, then per row: a step's start's and midpoint's, twice
            inc = [list(itertools.chain.from_iterable(zip(w, w)))
                   for weights in self.inc[: len(self.lead), lo:hi].tolist() for w in (weights[0::2], weights[1::2])]
            if len(self.lead) == 1:
                zero = [0.0] * len(c0)
                rest, inc = [zero, *rest], [*inc, zero, zero]
            self.chunk = lo, [c0, *rest, *inc]
        return self.chunk[1]

    def _steps(self, block: _Block, f, comp: int, known: list, s0: float, s1: float, fp: float):
        """Each step's feeds: its rows' known parts plus the sums over the
        nodes up to its start, the dense own part or a late row's own nodes,
        f at the start (fp, the front's at the first step), and the heads
        read late."""
        grid = block.grid
        fixed, rows, own, late, spans = self.fixed, self.rows, self.own, self.late, self.spans
        wl, (c0, c1), (inc0, inc1) = self.wl.tolist(), self.coef.tolist(), self.inc.tolist()
        tail = self.tail.tolist() if self.tail is not None else None
        # a row worked out here reads no running sums, its coefficients 0
        zero = (0.0, 0.0, 0.0)
        sums = _Sums(*zero)
        p = grid.n - 1  # the front: own node 0
        width = own.shape[1] if own is not None else 0
        done = 0  # the own nodes in the sums
        for j in range(len(spans) - 1):
            g, h = spans[j], spans[j + 1]  # the step's grid rows
            pair = fixed[2 * j : 2 * j + 2]
            try:
                if h > g:
                    fo = grid.fed(f, comp, p).tolist()  # the own nodes up to the step's start
                    new = fo[done:]
                    for q, v in enumerate(new[:-1], done):
                        s0 += inc0[q] * v
                        s1 += inc1[q] * v
                    done, fp = 2 * j, new[-1]
                    m = min(2 * j, width)
                    dense = (own[g:h, :m] @ np.array(fo[1 : m + 1])).tolist() if m else [0.0] * (h - g)
                for q in range(g, h):
                    value = known[q] + c0[q] * s0 + c1[q] * s1 + wl[q] * fp + dense[q - g]
                    if late is not None and late[q] is not None:
                        if late[q]:  # a head with width
                            w0, w1, a, m = late[q]
                            value += w0 * f(block.read(a)[comp]) + w1 * f(block.read(m)[comp])
                        if own is None:  # its nodes, own ones all, from its first to its step's start
                            value += self._own_part(q, fo)
                    pair[rows[q] & 1] = value if tail is None else (
                        value, *zero, *(column[q] for column in tail), sums, *zero, 0.0)
            except ERRORS as e:
                yield [_Raise(e), _Raise(e)]
                return
            yield pair if len(pair) == 2 else pair * 2

    def _own_part(self, q: int, fo: list) -> float:
        """A factored row q's nodes when its floor lies in the block's own
        steps: its first (with the head's weight) and the inner nodes up to
        its step's start, by the density's factors at the first inner node;
        f of them fo from the front's node on."""
        i, j, k = int(self.first[q]), int(self.last[q]), self.k
        s, w = self.s[i + 1 : j].tolist(), self.simpson[i + 1 : j].tolist()
        total = self.edge.item(q) * fo[i - k]
        if s:
            factors = self.kernel.density_factors(self.tau.item(q), self.a.item(q), s[0])
            wf = [wq * v for wq, v in zip(w, fo[i + 1 - k : j - k])]
            total += factors[0] * sum(wf)
            if len(factors) > 1:
                total += factors[1] * sum(x * (sq - s[0]) for x, sq in zip(wf, s))
        return total
