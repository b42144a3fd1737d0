"""Kernel feedbacks for blocks of upcoming steps: the method of steps.

Whatever a feedback reads behind the last accepted step is known, so the
delayed system is an ODE with known forcing there (Bellen & Zennaro,
Numerical Methods for Delay Differential Equations, 2003).  `block_feeds`
hands `integrate` every feedback of a run, built a block of steps at a time
by each kernel's `integrate(f, u, t)`, t the block's stage times and u the
component it reads (`_Reader`), and each step's end with its feeds:
`_Ahead.rows` alone decides where steps end.  The feeds are the items that
`windows.window_feed` evaluates at a stage; a density window's are weighed
on the step grid there (`windows._WindowBlock`).

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
end.

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

from .windows import _DEFERRED, ERRORS, _each, _InStep, _Raise, _StepGrid, _Sum, _WindowBlock, _error

if TYPE_CHECKING:
    from .dynamics import SystemSpec
    from .integrator import Trajectory

__all__ = ["BLOCK_ENDS", "block_feeds"]

# blocks double from MIN_BLOCK steps.  A block of a run with a density
# window ends at MAX_BLOCK steps: its rows hold weights, so the cap bounds
# the work done ahead of a stop and the block's memory, and so does the
# element budget of the dense window weights of a density that does not
# factor (stage times x nodes; 256 KB at 1 << 15); a factored window's rows
# are made `windows.CHUNK` steps at a time, so a block holds few of them at
# once (they take about 0.6 KB per step of a window that feeds both
# components).  A block of a run of point lags alone holds a number per
# row, so it runs on to MAX_POINT_BLOCK steps, which still bounds the work
# done ahead of a stop, or to the first read of its own steps: such a block
# costs a fixed 50-90 us to set up and 0.1-0.5 us per step (shared 2-core
# x86-64 host), and a lag t - 1 at dt 2e-3 knows its reads 500 steps ahead
MIN_BLOCK = 8
MAX_BLOCK = 256
MAX_POINT_BLOCK = 1024
WINDOW_ELEMENTS = 1 << 15
# why a block ends: it served the steps asked for, its dense window weights
# reached WINDOW_ELEMENTS, a row reads its own steps, a lag or read raised,
# or the horizon
BLOCK_ENDS = ("limit", "budget", "own-steps", "raise", "horizon")


def _each_array(fn, vs: list) -> np.ndarray:
    """`_each` as one float array, NaN where fn raises (a `_Raise` converts
    to NaN)."""
    return np.array(_each(fn, vs), dtype=float)


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
        then the density's (`_sum`)."""
        parts = [(w, _rows(feeds)) for w, feeds in [*atoms, *([(1.0, density)] if density is not None else [])]]
        for _ in range((len(self.block.taus) + 1) // 2):
            rows = [(w, next(feeds), next(feeds)) for w, feeds in parts]
            yield [_sum([(w, m) for w, m, _ in rows]), _sum([(w, e) for w, _, e in rows])]


def _sum(parts: list):
    """Weighted feeds: where every feed is a number, the number `_Sum` gives,
    by the same additions in the same order from 0.0, or else a `_Sum`."""
    total = 0.0
    for w, feed in parts:
        if feed.__class__ is not float:
            return _Sum(parts)
        total += w * feed
    return total
