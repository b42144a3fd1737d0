"""The density part of a kernel: composite Simpson on the step grid, and
the feeds that a stage evaluates.

A feed is what `window_feed` evaluates at a stage: a number; None for f of
the stage state (a zero lag); a window's row, the tuple (known, c0, c1, wl,
wm, wt, a, b, c, sums, ...), whose value is known + c0*s0 + c1*s1 + wl*fp
with its block's running sums (`_Sums`) plus the tail panel wm*f(a*u0 +
b*us + c*du0) + wt*f(us), the panel's midpoint read from the in-step
quadratic; `_InStep`, f of that quadratic at a lagged time inside the step;
`_Sum`, weighted feeds (a mixture with a part that is no number, or a window
whose floor lies inside the step); or `_Raise`, a lag, read or f that
failed, raised at the stage that reads it, so a guard that fires at an
earlier stage still wins.  The block driver (`feeds`) builds them for point
masses and densities alike.

Density kernels: composite Simpson on the step grid (`_StepGrid`) of step
ends and Hermite midpoints.  The grid holds the node times and f of each
node, evaluated once; it keeps no values of x and y: f of a node the step
did not hand over is read from the trajectory (`Trajectory.value_array`),
and in a run those are the start node and the nodes below it, which read
the initial data.  f at those nodes and at a window's head reads is one
pass of its generated scalar code (`_each`), as at a point read, so a
window and a point lag agree on f at the same value.  The panel from the
step start to the stage time reads its midpoint from the in-step quadratic
(see `integrator`) and ends at the stage state.

A window is composite Simpson on the step grid, in sums of non-negative
terms, never a difference of sums (`_WindowBlock`).  A uniform or
triangular density factors (`density_factors`).  From the first node past
every row's first on, each row weighs one or two sums that the rows of the
block share: one pass over the known nodes up to the block's front F per
block and production function, then the step template adds each step's
two new nodes as it stores the step, with the weights the block hands over
(`integrator._compile_steps`), so a step reads its rows as they are.  Each
row's lead-in, its nodes before that one, comes from suffix sums over the
known nodes, by the row's own density factors.  Only a density that does
not factor (a mixture's) keeps dense weights, over every node.  Two head
reads and the tail panel complete a feed; a head whose floor is a step
end has no width and reads nothing.  A window whose floors all lie behind
the front hands over its rows CHUNK steps at a time; any other works out
each step's rows as the step reads them, after the steps before it are
stored.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from .expr import EvalDomainError
from .kernels import HistoryUnderflowError

if TYPE_CHECKING:
    from .feeds import _Block
    from .integrator import Trajectory

__all__ = ["ERRORS", "window_feed"]

CHUNK = 32
# what a lag, a read or f may raise, raised again at the stage that reads it
ERRORS = (EvalDomainError, HistoryUnderflowError, ValueError)


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


def _each(fn, vs: list, keep: bool = True) -> list:
    """fn at each of vs: one generated pass (`Expression.evaluate_each`), bit
    for bit, where it does not fail, or else value by value, so that each
    error keeps its value and message; an error is kept in its value's place
    as a `_Raise`, or without keep the first is raised."""
    out = fn.evaluate_each(vs) if vs else []
    if out is None:
        out = []
        for v in vs:
            try:
                out.append(fn(v))
            except ERRORS as e:
                if not keep:
                    raise
                out.append(_Raise(e))
    return out


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


class _StepGrid:
    """Node times and f of them on the grid of step ends and step midpoints.

    Node times ascend and step ends sit at even indices, so a run of nodes
    between step ends is a run of whole Simpson panels, weighted dt/6 times
    1, 4, 2, 4, ... (see `_WindowBlock`).  `sync` takes in the times of the steps
    the trajectory stored since the last sync, each step's midpoint and its
    end, with the f values the step template evaluated there.  Below the
    first stored time the times go on at multiples of dt/2 as far back as a
    floor has reached (`extend`).

    Row comp of fu holds f of component comp (f1 of y in row 1, f2 of x in
    row 0) at the nodes from lo[comp] to n.  The step template evaluates f
    once, with the scalar f, at each node of a step it stores and appends it
    to pending[comp]; a node below lo[comp] is read from the trajectory when
    a window first reaches it (`fed`), which at times up to 0 reads the
    component's initial data, so a window reads only the initial data of
    the component it is fed from.  An error f raised at a stored node is
    kept with the node's index (errors[comp]), and raised again by each read
    that covers that node.
    """

    __slots__ = ("traj", "dt", "n", "m", "t", "fu", "lo", "pending", "errors")

    def __init__(self, traj: Trajectory, dt: float):
        self.traj = traj
        self.dt = dt
        self.n = 0
        self.m = 0  # the trajectory's nodes in the grid
        self.t = np.empty(0)
        self.fu = np.empty((2, 0))
        self.lo = [0, 0]
        self.pending: list = [[], []]
        self.errors: list = [[], []]
        self._resize(2 * traj._t.size, 0)
        self.sync()
        self.lo = [self.n, self.n]

    def _resize(self, size: int, shift: int) -> None:
        """Make room for size nodes, moving the n stored ones up by shift."""
        cap = self.t.size
        if size > cap:
            cap = max(size, 2 * cap)
        elif not shift:
            return
        n = self.n
        for name in ("t", "fu"):
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (cap,)) if cap != old.shape[-1] else old
            new[..., shift : shift + n] = old[..., :n]
            setattr(self, name, new)
        self.lo = [i + shift for i in self.lo]
        self.errors = [[(i + shift, e) for i, e in errors] for errors in self.errors]

    def sync(self) -> None:
        """Take in the trajectory's node times since the last sync, and the
        f values the step template evaluated at them."""
        traj = self.traj
        m = traj.n + 1
        if m == self.m:
            return
        first = max(self.m, 1)  # the first new step end after the start node
        ts = traj._t[first - 1 : m]
        self._resize(self.n + 2 * (m - first) + 1, 0)
        n = self.n
        if not self.m:  # the start node
            self.t[n] = ts[0]
            n += 1
        end = n + 2 * (m - first)
        self.t[n:end:2] = ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
        self.t[n + 1 : end : 2] = ts[1:]
        for fu, pending in zip(self.fu, self.pending):
            if pending:
                fu[n : n + len(pending)] = pending
                pending.clear()
        self.n, self.m = end, m

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

    def node(self, comp: int, f, u: float, feed) -> float:
        """f at u, appended as the node of the component the checked step
        stores next.  An error f raises is kept with that node's index, and
        on the running sums of a factored window's row feed, which add the
        node; the node then holds NaN.  No traceback, whose frames would hold
        the grid in a cycle."""
        pending = self.pending[comp]
        try:
            value = f(u)
        except ERRORS as e:
            e.with_traceback(None)
            self.errors[comp].append((self.n + len(pending), e))
            if feed.__class__ is tuple and feed[9].error is None:
                feed[9].error = e
            value = math.nan
        pending.append(value)
        return value

    def fed(self, f, comp: int, i: int) -> np.ndarray:
        """f of the component at the nodes from i on, each evaluated once;
        the nodes below lo are read from the trajectory first
        (HistoryUnderflowError without initial data there)."""
        self.sync()
        for j, error in self.errors[comp]:
            if j >= i:
                raise error
        lo = self.lo[comp]
        if i < lo:
            self.fu[comp, i:lo] = _each(f, self.traj.value_array(self.t[i:lo], comp).tolist(), keep=False)
            self.lo[comp] = i
        return self.fu[comp, i : self.n]


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
            fh = np.array(_each(f, u.tolist(), keep=False))
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
