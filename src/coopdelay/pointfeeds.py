"""Point-kernel feedbacks for blocks of upcoming steps: the method of steps.

When both kernels of a system are point masses, a feedback f(u(h(t))) is
known data as soon as the lagged time h(t) lies behind the last accepted
step, so the delayed system is an ODE with known forcing there (Bellen &
Zennaro, Numerical Methods for Delay Differential Equations, 2003).
`point_feeds` hands `integrate` these feedbacks step by step, built a block
of steps at a time: the lags at the blocks' stage times, every stored
lagged time of a block read with one `Trajectory.value_array`, and f once
per production function, component and stage time.  Lags and f are
evaluated one element at a time with the scalar `Expression.evaluate`, and
stored and initial data are read as the per-stage path reads them, so a
feed is bit for bit the number the per-stage path computes.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .expr import EvalDomainError
from .kernels import HistoryUnderflowError

if TYPE_CHECKING:
    from .dynamics import SystemSpec
    from .integrator import Trajectory

__all__ = ["point_feeds", "step_end"]

# steps of point feeds in the first block and in the shortest one that
# reads stored history; the longest block bounds the work done ahead of a
# stop and the block's transient memory
MIN_BLOCK = 8
MAX_BLOCK = 256


def step_end(j: int, dt: float, horizon: float, eps_t: float) -> float:
    """The end of step j: (j + 1) * dt, free of drift, the last step
    clamped to the horizon.  `integrate` and the blocks both form their
    steps with it, so the blocks' stage times are the run's."""
    t1 = (j + 1) * dt
    return horizon if t1 >= horizon - eps_t else t1


def point_feeds(spec: SystemSpec, traj: Trajectory, dt: float, horizon: float, eps_t: float):
    """The feedbacks of two point kernels, one item per step in turn: fx and
    fy at the step's midpoint, then fx and fy at its end, or None for a step
    that the per-stage path serves.

    The items come in blocks (`_block`), each built when the run reaches
    its first step, after the step before it is stored.  A block may be as
    long as twice the last one (at least MIN_BLOCK, at most MAX_BLOCK
    steps), so its cost follows the steps it serves.  After a block cannot
    start, the per-stage path serves as many steps as it has served since
    the last block before the next try, so failed tries stay a vanishing
    share of the steps and a block starts at most twice as late as it
    could.
    """
    j, limit, skip = 0, MIN_BLOCK, 1
    while True:
        block = _block(spec, traj, j, limit, dt, horizon, eps_t)
        if block:
            yield from block
            j += len(block)
            limit = min(MAX_BLOCK, max(MIN_BLOCK, 2 * len(block)))
            skip = 1
        else:
            yield from itertools.repeat(None, skip)
            j += skip
            skip *= 2


def _block(spec: SystemSpec, traj: Trajectory, j: int, limit: int, dt: float, horizon: float,
           eps_t: float) -> list:
    """The feeds of at most limit steps from step j, which starts at the
    trajectory's front.

    Each kernel's lag is evaluated at the stage times, formed as
    `integrate` forms them, and each lagged time s is sorted:

    - s at or after the stage time (zero lag): f of the stage state, which
      the caller computes (the feed is None);
    - 0 < s <= the front: stored history, read for the whole block with one
      `Trajectory.value_array`;
    - s <= 0: the initial data, read for the fed component alone;
    - in between (inside its own step, or in a step accepted after the block
      began): the block ends before this step.

    f of each read is evaluated once.  A step whose lag, read or f
    evaluation raises also ends the block, so the per-stage path raises the
    error at the stage that reads it.  A block that reads stored history and
    ends before MIN_BLOCK steps, short of the horizon, is not built: its
    array read would cost more than the per-stage reads it replaces.
    """
    front = traj.t_front
    # each kernel's lagged times, up to the first step one cannot serve;
    # kernel 1 feeds x (from y), kernel 2 feeds y (from x)
    taus, ss1 = _lagged_times(spec.k1.lag, _stage_times(front, j, limit, dt, horizon, eps_t), front)
    ss2 = ss1
    if spec.k2 is not spec.k1:
        taus, ss2 = _lagged_times(spec.k2.lag, taus, front)
        ss1 = ss1[: len(taus)]
    stored = [s for s in ss1 if 0.0 < s <= front]
    m = len(stored)  # kernel 1's stored reads come first
    if ss2 is not ss1:
        stored += [s for s in ss2 if 0.0 < s <= front]
    if not taus or (stored and len(taus) < 2 * MIN_BLOCK and taus[-1] < horizon):
        return []
    xs, ys = traj.value_array(np.array(stored)).tolist() if stored else ((), ())
    fx = _feeds(traj, spec.f1, 1, taus, ss1, ys)
    fy = _feeds(traj, spec.f2, 0, taus, ss2, xs if ss2 is ss1 else xs[m:])
    return list(zip(fx[0::2], fy[0::2], fx[1::2], fy[1::2]))


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


def _lagged_times(lag, taus, front: float) -> tuple[list, list]:
    """The stage times taus and the lag at them, cut before the first step
    with a read neither in stored history up to front nor at its stage
    time, or whose lag raises (the per-stage path raises it again)."""
    served, ss = [], []
    for tau in taus:
        try:
            s = lag.evaluate(tau)
        except EvalDomainError:
            break
        if front < s < tau:
            break
        served.append(tau)
        ss.append(s)
    n = len(ss) & ~1
    return served[:n], ss[:n]


def _feeds(traj: Trajectory, f, comp: int, taus: list, ss: list, stored: list) -> list:
    """f of the component at each lagged time ss[i] for the stage time
    taus[i], up to the first that raises: None for a zero lag, else f of the
    next value of stored for a time in stored history, or of the fed
    component's initial data for a time up to 0."""
    out = []
    values = iter(stored)
    try:
        for tau, s in zip(taus, ss):
            if s >= tau:
                out.append(None)
            else:
                out.append(f(next(values) if s > 0.0 else traj.value_scalar(s, comp)))
    except (EvalDomainError, HistoryUnderflowError):
        pass  # the per-stage path raises it again, at the stage that reads it
    return out
