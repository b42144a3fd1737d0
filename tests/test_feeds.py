"""Feedbacks from blocks of steps against their definitions.

Each feed a block hands `integrate` is read through `window_feed` at drawn
stage states and compared with the feedback computed for its stage alone by
the definitions in tests/reference_history.py (`drive`): point masses bit
for bit, density windows, which add the same Simpson terms in another order,
to rounding.  The stops and the window configs' states are pinned to those
of the per-stage path that blocks replaced.
"""

import contextlib
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopdelay import feeds, integrator, windows
from coopdelay.config import load_config, system_from_mapping
from coopdelay.dynamics import SystemSpec
from coopdelay.expr import BinOp, EvalDomainError, Expression, Num, Var
from coopdelay.integrator import IntegrationError, integrate
from coopdelay.kernels import GeneralMixtureKernel, PointMassKernel, TriangularDensityKernel, UniformDensityKernel
from reference_history import WINDOW_RTOL, block_plan, drive, step_end
from test_expr import _trees
from test_integrator import CONFIGS, Watched, checked_only, spec_of


def stored_history(dt, horizon=2.0):
    """History stored on [0, horizon] in steps of dt, with non-constant
    initial data."""
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-0.3"), k2=PointMassKernel("t-0.7"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    return integrate(spec, horizon=horizon, dt=dt)[0]


BODIES = ["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x"]
DENSITIES = ["exp(-u)", "u/4+1"]


def lags(dt):
    return st.one_of(
        st.just("t"),  # a zero lag, or an empty window
        st.floats(min_value=0.0, max_value=3 * dt).map(lambda c: f"t-{c!r}"),  # inside the step or the block's
        st.floats(min_value=0.0, max_value=3.0).map(lambda c: f"t-{c!r}"),  # stored; beyond 2 across 0
        st.sampled_from(["t/2", "t/2-1.5", "t-1-t^2/10", "t-0.3-t^2"]),  # moving, the last one back
    )


@st.composite
def kernels(draw, dt):
    kind = draw(st.sampled_from(["point", "uniform", "triangular", "mixture", "atoms"]))
    lag = draw(lags(dt))
    if kind == "point":
        return PointMassKernel(lag)
    if kind == "uniform":
        return UniformDensityKernel(lag)
    if kind == "triangular":
        return TriangularDensityKernel(lag)
    atoms = [(draw(lags(dt)), 0.25), (draw(lags(dt)), 0.5)][: draw(st.integers(1, 2))]
    if kind == "atoms":
        return GeneralMixtureKernel(atoms)
    return GeneralMixtureKernel(atoms, density=draw(st.sampled_from(DENSITIES)), density_lag=lag)


@st.composite
def block_runs(draw):
    """A step, two kernels (possibly one object), production bodies, a
    window budget that may end blocks early, and a seed for the states."""
    dt = draw(st.sampled_from([0.05, 0.1]))
    k1 = draw(kernels(dt))
    k2 = k1 if draw(st.booleans()) else draw(kernels(dt))
    budget = draw(st.sampled_from([feeds.WINDOW_ELEMENTS, 300]))
    return dt, k1, k2, draw(st.sampled_from(BODIES)), draw(st.sampled_from(BODIES)), budget, draw(st.integers(0, 2**16))


@given(block_runs())
@settings(max_examples=120, deadline=None)
def test_window_feeds_from_blocks_agree_with_the_per_stage_path(run):
    # floors behind the front, inside the step, in the block's own steps and
    # across 0; stored, initial, in-step and zero point lags; mixtures; and
    # blocks that end at a small weight budget
    dt, k1, k2, f1, f2, budget, seed = run
    spec = spec_of(f1, f2, k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds, "WINDOW_ELEMENTS", budget)
        drive(spec, stored_history(dt), dt, 10, random.Random(seed), states=2)


@given(_trees, _trees, st.booleans(), st.integers(0, 2**16))
@example(BinOp("*", Var(), Num(1e308)), Num(0.3), False, 0)  # f overflows to inf at x > 1.8 without raising
@settings(max_examples=100, deadline=None)
def test_point_feeds_from_generated_passes_agree_with_the_per_value_path(f, lag, shared, seed):
    # f and the lag's offset drawn over sqrt, exp, ln, tanh, sin, cos, ^,
    # min, max and abs, so some values raise or are non-finite: every feed
    # as the per-stage definition gives it value by value, the same number
    # bit for bit or the same error at the same row; the lag may run ahead
    dt = 0.05
    kernel = PointMassKernel(f"t - ({Expression(lag, 't').serialize()})")
    spec = spec_of(Expression(f, "x").serialize(), "x/2", k1=kernel, k2=kernel if shared else PointMassKernel("t-0.3"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    drive(spec, stored_history(dt), dt, 10, random.Random(seed), states=2)


@pytest.mark.parametrize(
    "dt, horizon",
    [
        (0.07, 1.0),  # dt does not divide the horizon: the last step is shorter
        (0.1, 0.3),  # 3 * 0.1 > 0.3: the eps_t clamp
        (2e-3, 60.0),  # sqrt_logistic_point's steps
    ],
)
def test_stage_times_are_step_end_s_bit_for_bit(dt, horizon):
    # by step_end one step at a time, and from _Ahead's numpy passes over
    # blocks that serve fewer steps than they asked for, so that a block
    # continues after advance from rows made for the last
    eps_t = 1e-12 * max(1.0, horizon)
    taus, starts, t = [], [], 0.0
    for j in itertools.count():
        t1 = step_end(j, dt, horizon, eps_t)
        taus += [t + 0.5 * (t1 - t), t1]
        starts += [t, t]
        t = t1
        if t1 == horizon:
            break
    ahead = feeds._Ahead(0, 0.0, dt, horizon, eps_t)
    got_taus, got_starts = [], []
    for asked, served in itertools.cycle([(8, 8), (16, 5), (3, 3), (256, 200), (1, 1)]):
        n = ahead.rows(asked)
        if not n:
            break
        served = min(served, (n + 1) >> 1)
        got_taus += ahead.taus[: 2 * served].tolist()
        got_starts += ahead.starts[: 2 * served].tolist()
        ahead.advance(served)
    assert [v.hex() for v in got_taus] == [v.hex() for v in taus]
    assert [v.hex() for v in got_starts] == [v.hex() for v in starts]
    assert got_taus[-1] == horizon


def plan_lags(dt, front):
    """Lags for block plans from the front: zero, ahead of the stage,
    inside the step or the block's own steps (with offsets around where the
    block may first end for them), stored or across t = 0, raising from a
    time on (in the first rows too), and ahead, or empty as a window's
    floor, up to a time."""
    then = st.integers(0, 12).map(lambda q: front + q * dt / 4)
    return st.one_of(
        st.just("t"),
        st.sampled_from([1e-13, 1e-12, 2e-12, 5e-12, 1e-9, 0.01]).map(lambda c: f"t+{c!r}"),
        st.floats(min_value=0.0, max_value=40 * dt).map(lambda c: f"t-{c!r}"),
        st.integers(28, 36).map(lambda q: f"t-{q * dt / 4!r}"),
        st.floats(min_value=0.0, max_value=3.0).map(lambda c: f"t-{c!r}"),
        st.one_of(then, st.floats(min_value=0.1, max_value=2.0)).map(lambda a: f"t-1-sqrt({a!r}-t)"),
        st.floats(min_value=0.1, max_value=2.0).map(lambda a: f"t-sqrt({a!r}-t)"),
        st.one_of(then, st.floats(min_value=0.1, max_value=2.0)).map(lambda a: f"t-0.5*(t-{a!r})"),
        st.sampled_from(["t/2", "t*0.999"]),
    )


@st.composite
def plan_kernels(draw, dt, front):
    kind = draw(st.sampled_from(["point", "uniform", "triangular", "mixture", "mixture", "atoms"]))
    lag = draw(plan_lags(dt, front))
    if kind == "point":
        return PointMassKernel(lag)
    if kind == "uniform":
        return UniformDensityKernel(lag)
    if kind == "triangular":
        return TriangularDensityKernel(lag)
    atoms = [(draw(plan_lags(dt, front)), 0.25), (draw(plan_lags(dt, front)), 0.5)][: draw(st.integers(1, 2))]
    if kind == "atoms":
        return GeneralMixtureKernel(atoms)
    return GeneralMixtureKernel(atoms, density="u/4+1", density_lag=lag)


def planned(kernels, plans: dict, taus: np.ndarray, n: int) -> dict:
    """The lags' values in the plans of `feeds._plan` at the first n rows, as
    `block_plan` gives them: at a row that raises, the error `feeds` makes
    there."""
    lags = {id(lag): (lag, None) for kernel in kernels for lag in kernel.atom_lags()}
    lags |= {kernel: (kernel.density_lag, kernel) for kernel in kernels if kernel.density_lag is not None}
    out = {}
    for key, plan in plans.items():
        lag, window = lags[key]
        out[key] = plan[:n].tolist()
        for r in np.flatnonzero(np.isnan(plan[:n])).tolist():
            error = windows._error(lag, taus.item(r), window).error
            out[key][r] = type(error), str(error)
    return out


def check_plans(kernels, dt: float, j: int, horizon: float, blocks, one_row: bool = False) -> None:
    """`feeds._plan` against `block_plan` over blocks in a row from one
    _Ahead from step j, each (steps asked, steps served, at most those the
    block serves), or a block of one row, the derivative at the front."""
    front = j * dt
    ahead = feeds._Ahead(j, front, dt, horizon, 1e-12 * max(1.0, horizon), np.array([front]) if one_row else None)
    for steps, served in blocks:
        n, points, windows, reason = feeds._plan(ahead, kernels, front, dt, steps)
        rows = min(ahead.taus.size, 2 * steps)
        want = block_plan(ahead.taus[:rows].tolist(), ahead.starts[:rows].tolist(), kernels, front, dt,
                          "limit" if rows == 2 * steps else "horizon")
        assert (n, reason, planned(kernels, {**points, **windows}, ahead.taus, n)) == want
        ahead.advance(min(served, (n + 1) >> 1))
        if not ahead.taus.size and ahead.done:
            break
        front = ahead.starts.item(0) if ahead.starts.size else ahead.t


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_plans_agree_with_the_row_by_row_oracle(data):
    # up to three blocks in a row, each serving a drawn part of its rows,
    # so later blocks start from lag values evaluated for earlier ones;
    # lags ahead of their stage, in the block's own steps, zero and across
    # t = 0, raising, and empty windows; dense windows at a budget small
    # enough to end blocks
    draw = data.draw
    dt = draw(st.sampled_from([0.01, 0.05]))
    j = draw(st.integers(0, 150))
    k1 = draw(plan_kernels(dt, j * dt))
    kernels = (k1,) if draw(st.booleans()) else (k1, draw(plan_kernels(dt, j * dt)))
    horizon = (j + draw(st.integers(1, 300))) * dt
    blocks = draw(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 64)), min_size=1, max_size=3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds, "WINDOW_ELEMENTS", draw(st.sampled_from([feeds.WINDOW_ELEMENTS, 300, 3000])))
        check_plans(kernels, dt, j, horizon, blocks, one_row=draw(st.integers(0, 9)) == 0)


@pytest.mark.parametrize(
    "lag, one_row",
    [
        ("t+1e-12", False),  # ahead by validate_kernel's slack: a zero lag
        ("t+2e-12", False),  # past it: raises at the first row
        ("t+2e-12", True),
        ("t-1-sqrt(1.005-t)", False),  # first raises at row 1, the first step's end
        ("t-1-sqrt(1.025-t)", False),  # first raises at row 5: the block ends after two steps
        ("t-1-sqrt(1.18-t)", False),  # first raises at row 36, after MIN_BLOCK steps
        ("t-0.0825", False),  # first reads the block's own steps at row 16: ends after MIN_BLOCK steps
        ("t-0.0775", False),  # at row 15: read once stored
        ("t-0.5*(t-1.013)", False),  # ahead up to 1.013: raises at rows 0 and 1
    ],
)
@pytest.mark.parametrize("kind", ["point", "atom", "uniform"])
def test_block_plans_at_the_edges_of_their_rules(lag, one_row, kind):
    # from the front at t = 1 with dt = 0.01, 64 steps asked and 10 served,
    # then 64 more; a window's floor ahead of its stage is an empty window
    kernel = {"point": PointMassKernel, "uniform": UniformDensityKernel}.get(kind)
    kernel = kernel(lag) if kernel else GeneralMixtureKernel([(lag, 0.5), ("t-0.3", 0.5)])
    check_plans((kernel,), 0.01, 100, 3.0, [(64, 10), (64, 64)], one_row)


def test_windows_past_the_old_element_budget():
    # 3,000 grid nodes per stage time: weights over every node would pass
    # WINDOW_ELEMENTS at MIN_BLOCK steps; the shared sums keep only each row's
    # lead-in dense, so after the first block of MIN_BLOCK steps the second
    # serves all 14 steps left to the horizon
    dt = 1e-3
    spec = spec_of("sqrt(x)+2", "x/2", k1=UniformDensityKernel("t-1.5"), k2=TriangularDensityKernel("t-1.5"))
    assert drive(spec, stored_history(dt), dt, 17, random.Random(2)) == 2


@pytest.mark.parametrize(
    "lag, dt, front",
    [
        ("t-1", 5e-4, 2.0),  # 4,000 grid nodes per stage time
        ("t/2-0.5", 5e-3, 10.0),  # about 2,200, and growing
    ],
    ids=["long", "proportional"],
)
def test_long_windows_are_served_in_blocks_past_min_block(lag, dt, front):
    # as above: one uniform and one triangular window, every feed within
    # WINDOW_RTOL of the per-stage definition, in blocks of 8 and 14 steps
    spec = spec_of("sqrt(x)+2", "x/2", k1=UniformDensityKernel(lag), k2=TriangularDensityKernel(lag))
    assert drive(spec, stored_history(dt, front), dt, 17, random.Random(3)) == 2


def test_a_floor_that_moves_back_through_a_block():
    # t - 10*(t - 2)^2 from t = 2: the floor lies inside the first step, in
    # the block's own steps at the second, and then moves back past the front
    # and the window's start, so later rows read both shared sums far past
    # their first shared node, among rows of every kind
    dt = 0.05
    lag = "t-10*(t-2)^2"
    spec = spec_of("sqrt(x)+2", "x/2", k1=UniformDensityKernel(lag), k2=TriangularDensityKernel(lag),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    assert drive(spec, stored_history(dt), dt, 12, random.Random(1)) == 2


@pytest.mark.parametrize("kernel", [UniformDensityKernel, TriangularDensityKernel])
def test_floors_in_the_block_s_own_steps(kernel):
    # t - 2.7*dt: from each block's fourth stage time on the floor lies in
    # the block's own steps, past the front, with up to four own nodes
    # between the row's first and its step's start, which the row adds as
    # its step reads them; every feed within WINDOW_RTOL
    dt = 0.05
    spec = spec_of("sqrt(x)+2", "x/2", k1=kernel(f"t-{2.7 * dt!r}"), k2=kernel("t-1"), phi="2+sin(3*t)",
                   psi="1+t^2/4")
    assert drive(spec, stored_history(dt), dt, 20, random.Random(4), states=2) == 2


def test_a_long_window_holds_no_weights_per_row_and_node():
    # uniform t - 1 at dt 5e-4 to t = 3: 4,000 grid nodes per stage time.
    # With (stage times x nodes) weights per block its tracemalloc peak was
    # 1.885 MB, with shared sums and dense (stage times x lead-in) weights
    # 1.81 MB; with suffix sums for the lead-ins and rows made CHUNK steps at
    # a time it is 1.748 MB, most of it the trajectory and the step grid.  The
    # bound lies under the former peaks and 3% (about 52 KB) over the present
    # one
    spec = spec_of("1+x/2", "1+x/2", k1=UniformDensityKernel("t-1"), k2=UniformDensityKernel("t-1"))
    tracemalloc.start()
    try:
        _, outcome = integrate(spec, horizon=3.0, dt=5e-4, converge_rtol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status == "reached-horizon" and outcome.diagnostics["steps"] == 6000
    assert peak < 1_800_000


def block_spy(monkeypatch) -> list:
    """The (steps, why it ended) of each block `feeds._block` builds."""
    built = []
    block = feeds._block

    def spy(*args):
        items, steps, why = block(*args)
        built.append((steps, why))
        return items, steps, why

    monkeypatch.setattr(feeds, "_block", spy)
    return built


def test_point_blocks_run_past_max_block_until_a_read_of_their_own_steps(monkeypatch):
    # sqrt_logistic_point's lags t - 1 at dt 2e-3 know their reads 500 steps
    # ahead: without a window the blocks double past MAX_BLOCK and end before
    # the first step that reads their own steps
    built = block_spy(monkeypatch)
    cfg = load_config(CONFIGS / "sqrt_logistic_point.cfg")
    _, outcome = integrate(system_from_mapping(cfg.system), horizon=6.0, dt=cfg.numerics.dt)
    assert outcome.diagnostics["steps"] == 3000
    blocks = built[1:]  # the first is the derivative at t = 0
    assert blocks == [(8, "limit"), (16, "limit"), (32, "limit"), (64, "limit"), (128, "limit"), (256, "limit"),
                      *[(500, "own-steps")] * 4, (496, "horizon")]
    assert feeds.MAX_BLOCK < 500 <= feeds.MAX_POINT_BLOCK
    reasons = [why for _, why in blocks]
    assert outcome.diagnostics["block_ends"] == {reason: reasons.count(reason) for reason in feeds.BLOCK_ENDS}


def test_blocks_of_a_run_with_a_window_stop_at_max_block(monkeypatch):
    # reads 3 time units (600 steps) ahead, which would let point blocks run
    # on: a window in the run holds every block, its point rows included, to
    # MAX_BLOCK steps
    built = block_spy(monkeypatch)
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-3"), k2=UniformDensityKernel("t-3"), phi="2+sin(3*t)",
                   psi="1+t^2/4")
    _, outcome = integrate(spec, horizon=6.0, dt=5e-3)
    assert outcome.diagnostics["steps"] == 1200
    blocks = built[1:]
    assert max(steps for steps, _ in blocks) == feeds.MAX_BLOCK
    assert blocks[-4:] == [(256, "limit"), (256, "limit"), (256, "limit"), (184, "horizon")]
    reasons = [why for _, why in blocks]
    assert outcome.diagnostics["block_ends"] == {reason: reasons.count(reason) for reason in feeds.BLOCK_ENDS}


# the states at t = 3 of the per-stage path, at the config's step; its
# blocks of window feeds matched it to 1e-12 at every node.  The blocks
# double from 8 steps to MAX_BLOCK: at dt 5e-3 the block after 128 steps
# ends at 199, before the first row whose floor t - 1 passes its front, and
# 153 are left; at dt 1e-3 eleven blocks of 256 steps and 192 left.  None
# ends on the element budget, which binds only densities that do not factor
WINDOW_CONFIGS = {
    "logistic_distributed": (2.357600245783333, 2.432428131933536, 7),
    "sqrt_logistic_triangular": (4.067023991212494, 4.13391822853555, 7),
    "quadratic_integro": (8467.74410950823, 8467.74410950823, 16),
}


@pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
def test_window_configs_agree_with_the_per_stage_path(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    _, outcome = integrate(system_from_mapping(cfg.system), horizon=3.0, dt=cfg.numerics.dt)
    x, y, blocks = WINDOW_CONFIGS[name]
    assert outcome.status == "reached-horizon" and outcome.diagnostics["blocks"] == blocks
    assert outcome.diagnostics["block_ends"]["budget"] == 0
    for got, want in zip(outcome.final_state, (x, y)):
        assert abs(got - want) <= WINDOW_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize(
    "k1, k2, sizes",
    [
        # 8, 16, 32 and 64 steps, then 99: the floor t - 1 of the end of the
        # block's 100th step, 2.2 - 1 = 1.2000000000000002, passes its front
        # 1.2, so the block ends before that step; and the 81 left
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-1"), [8, 16, 32, 64, 99, 81]),
        (PointMassKernel("t-1"), TriangularDensityKernel("t-1"), [8, 16, 32, 64, 99, 81]),
        # floors inside the step: nothing ends a block before MAX_BLOCK
        (UniformDensityKernel("t-0.003"), UniformDensityKernel("t-0.003"), [8, 16, 32, 64, 128, 52]),
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-0.003"), [8, 16, 32, 64, 99, 81]),
        # a mixture's density keeps dense weights over every node: 53 steps,
        # whose 106 stage times x about 310 grid nodes fill WINDOW_ELEMENTS
        (GeneralMixtureKernel(density="1", density_lag="t-1"), UniformDensityKernel("t-1"),
         [8, 16, 32, 53, 53, 53, 53, 32]),
        # floors in the block's own steps from its second step on
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-0.013"), [8, 16, 32, 64, 99, 81]),
    ],
    ids=["uniform", "point-triangular", "in-step", "one-in-step", "mixture", "own-steps"],
)
def test_block_steps_count_the_steps_a_block_serves(monkeypatch, k1, k2, sizes):
    built = block_spy(monkeypatch)
    spec = spec_of("1+x/2", "x/2", k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    _, outcome = integrate(spec, horizon=3.0, dt=0.01)
    assert outcome.diagnostics["steps"] == 300
    # the first is the derivative at t = 0
    assert [steps for steps, _ in built] == [1] + sizes and outcome.diagnostics["blocks"] == len(sizes)
    # why each block ended, as the report counts it: the last at the horizon,
    # and only a density that does not factor on the element budget
    reasons = [why for _, why in built[1:]]
    assert outcome.diagnostics["block_ends"] == {reason: reasons.count(reason) for reason in feeds.BLOCK_ENDS}
    assert reasons[-1] == "horizon" and ("budget" in reasons) == isinstance(k1, GeneralMixtureKernel)


def run(spec, horizon, dt):
    """The error text and the number of rhs calls before it."""
    calls = []
    rhs = integrator.rhs

    def counted(*args):
        calls.append(args[1])
        return rhs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "rhs", counted)
        with pytest.raises(IntegrationError) as e:
            integrate(spec, horizon=horizon, dt=dt)
    return str(e.value), len(calls)


def test_domain_error_in_the_known_part_surfaces_at_the_per_stage_step():
    # y(s) = 1 + s below 0, and f1 is undefined below 0.5: the floor
    # t - 0.3 - t^2/2 moves back past -0.5 at t = 2.18, where the head read
    # at the floor fails first; the message, stop time and, on the checked
    # step, whose every rhs call counts, the rhs call count are those of the
    # per-stage path this replaced; the compiled step raises the same
    spec = spec_of("sqrt(x-0.5)", "1+x/2", k1=UniformDensityKernel("t-0.3-t^2/2"), k2=UniformDensityKernel("t-1"),
                   phi="2", psi="1+t")
    message = "right-hand side failed near t=2.18: sqrt(x - 0.5) at 0.4978874999999998: math domain error"
    with checked_only():
        assert run(spec, 3.0, 0.01) == (message, 873)
    assert run(spec, 3.0, 0.01)[0] == message


def test_a_mixture_atom_raises_before_its_density_at_one_stage():
    # at t = 0 the atom reads psi at -2 and the density over [-1, 0], where
    # psi = sqrt(t + 0.8) + 0.6 is undefined below -0.8: the atom's error
    # comes first, as the mixture adds its atoms before its density
    spec = spec_of("1+x/2", "x/2", k1=GeneralMixtureKernel([("t-2", 0.5)], density="0.5", density_lag="t-1"),
                   k2=PointMassKernel("t-0.5"), phi="1", psi="sqrt(t + 0.8) + 0.6")
    with pytest.raises(IntegrationError) as e:
        integrate(spec, horizon=3.0, dt=0.01)
    assert str(e.value) == "right-hand side failed at t=0: sqrt(t + 0.8) + 0.6 at -2.0: math domain error"


def test_a_raising_f_at_an_own_step_point_read_surfaces_at_its_stage(monkeypatch):
    # t - 0.013 at dt 0.01 reads 1.3 steps back, so from a block's third step
    # on each row reads a time in the block's own steps (`_Reader._late`,
    # once the step that holds it is stored).  y passes 1.5 near t = 1.13,
    # where f1 = sqrt(1.5 - y) has no value: the read's error becomes a
    # `_Raise` there and is raised at the stage that reads it, by the
    # compiled loop's hand-back and by the checked step alike
    made = []
    init = windows._Raise.__init__

    def spy(self, error):
        made.append(sys._getframe(1).f_code)
        init(self, error)

    monkeypatch.setattr(windows._Raise, "__init__", spy)
    kernel = PointMassKernel("t - 0.013")
    spec = spec_of("sqrt(1.5 - x)", "1 + x", k1=kernel, k2=kernel)
    message = "right-hand side failed near t=1.1300000000000001: sqrt(1.5 - x) at 1.5000872069321742: math domain error"
    for render in (contextlib.nullcontext, checked_only):
        del made[:]
        with render(), pytest.raises(IntegrationError) as e:
            integrate(spec, horizon=3.0, dt=0.01, converge_rtol=0)
        assert str(e.value) == message
        assert made == [feeds._Reader._late.__code__]


def test_a_window_head_read_and_a_point_read_agree_on_f():
    # psi spikes to 1e200 at -0.013 alone, the floor of t - 0.013 at t = 0,
    # where the derivative's one row reads its head, and the time a point lag
    # t - 0.013 reads there.  f1 = 1/(1 + x*x) of 1e200 is 0.0 by the scalar
    # f (x*x is inf), and a head read evaluates f by the same scalar code as
    # a point read: the window run goes on as the point run does
    for kernel in (UniformDensityKernel("t - 0.013"), PointMassKernel("t - 0.013")):
        seen = []
        spec = spec_of("1", "1 + x/2", k1=kernel, k2=UniformDensityKernel("t - 1"),
                       psi="1 + 1e200*exp(-1e12*(t + 0.013)^2)")
        spec.f1 = Watched("1/(1 + x*x)", seen.append)
        _, outcome = integrate(spec, horizon=1.0, dt=0.01)
        assert outcome.status == "reached-horizon" and outcome.diagnostics["steps"] == 100
        assert 1e200 in seen and spec.f1(1e200) == 0.0


def y_midpoint(traj, step):
    """The grid's y node at the midpoint of the step, as the step template
    stores it (in `_hermite(0.5, ...)`'s operations)."""
    (_, y0, _, dy0), (_, y1, _, dy1) = traj._v[step : step + 2].tolist()
    return integrator._hermite(0.5, traj._t.item(step + 1) - traj._t.item(step), y0, y1, dy0, dy1)


def failing_at(bad, raised):
    """f = 1 + x/2, undefined at the value bad alone; each scalar
    evaluation there is recorded in raised."""

    def scalar(v):
        if v == bad:
            raised.append(v)
            raise EvalDomainError("undefined at the node")

    def array(vs):
        if np.any(vs == bad):
            raise EvalDomainError("undefined at the node")

    return Watched("1+x/2", scalar, array)


def test_domain_error_at_an_accepted_node_surfaces_at_the_per_stage_step():
    # f1 fails at the value the grid holds at the midpoint of step 20 (t =
    # 0.205), the y node the next step reads first, inside a block; the
    # message, stop time and rhs call count are those of the per-stage path
    # this replaced
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel("t-1"), k2=UniformDensityKernel("t-1"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    bad = y_midpoint(integrate(spec, horizon=0.3, dt=0.01)[0], 20)

    def near(vs):
        if np.any(np.abs(np.asarray(vs) - bad) <= 1e-13):
            raise EvalDomainError("undefined near the node")

    spec.f1 = Watched("1+x/2", near, near)
    with checked_only():
        assert run(spec, 0.5, 0.01) == ("right-hand side failed near t=0.21: undefined near the node", 85)


def test_a_domain_error_at_a_node_no_window_reads_leaves_the_run_unchanged():
    # uniform t - 1.3*dt weighs only step ends of the grid: its head panel
    # reads the trajectory, and its one whole node is its step's start.  f1
    # fails at the grid's y midpoint of step 7 (t = 0.075), the last step of
    # the first 8-step block, and nowhere else, so the next block reads from
    # the end of step 7, the node after the failed one, which holds f of it;
    # the run is that of an f1 that does not fail, bit for bit
    dt = 0.01
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel(f"t-{1.3 * dt!r}"), k2=UniformDensityKernel("t-1"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    with checked_only():
        want, outcome = integrate(spec, horizon=0.5, dt=dt)
    assert outcome.diagnostics["block_ends"]["limit"] >= 1 and outcome.diagnostics["compiled_steps"] == 0
    bad = y_midpoint(want, 7)
    raised = []
    spec.f1 = failing_at(bad, raised)
    with checked_only():
        got, outcome = integrate(spec, horizon=0.5, dt=dt)
    assert raised == [bad] and outcome.status == "reached-horizon"
    assert np.array_equal(got._v[: got.n + 1], want._v[: want.n + 1])


@pytest.mark.parametrize("lag, step", [("t-1", 7), ("t-0.025", 3)])
def test_a_domain_error_at_a_stored_node_stops_the_first_step_that_reads_it(lag, step):
    # blocks of 8, 16 and 26 steps after the derivative at t = 0.  f1 fails
    # at the grid's y midpoint of the step alone, which the checked step
    # stores with its error (`_StepGrid.node`).  t - 1 weighs every node of the
    # last time unit, so the midpoint of step 7, the first block's last, is
    # read first by the next block, whose set-up raises the node's error
    # again (`_StepGrid.fed`).  t - 0.025 reaches 2.5 steps back: step 4's
    # rows are the first to weigh step 3's midpoint, in the same block,
    # whose own nodes `_WindowBlock._steps` reads step by step.  Either way
    # the run stops at the step after the node's, with f's error
    dt = 0.01
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel(lag), k2=UniformDensityKernel("t-1"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    with checked_only():
        want, outcome = integrate(spec, horizon=0.5, dt=dt)
    assert outcome.diagnostics["blocks"] == 3 and outcome.diagnostics["block_ends"]["raise"] == 0
    bad, t_read = y_midpoint(want, step), want._t.item(step + 1)
    raised = []
    spec.f1 = failing_at(bad, raised)
    with checked_only(), pytest.raises(IntegrationError) as e:
        integrate(spec, horizon=0.5, dt=dt)
    assert str(e.value) == f"right-hand side failed near t={t_read!r}: undefined at the node"
    assert raised == [bad]  # stored once; every later read raises the kept error


def test_converge_rtol_zero_skips_the_convergence_window(monkeypatch):
    spec = spec_of("2*tanh(x)", "2*tanh(x)", k1=PointMassKernel("t-1"), k2=PointMassKernel("t-1"))
    spans = []
    max_span = SystemSpec.max_span

    def spy(self, t):
        spans.append(t)
        return max_span(self, t)

    monkeypatch.setattr(SystemSpec, "max_span", spy)
    integrate(spec, horizon=2.0, dt=0.01, converge_rtol=0.0)
    assert spans == []
    integrate(spec, horizon=2.0, dt=0.01)
    assert len(spans) == 200 // 16
