import ast
import contextlib
import gc
import itertools
import json
import math
import random
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopdelay import feeds, integrator
from coopdelay.config import load_config, system_from_mapping
from coopdelay.dynamics import InitialFunction, SystemSpec
from coopdelay.expr import EvalDomainError, Expression, parse
from coopdelay.feeds import block_feeds
from coopdelay.integrator import (
    IntegrationError,
    Trajectory,
    _compile_steps,
    _ends_apart,
    _spread_within,
    default_dt,
    detect_nonoscillation_violation,
    integrate,
)
from coopdelay.kernels import (
    GeneralMixtureKernel,
    HistoryUnderflowError,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
)
from coopdelay.windows import _InStep, _StepGrid, window_feed
from reference_history import Stage, check, drive, in_step_read, stage_read, step_end, window_checks


def pf(text):
    return parse(text)


def spec_of(f1, f2, r1="1", r2="1", k1=None, k2=None, phi="1", psi="1", g1=None, g2=None):
    return SystemSpec(
        f1=pf(f1),
        f2=pf(f2),
        r1=parse(r1, var="t"),
        r2=parse(r2, var="t"),
        k1=k1 or PointMassKernel("t"),
        k2=k2 or PointMassKernel("t"),
        phi=InitialFunction(phi),
        psi=InitialFunction(psi),
        g1=parse(g1) if g1 else None,
        g2=parse(g2) if g2 else None,
    )


@contextlib.contextmanager
def checked_only():
    """Runs inside take every step by the checked step: in place of the
    compiled loop, `_compile_steps` gives a driver that hands it every item,
    with the loop's extinction test and check cadence."""
    render = integrator._compile_steps

    def checked_render(spec, traj, grid, threshold, ratio, extinction, checked=False):
        if checked:
            return render(spec, traj, grid, threshold, ratio, extinction, checked=True)

        def run(feeds, check, take, t, x, y, dx, dy):
            for item in feeds:
                t, x, y, dx, dy = take(item, t, x, y, dx, dy)
                if max(abs(x), abs(y)) < extinction:
                    return "extinct"
                if traj.n % integrator.CHECK_EVERY == 0 and check(t, x, y):
                    return "converged"
            return "reached-horizon"

        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_compile_steps", checked_render)
        yield


def on_path(path):
    """The context of a run on the compiled step, or on the checked step
    alone ("generic")."""
    return contextlib.nullcontext() if path == "compiled" else checked_only()


class Watched(Expression):
    """A production function that calls seen(v) before each scalar
    evaluation and seen_array(vs) before each array evaluation, to count
    them or to raise at chosen values.  It has no generated pass, so blocks
    read it value by value; the compiled loop inlines f's source and never
    calls it, so a run that watches it takes the checked step
    (`checked_only`)."""

    __slots__ = ("seen", "seen_array")

    def __init__(self, text, seen=None, seen_array=None):
        e = parse(text)
        super().__init__(e.root, e.var)
        self.seen, self.seen_array = seen, seen_array

    def evaluate(self, v):
        if self.seen is not None:
            self.seen(v)
        return super().evaluate(v)

    __call__ = evaluate

    def evaluate_array(self, vs):
        if self.seen_array is not None:
            self.seen_array(vs)
        return super().evaluate_array(vs)

    def evaluate_each(self, vs):
        return None


PATHS = ["compiled", "generic"]


def linear_half_decay():
    return spec_of("x/2", "x/2")


def quadratic_blowup():
    return spec_of("x^2+x", "x^2+x", phi="1/3", psi="1/3")


class TestLinearDecay:
    def test_matches_exponential(self):
        traj, outcome = integrate(linear_half_decay(), horizon=10.0, dt=1e-3)
        assert outcome.status == "reached-horizon"
        ts = np.linspace(0.0, 10.0, 501)
        worst = 0.0
        for t in ts:
            x, y = traj.value_scalar(float(t))
            exact = math.exp(-t / 2.0)
            worst = max(worst, abs(x - exact), abs(y - exact))
        assert worst <= 1e-6
        assert max(outcome.final_state) < 0.01

    def test_order_at_least_three(self):
        errs = []
        for dt in (0.02, 0.01):
            traj, _ = integrate(linear_half_decay(), horizon=5.0, dt=dt)
            ts = traj.step_times()
            xs = traj.step_values(0)
            errs.append(float(np.max(np.abs(xs - np.exp(-ts / 2.0)))))
        assert errs[0] / errs[1] >= 2.0**3.9

    def test_deterministic_reruns(self):
        t1, o1 = integrate(linear_half_decay(), horizon=4.0, dt=1e-3)
        t2, o2 = integrate(linear_half_decay(), horizon=4.0, dt=1e-3)
        assert np.array_equal(t1.step_values(0), t2.step_values(0))
        assert np.array_equal(t1.step_values(1), t2.step_values(1))
        assert o1.final_state == o2.final_state

    def test_extinction_detected_on_long_horizon(self):
        # converge_rtol=0 disables the window criterion so the decay runs out
        _, outcome = integrate(
            linear_half_decay(), horizon=80.0, dt=5e-3, converge_rtol=0.0
        )
        assert outcome.status == "extinct"
        assert outcome.extinct_time is not None
        assert max(abs(v) for v in outcome.final_state) < 1e-12


class TestBlowup:
    def test_pole_location_and_path(self):
        traj, outcome = integrate(quadratic_blowup(), horizon=4.0, dt=1e-4)
        assert outcome.status == "blow-up"
        assert 2.9 < outcome.blowup_time <= 3.0
        for t in np.linspace(0.0, 2.5, 26):
            x, _ = traj.value_scalar(float(t))
            assert abs(x - 1.0 / (3.0 - t)) <= 1e-4

    def test_positive_history_stays_positive(self):
        traj, _ = integrate(quadratic_blowup(), horizon=4.0, dt=1e-4)
        assert np.all(traj.step_values(0) > 0.0)
        assert np.all(traj.step_values(1) > 0.0)

    # what each guard below compared, for x and y alike (see guard_values)
    GUARD_VALUES = {
        "stage-1": (8.467131617765407, 7.16211544013275, 11.772147795398064),
        "stage-2": (41.93471205752041, 44.15345104726821, 41.7159730677726),
        "stage-3": (107.78399030124336, 87.92600376735706, 417.15973067772603),
        "stage-4": (78.26821793666733, 1837.7741816944974, 706.3288677238838),
        "state-threshold": (5.334062067958716, None, None),
    }

    @pytest.mark.parametrize(
        "f, dt, threshold, ratio, guard, t_stop",
        [
            ("x^2+x", 0.3, 5.0, 2.0, "stage-1", 1.8),
            ("x^2+x", 0.05, 1e12, 2.0, "stage-2", 1.95),
            ("x^2+x", 0.05, 50.0, 20.0, "stage-3", 1.95),
            ("x^2+x", 0.3, 1e12, 20.0, "stage-4", 1.8),
            ("exp(x)", 0.3, 5.0, 2.0, "state-threshold", 0.6),
        ],
    )
    def test_each_guard_names_itself(self, f, dt, threshold, ratio, guard, t_stop):
        # on both paths; with zero lags the compiled step takes every
        # accepted step
        for path in PATHS:
            with on_path(path):
                _, outcome = integrate(spec_of(f, f, phi="0.5", psi="0.5"), horizon=3.0, dt=dt,
                                       blowup_threshold=threshold, stage_ratio=ratio)
            assert (outcome.status, outcome.diagnostics["stage_guard"]) == ("blow-up", guard)
            assert outcome.diagnostics["guard_values"] == guard_values(threshold, *self.GUARD_VALUES[guard])
            assert outcome.blowup_time == outcome.t_final == pytest.approx(t_stop, abs=1e-12)
            steps = outcome.diagnostics["steps"]
            assert outcome.diagnostics["compiled_steps"] == (steps if path == "compiled" else 0)

    def test_non_finite_guard_values_are_strict_json(self):
        # G = 1e308 and -1e308 overflow the slopes at t = 0 to inf and -inf;
        # with a NaN threshold only the finiteness test can fire
        spec = spec_of("x+2", "x+2", g1="1e308", g2="-1e308")
        for path in PATHS:
            with on_path(path):
                _, outcome = integrate(spec, horizon=1.0, dt=0.1, blowup_threshold=math.nan)
            assert (outcome.status, outcome.diagnostics["stage_guard"]) == ("blow-up", "stage-1")
            values = outcome.diagnostics["guard_values"]
            assert values == {"state": ["inf", "-inf"], "increments": ["inf", "-inf"], "threshold": "nan",
                              "bound": 4.0}
            json.dumps(values, allow_nan=False)


def guard_values(threshold, state, increment, bound):
    """The report of a guard that fired on equal x and y: the stage state and
    threshold, and the increments h * k and their bound unless the guard
    compares states alone (None)."""
    values = {"state": [state, state], "threshold": threshold}
    if increment is not None:
        values.update(increments=[increment, increment], bound=bound)
    return values


FAMILIES = {
    "tanh": st.builds(lambda a, b: f"{a!r}*tanh({b!r}*x)", st.floats(0.5, 3.0), st.floats(0.5, 2.0)),
    "affine": st.builds(lambda c, b: f"{c!r}+{b!r}*x", st.floats(0.0, 2.0), st.floats(0.1, 0.9)),
    "sqrt": st.builds(lambda a, c: f"{a!r}*sqrt(x)+{c!r}", st.floats(0.5, 2.0), st.floats(0.0, 1.0)),
}
LAG_KERNELS = st.builds(
    lambda kind, lag: kind(f"t-{lag!r}"),
    st.sampled_from([PointMassKernel, UniformDensityKernel, TriangularDensityKernel]),
    st.floats(min_value=0.2, max_value=1.5),
)


@st.composite
def positive_systems(draw):
    """A system with non-negative production, positive initial data and
    dt * max(r1, r2) <= 1."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    r1, r2 = draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0))
    dt = draw(st.floats(0.3, 1.0)) * min(0.1, 1.0 / max(r1, r2))
    p1, p2 = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    q1, q2 = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))
    g = "x" if draw(st.booleans()) else None
    spec = spec_of(draw(family), draw(family), r1=repr(r1), r2=repr(r2),
                   k1=draw(LAG_KERNELS), k2=draw(LAG_KERNELS),
                   phi=f"{p1!r}*(1+{q1!r}*sin(3*t))", psi=f"{p2!r}*(1+{q2!r}*sin(3*t))",
                   g1=g, g2=g)
    return spec, dt


@given(positive_systems())
@settings(max_examples=40, deadline=None)
def test_positive_data_stay_positive(system):
    spec, dt = system
    traj, _ = integrate(spec, horizon=6.0, dt=dt)
    for comp in (0, 1):
        assert np.all(traj.step_values(comp) > 0.0)


class TestEquilibriumHold:
    def test_constant_equilibrium_data(self):
        spec = spec_of(
            "1+x/2",
            "1+x/2",
            r1="2+sin(t)",
            r2="2+cos(t)",
            k1=UniformDensityKernel("t-1"),
            k2=UniformDensityKernel("t-1"),
            phi="2",
            psi="2",
        )
        traj, outcome = integrate(spec, horizon=12.0, dt=2e-3)
        xs = traj.step_values(0)
        ys = traj.step_values(1)
        assert np.max(np.abs(xs - 2.0)) <= 1e-9
        assert np.max(np.abs(ys - 2.0)) <= 1e-9
        assert outcome.status in ("converged", "reached-horizon")
        if outcome.status == "converged":
            assert outcome.converged_point == pytest.approx((2.0, 2.0), abs=1e-9)


class TestTrajectoryEvaluation:
    def test_handoff_at_zero(self):
        spec = spec_of("x/2", "x/2", phi="3", psi="5")
        traj, _ = integrate(spec, horizon=1.0, dt=1e-2)
        assert traj.value_scalar(0.0) == (3.0, 5.0)
        assert traj.value_scalar(-7.5) == (3.0, 5.0)

    def test_segment_endpoint_exact(self):
        traj, _ = integrate(linear_half_decay(), horizon=1.0, dt=1e-2)
        i = traj.n // 2
        t_end = traj.step_times()[i]
        assert traj.value_scalar(t_end, 0) == traj.step_values(0)[i]
        assert traj.value_scalar(t_end, 1) == traj.step_values(1)[i]

    def test_mid_segment_accuracy(self):
        traj, _ = integrate(linear_half_decay(), horizon=10.0, dt=1e-3)
        for t in (0.1234, 1.00055, 7.77717):
            x, _ = traj.value_scalar(t)
            assert abs(x - math.exp(-t / 2.0)) <= 1e-6

    def test_beyond_front_rejected(self):
        traj, _ = integrate(linear_half_decay(), horizon=1.0, dt=1e-2)
        with pytest.raises(ValueError):
            traj.value_scalar(1.5)

    def test_vector_scalar_agree(self):
        traj, _ = integrate(linear_half_decay(), horizon=2.0, dt=1e-2)
        ts = np.array([-1.0, 0.0, 0.005, 0.5, 1.995, 2.0])
        vx = traj.value_array(ts)[0]
        for t, v in zip(ts, vx):
            assert v == traj.value_scalar(float(t), 0)


class TestHistoryBookkeeping:
    def test_underflow_without_initial_functions(self):
        traj = Trajectory(phi=None, psi=None)
        traj.append(0.0, 1.0, 1.0, 1.0, 1.0)
        traj.append(1.0, 2.0, 2.0, 1.0, 1.0)
        with pytest.raises(HistoryUnderflowError):
            traj.value_scalar(-0.5, 0)

    def test_read_just_past_a_lone_start_node(self):
        # within rounding of the front, a read past the start node is the
        # start itself, not a read of the segment after it
        traj = Trajectory(phi=InitialFunction("2"), psi=InitialFunction("3"))
        traj.append(0.0, 2.0, 3.0, 0.5, 0.5)
        assert traj.value_scalar(5e-13) == (2.0, 3.0)
        assert traj.value_scalar(5e-13, 1) == 3.0

    def test_csv_export(self, tmp_path):
        traj, _ = integrate(linear_half_decay(), horizon=1.0, dt=1e-2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, stride=10)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 12  # steps 0, 10, ..., 100; the last is the front
        t, x, y = lines[1].split(",")
        assert float(t) == 0.0 and float(x) == 1.0 and float(y) == 1.0


class TestNonoscillationDetector:
    def sqrt_logistic(self, level):
        return spec_of(
            "sqrt(x)+2",
            "x",
            k1=PointMassKernel("t-1"),
            k2=PointMassKernel("t-1"),
            phi=level,
            psi=level,
            g1="x",
            g2="x",
        )

    def test_above_side_holds(self):
        traj, _ = integrate(self.sqrt_logistic("5"), horizon=15.0, dt=1e-3)
        assert detect_nonoscillation_violation(traj, 4.0, 4.0, "above") is None

    def test_below_side_holds(self):
        traj, _ = integrate(self.sqrt_logistic("1"), horizon=15.0, dt=1e-3)
        assert detect_nonoscillation_violation(traj, 4.0, 4.0, "below") is None

    def test_artificial_crossing_reported(self):
        traj = Trajectory(phi=None, psi=None)
        for t, x, y in ((0.0, 5.0, 5.0), (1.0, 4.5, 4.5), (2.0, 3.5, 4.2)):
            traj.append(t, x, y, 0.0, 0.0)
        hit = detect_nonoscillation_violation(traj, 4.0, 4.0, "above")
        assert hit is not None
        t_hit, comp = hit
        assert t_hit == 2.0 and comp == "x"


def test_default_dt_rule():
    spec = spec_of("x/2", "x/2", k1=PointMassKernel("t-1"), k2=PointMassKernel("t-1"))
    assert default_dt(spec, 10.0) == pytest.approx(1e-3)
    spec_small = spec_of(
        "x/2", "x/2", k1=PointMassKernel("t-0.01"), k2=PointMassKernel("t-0.01")
    )
    assert default_dt(spec_small, 10.0) == pytest.approx(1e-4)
    spec_zero = spec_of("x/2", "x/2")
    assert default_dt(spec_zero, 10.0) == pytest.approx(1e-4)


def test_modulated_equilibrium_run():
    spec = spec_of(
        "sqrt(x)+2",
        "x",
        k1=TriangularDensityKernel("t-1"),
        k2=TriangularDensityKernel("t-1"),
        phi="8",
        psi="8",
        g1="x",
        g2="x",
    )
    _, outcome = integrate(spec, horizon=60.0, dt=5e-3)
    assert outcome.status in ("converged", "reached-horizon")
    assert outcome.final_state[0] == pytest.approx(4.0, abs=1e-3)
    assert outcome.final_state[1] == pytest.approx(4.0, abs=1e-3)


def test_point_lag_final_state_is_plain_float():
    spec = spec_of("sqrt(x)+2", "x", k1=PointMassKernel("t-1"), k2=PointMassKernel("t-1"),
                   phi="5", psi="5", g1="x", g2="x")
    _, outcome = integrate(spec, horizon=3.0, dt=1e-2)
    assert [type(v) for v in outcome.final_state] == [float, float]


# -- density windows on the step grid ----------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STEP = 0.05


def stored_history():
    """History stored on [0, 2] in steps of STEP, with non-constant initial data."""
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-0.3"), k2=PointMassKernel("t-0.7"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    traj, outcome = integrate(spec, horizon=2.0, dt=STEP)
    return traj, outcome.final_state


def count_array_lookups(monkeypatch):
    calls = []
    original = Trajectory.value_array

    def counted(self, ts, comp=None):
        calls.append(np.size(ts))
        return original(self, ts, comp)

    monkeypatch.setattr(Trajectory, "value_array", counted)
    return calls


def counted_production(text):
    """A production function that records its scalar arguments and the size
    of each array evaluation."""
    scalars, sizes = [], []
    return Watched(text, scalars.append, lambda vs: sizes.append(np.size(vs))), scalars, sizes


BODIES = ["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x", "exp(-x)"]


def feedback_window(kind, lag):
    lag = lag if isinstance(lag, str) else f"t-{lag!r}"
    if kind == "uniform":
        return UniformDensityKernel(lag)
    if kind == "triangular":
        return TriangularDensityKernel(lag)
    return GeneralMixtureKernel([("t-0.05", 0.25)], density=kind, density_lag=lag)


KINDS = ["uniform", "triangular", "exp(-u)", "u/4+1"]


LAGS = st.one_of(
    st.floats(min_value=0.001, max_value=0.5 * STEP),  # inside the step at the midpoint
    st.floats(min_value=0.001, max_value=4.0),  # beyond about 2 the windows straddle 0
    st.sampled_from(["t/2", "t/2 - 1.5", "t/3 - 0.7*t"]),  # non-constant lags
)


def first_items(spec, traj, horizon=3.0):
    """The feeds of the derivative at the front and of the step after it."""
    items = block_feeds(spec, traj, _StepGrid(traj, STEP), STEP, horizon, 1e-12 * horizon, Counter())
    return next(items), next(items)


def stage_at(traj, t, state):
    """The stage of the step from the trajectory's front at the time t."""
    return Stage(traj, STEP, traj.t_front, tuple(traj._v[traj.n, :2].tolist()),
                 tuple(traj._v[traj.n, 2:].tolist()), t, state)


class TestStageView:
    def test_lookups_match_stored_history_and_blend(self):
        # the grid keeps each stored step end as stored and each step's
        # Hermite midpoint; below 0 its times go on at multiples of STEP/2,
        # and a component's values there are read from its own initial data
        # when f of it is first asked for, so the other component's need not
        # be defined there.  An in-step read is the quadratic by definition
        traj, state = stored_history()
        traj.psi = InitialFunction("sqrt(t+1.5)")
        grid = _StepGrid(traj, STEP)
        grid.extend(-2.01)
        ts = grid.t[: grid.n]
        k = int(np.searchsorted(ts, 0.0))
        assert ts[0] <= -2.01 < ts[2] and ts[-1] == traj.t_front
        assert np.array_equal(ts[:k], np.arange(-k, 0) * (0.5 * STEP))
        ends = traj.step_times()
        assert np.array_equal(ts[k::2], ends)
        mids = ts[k + 1 :: 2]
        assert np.allclose(mids, 0.5 * (ends[:-1] + ends[1:]), rtol=0, atol=1e-15)
        ident = pf("x")
        fx = grid.fed(ident, 0, 0)
        assert np.array_equal(fx[:k], traj.value_array(ts[:k], 0))
        assert np.array_equal(fx[k::2], traj.step_values(0))
        assert np.allclose(fx[k + 1 :: 2], traj.value_array(mids)[0], rtol=1e-15, atol=0)
        with pytest.raises(EvalDomainError, match="sqrt"):
            grid.fed(ident, 1, 0)
        i = int(np.searchsorted(ts, -1.5))
        assert np.array_equal(grid.fed(ident, 1, i)[: k - i], traj.value_array(ts[i:k], 1))
        front = traj.t_front
        stage = stage_at(traj, front + STEP, (1.5, 2.5))
        for s in (front + 0.3 * STEP, front + STEP):
            for comp in (0, 1):
                read = window_feed(ident, _InStep(front, front + STEP, s), stage.stage[comp], state[comp],
                                   stage.slope[comp])
                assert bits(read) == bits(in_step_read(stage, s, comp))

    @given(
        kind=st.sampled_from(KINDS),
        lag=LAGS,
        frac=st.floats(min_value=0.01, max_value=1.0),
        body=st.sampled_from(BODIES),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_feedback_matches_full_simpson_dot(self, kind, lag, frac, body, seed):
        # uniform, triangular and mixture densities; constant lags, windows
        # straddling 0 or inside the step, and moving lags; the second step
        # clamped to frac of a step by the horizon
        traj, _ = stored_history()
        kernel = feedback_window(kind, lag)
        spec = spec_of(body, body, k1=kernel, k2=kernel)
        drive(spec, traj, STEP, 2, random.Random(seed), states=2, horizon=traj.t_front + (1.0 + frac) * STEP)

    @given(
        kind=st.sampled_from(KINDS),
        lag=st.floats(min_value=0.001, max_value=1.5),
        frac=st.floats(min_value=0.01, max_value=1.0),
        body=st.sampled_from(BODIES),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_step_reads_initial_data_across_zero(self, kind, lag, frac, body, seed):
        # the first steps of a run: stored history is the start node alone,
        # and windows reach back into the initial data or lie in the step
        spec = spec_of(body, "x/2", k1=feedback_window(kind, lag), k2=PointMassKernel(f"t-{lag!r}"),
                       phi="2+sin(3*t)", psi="1+t^2/4")
        traj = Trajectory(spec.phi, spec.psi)
        traj.append(0.0, 2.0, 1.0, 0.7, -0.4)  # the start node, with a slope
        drive(spec, traj, STEP, 3, random.Random(seed), horizon=(2.0 + frac) * STEP)

    def test_lookup_after_append_sees_new_segment(self):
        traj, state = stored_history()
        kernel = UniformDensityKernel("t-1")
        f = pf("x")
        spec = spec_of("x", "x", k1=kernel, k2=kernel)
        grid = _StepGrid(traj, STEP)
        items = block_feeds(spec, traj, grid, STEP, 3.0, 3e-12, Counter())
        _, store = _compile_steps(spec, traj, grid, math.inf, math.inf, 0.0, checked=True)
        next(items)
        front = traj.t_front
        slope = traj._v[traj.n, 2:].tolist()
        t1 = step_end(traj.n, STEP, 3.0, 3e-12)
        before = next(items)
        check(before[3], stage_at(traj, t1, (9.0, 9.0)), kernel, f, 1)
        store(before, front, *state, *slope, t1, 3.0, 4.0, 0.0, 0.0)
        grid.sync()
        assert list(grid.t[grid.n - 2 : grid.n]) == [front + 0.5 * (t1 - front), t1]
        # f1 (x) of y at the step's midpoint and end, as the store handed them over
        mid = 0.5 * state[1] + 0.5 * 4.0 + (t1 - front) * (0.125 * slope[1] + -0.125 * 0.0)
        assert grid.fed(f, 1, grid.n - 2).tolist() == [mid, 4.0]
        after = next(items)  # the next step's feeds read the new segment
        t2 = step_end(traj.n, STEP, 3.0, 3e-12)
        check(after[3], stage_at(traj, t2, (9.0, 9.0)), kernel, f, 1)
        assert window_feed(f, after[3], 9.0, 4.0, 0.0) != window_feed(f, before[3], 9.0, state[1], 0.0)

    def test_same_time_stages_share_stored_part(self, monkeypatch):
        # a block computes a window's known part once per production
        # function and component; each read of a feed at a stage evaluates
        # f at the tail's two reads only
        traj, state = stored_history()
        kernel = TriangularDensityKernel("t-1")
        f, scalars, sizes = counted_production("x^2+x")
        spec = spec_of("x", "x", k1=kernel, k2=kernel)
        spec.f1 = spec.f2 = f
        calls = count_array_lookups(monkeypatch)
        _, item = first_items(spec, traj)
        # per component one lookup of the 41 grid nodes from the earliest
        # floor to the front, which a grid made over a stored history reads
        # from the trajectory; one lookup of the block's 8 steps, at the
        # floor and the head midpoint of each stage time whose head has
        # width, for both components as they lie in stored history; per
        # component f over those grid nodes and over the block's head reads,
        # value by value (`Watched` has no generated pass).  The floors of
        # the derivative at the front (1.0) and of 4 of the block's 16 stage
        # times (1.1, 1.2000000000000002, 1.25, 1.35) are step ends: heads
        # of no width, which read nothing
        assert calls == [41, 41, 2 * (16 - 4)] and sizes == [] and len(scalars) == 2 * (41 + 2 * (16 - 4))
        reads = len(scalars)
        feeds = {}
        for slot in range(4):
            for stage in ((1.5, 2.5), (7.0, 8.0)):
                feeds[slot, stage] = window_feed(f, item[1 + slot], stage[1 - slot % 2], state[1 - slot % 2], 0.0)
        assert len(scalars) - reads == 2 * 4 * 2 and len(calls) == 3 and sizes == []
        for slot in range(4):
            assert feeds[slot, (1.5, 2.5)] != feeds[slot, (7.0, 8.0)]  # one known part, two tails


class TestOneEvaluationPerPair:
    @given(
        kind=st.sampled_from(KINDS),
        lag_frac=st.floats(min_value=0.0, max_value=1.0),
        stages=st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)), min_size=1, max_size=2),
        bodies=st.lists(st.sampled_from(BODIES), min_size=1, max_size=2),
        end_first=st.booleans(),
        y_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_feedback_matches_the_per_slot_reference_bit_for_bit(
        self, kind, lag_frac, stages, bodies, end_first, y_first
    ):
        # whatever order the stages, components and production functions
        # read a step's feeds in, each read equals that of a new block that
        # serves it alone
        traj, state = stored_history()
        lag = 0.01 + 3.99 * lag_frac  # beyond about 2 the windows straddle 0
        kernel = feedback_window(kind, lag)
        spec = spec_of(bodies[0], bodies[-1], k1=kernel, k2=kernel)
        _, item = first_items(spec, traj)
        slots = [0, 1, 2, 3]
        slots = slots[2:] + slots[:2] if end_first else slots
        slots = [s ^ 1 for s in slots] if y_first else slots
        for stage in stages:
            for slot in slots:
                f = spec.f1 if slot % 2 == 0 else spec.f2
                comp = 1 - slot % 2
                got = window_feed(f, item[1 + slot], stage[comp], state[comp], 0.0)
                fresh = first_items(spec, traj)[1][1 + slot]
                assert bits(got) == bits(window_feed(f, fresh, stage[comp], state[comp], 0.0))

    def test_domain_error_at_step_end_nodes_surfaces_at_the_step_end(self):
        # x(s) = s on [0, 2], and f is undefined below 0.5: the midpoint
        # window starts at 0.6, the step-end window at 0.4
        traj = Trajectory()
        for i in range(41):
            traj.append(i * STEP, i * STEP, 1.0, 1.0, 0.0)
        front = traj.t_front
        mid = front + 0.5 * (step_end(traj.n, STEP, 3.0, 3e-12) - front)
        kernel = UniformDensityKernel(f"0.6 - 8*(t - {mid!r})")
        spec = spec_of("x", "sqrt(x-0.5)", k1=PointMassKernel("t-1"), k2=kernel)
        _, (_, xm, ym, xe, ye) = first_items(spec, traj)
        for end_first in (False, True):
            if end_first:  # the failed read leaves the midpoint readable
                with pytest.raises(EvalDomainError, match="sqrt"):
                    window_feed(spec.f2, ye, front, front, 1.0)
            check(ym, stage_at(traj, mid, (front, 1.0)), kernel, spec.f2, 0)
            with pytest.raises(EvalDomainError, match="sqrt"):
                window_feed(spec.f2, ye, front, front, 1.0)


@pytest.mark.parametrize(
    "k1, k2, windows, points",
    [
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-1"), 1, 0),  # equal, not the same object
        (UniformDensityKernel("t-1"), TriangularDensityKernel("t-1"), 2, 0),
        (TriangularDensityKernel("t-1"), PointMassKernel("t-1"), 1, 1),
    ],
)
def test_grid_reads_no_history_after_set_up(monkeypatch, k1, k2, windows, points):
    # the components fed through a window (one window may feed both): the
    # grid reads each one's initial data once, at set-up; after that each
    # block reads its head reads before 0 with one value_array per fed
    # component, and every f value is computed once
    assert windows == len({k for k in (k1, k2) if k.density_lag is not None})
    fed = 2 - points
    spec = spec_of("1+x/2", "x/2", k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    calls = count_array_lookups(monkeypatch)
    scalar_reads = count_scalar_lookups(monkeypatch)
    data_reads = count_data_reads(monkeypatch)
    f1, f1_scalars, f1_sizes = counted_production("1+x/2")
    f2, f2_scalars, f2_sizes = counted_production("x/2")
    spec.f1, spec.f2 = f1, f2
    with checked_only():
        _, outcome = integrate(spec, horizon=0.5, dt=0.01)
    steps = outcome.diagnostics["steps"]
    assert outcome.status == "reached-horizon" and steps == 50
    # blocks of 8 and 16 steps from t = 0 and one of 26 to the horizon
    blocks = [8, 16, 26]
    assert outcome.diagnostics["blocks"] == len(blocks)
    # a head has width where its floor t - 1 is no step end of the grid,
    # whose nodes below 0 are m * dt/2 (`_StepGrid.extend`): per block, the
    # stage times whose floor is none of those; at t = 0 the floor -1 is one
    dt = 0.01
    ends = set((np.arange(-200, 1) * (0.5 * dt))[0::2].tolist())
    t1 = np.arange(1, steps + 1) * dt
    t0 = np.concatenate(([0.0], t1[:-1]))
    floors = (np.stack((t0 + 0.5 * (t1 - t0), t1), axis=1).ravel() - 1.0).tolist()
    wide = [sum(a not in ends for a in floors[2 * lo : 2 * hi])
            for lo, hi in itertools.pairwise(itertools.accumulate(blocks, initial=0))]
    assert wide == [11, 17, 33]
    # the initial data back to the floor -1 at t = 0, the step ends -1,
    # -0.99, ..., 0 with their midpoints, the start node included, once per
    # fed component; then per block and fed component the floor and head
    # midpoint of each stage time whose head has width
    assert calls == [201] * fed + [2 * w for w in wide for _ in range(fed)]
    # nothing is read one time at a time.  Those lookups read the initial
    # data (every time lies at or below 0), in one pass each, and a point
    # kernel reads the initial data of the component it is fed from at each
    # stage time, one pass per block, after the windows' reads
    assert scalar_reads == []
    per_block = zip([[201] * fed] + [[2 * w] * fed for w in wide], [1] + [2 * b for b in blocks])
    assert data_reads == [n for window_reads, point in per_block for n in window_reads + [point] * points]
    for scalars, sizes, kernel in ((f1_scalars, f1_sizes, k1), (f2_scalars, f2_sizes, k2)):
        assert sizes == []
        if isinstance(kernel, PointMassKernel):
            continue
        # f value by value (`Watched` has no generated pass): over the
        # initial data once, at t = 0, and over each block's head reads; per
        # step f of the two grid nodes it adds, in the step that stores them,
        # and of two tail reads per stage
        assert len(scalars) == 201 + sum(2 * w for w in wide) + 2 * steps + 4 * 2 * steps


@pytest.mark.parametrize("path", ["compiled", "generic"])
@pytest.mark.parametrize("case", ["logistic_distributed", "sqrt_logistic_triangular", "exp_log_extinction",
                                  "quadratic_integro", "mixture", "floors-in-own-steps"])
def test_the_grid_reads_the_trajectory_at_the_start_node_and_below_only(monkeypatch, case, path):
    # the grid exists before the first step, and the step hands it f of
    # every node it stores, so the only nodes whose values the grid reads
    # from the trajectory are the start node and the initial data below it:
    # one read per fed component, at set-up.  The mixture runs the checked
    # step on both paths; under uniform t - 0.013 at dt 0.01 the floors lie
    # in the block's own steps
    if case == "mixture":
        kernel = feedback_window("u/4+1", "t-0.5")
        spec, horizon, dt = spec_of("1+x/2", "x/2", k1=kernel, k2=kernel, phi="2+sin(3*t)", psi="1+t^2/4"), 1.0, 0.01
    elif case == "floors-in-own-steps":
        kernel = UniformDensityKernel("t - 0.013")
        spec, horizon, dt = spec_of("1+x/2", "x/2", k1=kernel, k2=kernel, phi="2+sin(3*t)", psi="1+t^2/4"), 1.0, 0.01
    else:
        cfg = load_config(CONFIGS / f"{case}.cfg")
        spec, horizon, dt = system_from_mapping(cfg.system), 3.0, cfg.numerics.dt
    asked = []
    value_array = Trajectory.value_array

    def spy(self, ts, comp=None):
        if sys._getframe(1).f_code is _StepGrid.fed.__code__:
            asked.append(float(np.max(ts)))
        return value_array(self, ts, comp)

    monkeypatch.setattr(Trajectory, "value_array", spy)
    with on_path(path):
        _, outcome = integrate(spec, horizon=horizon, dt=dt)
    assert outcome.diagnostics["steps"] >= 100
    assert (outcome.diagnostics["compiled_steps"] > 0) == (path == "compiled" and case != "mixture")
    assert asked == [0.0, 0.0]


@pytest.mark.parametrize("name", ["logistic_distributed", "sqrt_logistic_triangular", "exp_log_extinction"])
def test_window_runs_repeat_bit_identically(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    spec = system_from_mapping(cfg.system)
    dt = cfg.numerics.dt
    runs = [integrate(spec, horizon=3.0, dt=dt) for _ in range(2)]
    (ta, oa), (tb, ob) = runs
    for comp in (0, 1):
        assert np.array_equal(ta.step_values(comp), tb.step_values(comp))
    assert oa.final_state == ob.final_state


@pytest.mark.parametrize("path", PATHS)
def test_a_run_ends_its_steps_where_the_blocks_end_them(monkeypatch, path):
    # feeds._Ahead.rows alone forms step ends: one it adds off the grid of
    # multiples of dt splits its step, and the run stores exactly that end
    extra = 0.4567
    rows = feeds._Ahead.rows

    def split(self, steps):
        made = self.taus.size
        n = rows(self, steps)
        for r in range(made, self.taus.size, 2):  # the rows this call made
            t0, t1 = self.starts.item(r), self.taus.item(r + 1)
            if t0 < extra < t1:
                self.taus = np.concatenate((self.taus[:r], [t0 + 0.5 * (extra - t0), extra,
                                                            extra + 0.5 * (t1 - extra), t1], self.taus[r + 2 :]))
                self.starts = np.concatenate((self.starts[:r], [t0, t0, extra, extra], self.starts[r + 2 :]))
                return min(self.taus.size, 2 * steps)
        return n

    monkeypatch.setattr(feeds._Ahead, "rows", split)
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-0.3"), k2=PointMassKernel("t-0.7"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    with on_path(path):
        traj, outcome = integrate(spec, horizon=1.0, dt=0.01, converge_rtol=0.0)
    ends = [0.0] + [step_end(j, 0.01, 1.0, 1e-12) for j in range(100)]
    assert traj.step_times().tolist() == sorted(ends + [extra])
    assert outcome.diagnostics["steps"] == 101
    assert outcome.diagnostics["compiled_steps"] == (101 if path == "compiled" else 0)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kernel", [PointMassKernel("t-0.3"), UniformDensityKernel("t-0.3")])
def test_nodes_stored_while_the_arrays_grow_mid_run_are_bit_identical(monkeypatch, path, kernel):
    # a trajectory made with 16 rows grows again and again in the run, the
    # compiled loop storing through views that integrate remakes before
    # each of its calls; nodes and outcome are those of a run that never grows
    spec = spec_of("sqrt(x)+1", "x/2", k1=kernel, k2=PointMassKernel("t-0.7"), phi="2+sin(3*t)", psi="1+t^2/4")
    with on_path(path):
        want_traj, want = integrate(spec, horizon=4.0, dt=0.01, converge_rtol=0.0)
    sizes = []

    class Small(Trajectory):
        def __init__(self, phi=None, psi=None, capacity=4096):
            super().__init__(phi, psi, 16)

        def reserve(self, rows):
            super().reserve(rows)
            sizes.append(self._t.size)

    monkeypatch.setattr(integrator, "Trajectory", Small)
    with on_path(path):
        traj, outcome = integrate(spec, horizon=4.0, dt=0.01, converge_rtol=0.0)
    assert want_traj._t.size > traj.n + 1 and sorted(set(sizes)) == [16, 32, 64, 128, 256, 512]
    assert (traj.n, traj.t_front) == (want_traj.n, want_traj.t_front) == (400, 4.0)
    for got, ref in ((traj.step_times(), want_traj.step_times()), (traj._v[: traj.n + 1], want_traj._v[: traj.n + 1])):
        assert got.tobytes() == ref.tobytes()
    assert outcome == want
    assert outcome.diagnostics["compiled_steps"] == (400 if path == "compiled" else 0)


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_the_compiled_step_takes_the_committed_configs(name):
    # every accepted step but pantograph_logistic's first, whose lag t/2
    # reads inside the step; a fall-back to the checked step would show
    # nowhere else but in a slower benchmark
    cfg = load_config(CONFIGS / f"{name}.cfg")
    num = cfg.numerics
    _, outcome = integrate(system_from_mapping(cfg.system), min(num.horizon, 3.0), num.dt,
                           blowup_threshold=num.blowup_threshold, stage_ratio=num.stage_ratio,
                           converge_rtol=num.converge_rtol, window_spans=num.window_spans,
                           extinction_threshold=num.extinction_threshold)
    steps = outcome.diagnostics["steps"]
    assert steps > 0
    assert outcome.diagnostics["compiled_steps"] == steps - (name == "pantograph_logistic")


# (window_checks, window_scans) of two committed runs: every check of
# sqrt_logistic_point but its last, which passes, is refused on the window's
# end points; linear_decay reaches its horizon without a scan
WINDOW_COUNTS = {"sqrt_logistic_point": (1176, 1), "linear_decay": (619, 0)}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.cfg")))
def test_runs_stop_at_the_first_check_the_full_window_rule_passes(name, path):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    num = cfg.numerics
    spec = system_from_mapping(cfg.system)
    with on_path(path):
        traj, outcome = integrate(spec, num.horizon, num.dt, blowup_threshold=num.blowup_threshold,
                                  stage_ratio=num.stage_ratio, converge_rtol=num.converge_rtol,
                                  window_spans=num.window_spans, extinction_threshold=num.extinction_threshold)
    checks = window_checks(spec, traj, num.dt, num.converge_rtol, num.window_spans)
    passed = [n for n, ok in checks if ok]
    assert outcome.status in ("converged", "reached-horizon", "blow-up")
    assert passed == ([traj.n] if outcome.status == "converged" else [])
    diagnostics = outcome.diagnostics
    assert diagnostics["window_checks"] == len(checks)
    assert len(passed) <= diagnostics["window_scans"] <= len(checks)
    if name in WINDOW_COUNTS:
        assert (diagnostics["window_checks"], diagnostics["window_scans"]) == WINDOW_COUNTS[name]


# step values of magnitudes 1e-300 to 1e300, of either sign, zeros and NaN
STEP_VALUES = st.one_of(
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent, st.sampled_from([-1.0, 1.0]),
              st.floats(1.0, 9.99), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, math.nan]),
)


@st.composite
def settling_windows(draw):
    """The stored steps of a window, in x and y, and a tolerance.  A column
    that settles holds one drawn value and values up to one tolerance
    (relative to max(1, |value|)) from it; another may hold any step value.
    The values come in runs of equal values (ties and constant stretches)."""
    rtol = draw(st.sampled_from([1e-9, 1e-15, 1e-3, 1.0]))

    def pool():
        base = draw(STEP_VALUES)
        offsets = st.one_of(st.sampled_from([1.0, -1.0, 0.5]), st.floats(-1.0, 1.0))
        near = offsets.map(lambda d: base + d * rtol * max(1.0, abs(base)))
        values = st.one_of(st.just(base), near) if draw(st.booleans()) else st.one_of(near, STEP_VALUES)
        return draw(st.lists(values, min_size=1, max_size=4))

    xs, ys = pool(), pool()
    runs = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys), st.integers(1, 5)),
                         min_size=1, max_size=8))
    window = np.array([(x, y) for x, y, k in runs for _ in range(k)])
    return window[:, 0], window[:, 1], rtol


@given(settling_windows())
@example((np.array([1.0, 1.0 + 0.999e-9]), np.array([2.0, 2.0]), 1e-9))
@settings(max_examples=400, deadline=None)
def test_the_end_point_reject_never_refuses_a_window_the_full_rule_accepts(window):
    # max - min >= |x - x_i| for the two nodes in the window, and the
    # rounded subtraction, abs and the division by one max(1, |x|) are
    # monotone, so a window that passes has end points within rtol
    xs, ys, rtol = window
    x, y = float(xs[-1]), float(ys[-1])
    if _spread_within(xs, ys, x, y, rtol):
        assert not _ends_apart(x, y, float(xs[0]), float(ys[0]), rtol)


# -- the compiled loop: the checks it makes and the calls it does not make ---


def rendered_loop(spec, dt=0.01):
    """The ast of the compiled loop `_compile_steps` renders for spec."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    traj = Trajectory(spec.phi, spec.psi)
    traj.append(0.0, 1.0, 1.0, 0.0, 0.0)
    grid = _StepGrid(traj, dt) if spec.k1.density_lag is not None or spec.k2.density_lag is not None else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "compile", spy, raising=False)
        _compile_steps(spec, traj, grid, 1e12, 2.0, 1e-12)
    return ast.parse(sources[0]).body[0]


@pytest.mark.parametrize("kernel", [PointMassKernel("t-1"), UniformDensityKernel("t-1")])
def test_the_compiled_loop_makes_no_call_per_step(kernel):
    # f = x/2, r = 1 and no G inline without a call, so a call in the loop's
    # body outside the branch of every CHECK_EVERY-th step and the hand-off
    # to the checked step would be the loop's own: a max, abs or isfinite
    # back in the step
    run = rendered_loop(spec_of("x/2", "x/2", k1=kernel, k2=PointMassKernel("t-0.5")))
    loop = next(node for node in run.body if isinstance(node, ast.For))
    every = [node for node in loop.body if isinstance(node, ast.If) and "CHECK_EVERY" in ast.unparse(node.test)]
    assert len(every) == 1 and "check(t, x, y)" in ast.unparse(every[0])
    hand_off = [node for node in loop.body if isinstance(node, ast.If) and ast.unparse(node.test) == "hand"]
    assert len(hand_off) == 1
    assert "t1, x1, y1, dx1, dy1 = checked(item, t, x, y, dx, dy)" in map(ast.unparse, hand_off[0].body)
    calls = [ast.unparse(call) for node in loop.body if node not in every + hand_off
             for call in ast.walk(node) if isinstance(call, ast.Call)]
    assert calls == []


# zeros, subnormals, infinities, NaN, the largest magnitudes and any float
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan, 1e308, -1e308]),
    st.floats(),
)


@pytest.fixture(scope="module")
def call_free_forms():
    """m of x, y by the lines the compiled loop computes it with, and the
    loop's source."""
    run = rendered_loop(linear_half_decay())
    lines = [ast.unparse(node) for node in run.body
             if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("ax", "ay", "m")]
    namespace = {}
    exec("def largest(x, y):\n" + "".join(f"    {line}\n" for line in lines) + "    return m", namespace)
    return namespace["largest"], ast.unparse(run)


@given(x=EDGE_FLOATS, y=EDGE_FLOATS, v=EDGE_FLOATS, threshold=st.one_of(st.just(1e-12), EDGE_FLOATS))
@settings(max_examples=400, deadline=None)
def test_the_call_free_forms_decide_as_the_calls(call_free_forms, x, y, v, threshold):
    largest, source = call_free_forms
    m, want = largest(x, y), max(abs(x), abs(y))
    # bit for bit, a NaN read as NaN: abs clears the sign of a NaN and no
    # comparison can, and a NaN fails every guard whatever its sign
    assert bits(1.0 + m) == bits(1.0 + want)
    assert (m < threshold) == (want < threshold)
    assert "dx1 - dx1 == 0.0" in source and (v - v == 0.0) == math.isfinite(v)


@given(gaps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=60),
       picks=st.lists(st.tuples(st.sampled_from(["node", "between", "before"]), st.integers(0, 60)), max_size=20))
@settings(max_examples=100, deadline=None)
def test_the_window_start_search_matches_searchsorted(gaps, picks):
    # the node views of arrays that grew as the nodes came in (from 16 rows)
    traj = Trajectory(capacity=16)
    t = 0.0
    traj.append(t, 1.0, 1.0, 0.0, 0.0)
    for gap in gaps:
        t += gap
        traj.append(t, 1.0, 1.0, 0.0, 0.0)
    ts = traj.step_times()
    for kind, j in picks:
        j %= ts.size
        s = {"node": ts[j], "between": 0.5 * (ts[j] + ts[min(j + 1, ts.size - 1)]), "before": -1.0 - j}[kind]
        assert bisect_left(traj._tm, float(s), 0, traj.n + 1) == ts.searchsorted(s, side="left")


@pytest.mark.parametrize("lag", [0.1234, 0.2])
def test_each_check_compares_the_state_with_the_first_node_of_its_window(monkeypatch, lag):
    # windows of 1.234 and 2.0 start between nodes and about on one, in
    # arrays that grow again and again in the run: each check reads the
    # node searchsorted finds
    compared, ends_apart = [], integrator._ends_apart

    def spy(x, y, x_i, y_i, rtol):
        compared.append((x, y, x_i, y_i))
        return ends_apart(x, y, x_i, y_i, rtol)

    class Small(Trajectory):
        def __init__(self, phi=None, psi=None, capacity=4096):
            super().__init__(phi, psi, 16)

    monkeypatch.setattr(integrator, "_ends_apart", spy)
    monkeypatch.setattr(integrator, "Trajectory", Small)
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel(f"t-{lag!r}"), k2=PointMassKernel("t-0.071"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    traj, outcome = integrate(spec, horizon=6.0, dt=0.01)
    ts, xs, ys = traj.step_times(), traj.step_values(0), traj.step_values(1)
    want = []
    for n, _ in window_checks(spec, traj, 0.01, integrator.CONVERGE_RTOL, integrator.WINDOW_SPANS):
        i = ts.searchsorted(ts[n] - max(integrator.WINDOW_SPANS * spec.max_span(float(ts[n])), 1.0), side="left")
        want.append((xs[n], ys[n], xs[i], ys[i]))
    assert traj._t.size >= 512 and outcome.diagnostics["window_checks"] == len(compared) == len(want) > 0
    assert compared == want


@pytest.mark.parametrize("name", ["sqrt_logistic_point", "linear_decay", "pantograph_logistic"])
def test_the_compiled_loop_returns_only_when_the_run_must_decide(monkeypatch, name):
    # it checks the window itself and hands a step it cannot take inline to
    # the checked step, so a run enters it exactly once, at t = 0
    entries = loop_entries(monkeypatch)
    cfg = load_config(CONFIGS / f"{name}.cfg")
    num = cfg.numerics
    _, outcome = integrate(system_from_mapping(cfg.system), num.horizon, num.dt,
                           blowup_threshold=num.blowup_threshold, stage_ratio=num.stage_ratio,
                           converge_rtol=num.converge_rtol, window_spans=num.window_spans,
                           extinction_threshold=num.extinction_threshold)
    diagnostics = outcome.diagnostics
    assert entries == [0.0]
    assert diagnostics["steps"] - diagnostics["compiled_steps"] == (name == "pantograph_logistic")
    if name in WINDOW_COUNTS:
        assert (diagnostics["window_checks"], diagnostics["window_scans"]) == WINDOW_COUNTS[name]


# the paper's general kernel and a window whose floor lies inside the step:
# a mixture of atoms alone feeds numbers, which the loop takes inline; a
# mixture with a density and the in-step floor feed `_Sum`s, which it hands
# to the checked step
ONE_LOOP = {
    "atoms": lambda: GeneralMixtureKernel([("t-1", 0.5), ("t-2", 0.5)]),
    "atom-and-density": lambda: GeneralMixtureKernel([("t-1", 0.25)], density="0.75*2*(1-u)", density_lag="t-1"),
    "in-step-floor": lambda: UniformDensityKernel("t-0.003"),
}


def loop_entries(monkeypatch):
    """The times at which runs enter the loop `_compile_steps` renders."""
    entries, compile_steps = [], integrator._compile_steps

    def spy(*args, **kwargs):
        compiled = compile_steps(*args, **kwargs)
        if kwargs.get("checked"):
            return compiled

        def counted(*run_args):
            entries.append(run_args[3])
            return compiled(*run_args)

        return counted

    monkeypatch.setattr(integrator, "_compile_steps", spy)
    return entries


@pytest.mark.parametrize("case", ONE_LOOP)
def test_one_loop_takes_every_kernel_bit_identically(monkeypatch, case):
    kernel = ONE_LOOP[case]()
    spec = spec_of("1+x/2", "1+x/2", k1=kernel, k2=kernel, phi="5", psi="5")
    with checked_only():
        want, expected = integrate(spec, horizon=5.0, dt=0.01, converge_rtol=0.0)
    entries = loop_entries(monkeypatch)
    traj, outcome = integrate(spec, horizon=5.0, dt=0.01, converge_rtol=0.0)
    assert entries == [0.0]
    steps = outcome.diagnostics["steps"]
    assert steps == 500 and outcome.diagnostics["compiled_steps"] == (steps if case == "atoms" else 0)
    assert expected.diagnostics.pop("compiled_steps") == 0
    outcome.diagnostics.pop("compiled_steps")
    assert outcome == expected
    assert traj.step_times().tobytes() == want.step_times().tobytes()
    assert traj._v[: traj.n + 1].tobytes() == want._v[: want.n + 1].tobytes()


@pytest.mark.parametrize("case", ["atoms", "atom-and-density"])
def test_a_guard_in_a_mixture_run_reports_as_on_the_checked_step(monkeypatch, case):
    # x^2 + x from data 2 passes 1e3 before t = 5; the loop hands the step
    # whose guard fails to the checked step, which names the guard and the
    # values it compared
    kernel = ONE_LOOP[case]()
    spec = spec_of("x^2+x", "x^2+x", k1=kernel, k2=kernel, phi="2", psi="2")
    options = dict(horizon=10.0, dt=0.05, blowup_threshold=1e3, converge_rtol=0.0)
    with checked_only():
        _, expected = integrate(spec, **options)
    entries = loop_entries(monkeypatch)
    _, outcome = integrate(spec, **options)
    assert entries == [0.0] and outcome.status == expected.status == "blow-up"
    assert outcome.diagnostics["stage_guard"] == expected.diagnostics["stage_guard"] is not None
    assert outcome.diagnostics["guard_values"] == expected.diagnostics["guard_values"] is not None
    assert (outcome.blowup_time, outcome.final_state) == (expected.blowup_time, expected.final_state)
    assert outcome.diagnostics["compiled_steps"] == (outcome.diagnostics["steps"] if case == "atoms" else 0)


# state at t = 3 of the accuracy probes that read inside a step, from the
# previous scheme at step 0.02/32: the windows by a fixed 64- and 32-panel
# Simpson rule over dense history reads (that rule's own error is about
# 2.5e-9 and 4e-10), the proportional lag through the linear in-step blend
IN_STEP_PROBES = {
    "logistic_distributed": (2.357600250698009, 2.4324281378803114),
    "sqrt_logistic_triangular": (4.067023990703251, 4.133918226817993),
    "pantograph_logistic": (3.0547019838632004, 3.0547019838632004),
}


@pytest.mark.parametrize("name", sorted(IN_STEP_PROBES))
def test_in_step_reads_converge_at_fourth_order(name):
    spec = system_from_mapping(load_config(CONFIGS / f"{name}.cfg").system)

    def state(dt):
        return integrate(spec, horizon=3.0, dt=dt, converge_rtol=0.0)[1].final_state

    def gap(a, b):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1])) / max(1.0, *map(abs, b))

    fine = state(0.04 / 32)
    assert gap(fine, IN_STEP_PROBES[name]) < 3e-9  # the independent rule agrees
    coarse, mid = gap(state(0.04), fine), gap(state(0.02), fine)
    assert math.log2(coarse / mid) >= 3.5


def test_finished_run_leaves_no_reference_cycles():
    # a history kept alive by a cycle waits for the cycle collector, and
    # consecutive runs in one process then hold several histories at once
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel("t-1"), k2=PointMassKernel("t-1"))
    gc.collect()
    gc.disable()
    try:
        integrate(spec, horizon=0.5, dt=5e-3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- scalar lookups and the point stage view ---------------------------------


def arithmetic_history():
    """History stored on [0, 2] in steps of STEP.  The initial data use
    arithmetic only, so their scalar and array evaluations agree bit for bit."""
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-0.3"), k2=PointMassKernel("t-0.7"),
                   phi="2+t/3", psi="1+t*t/4")
    traj, _ = integrate(spec, horizon=2.0, dt=STEP)
    return traj


def bits(v):
    return float(v).hex()


LOOKUP_TIMES = st.one_of(
    st.floats(min_value=-3.0, max_value=0.0),  # initial data, 0 included
    st.integers(min_value=0, max_value=40).map(lambda i: ("end", i)),  # segment ends
    st.just(("front",)),
    st.floats(min_value=0.0, max_value=2.0),
)


def lookup_time(traj, drawn):
    if isinstance(drawn, float):
        return drawn
    if drawn[0] == "front":
        return traj.t_front
    ends = traj.step_times()
    if drawn[0] == "mid":
        return float(ends[drawn[1]] + 0.5 * (ends[drawn[1] + 1] - ends[drawn[1]]))
    return float(ends[drawn[1] % len(ends)])


ARRAY_TIMES = st.one_of(
    LOOKUP_TIMES,
    st.integers(min_value=0, max_value=39).map(lambda i: ("mid", i)),  # segment midpoints
    st.floats(min_value=0.0, max_value=STEP, exclude_min=True),  # before node 1
    st.floats(min_value=-3.0, max_value=-1e-300),  # negative times only
)


class TestScalarLookup:
    @given(times=st.lists(LOOKUP_TIMES, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_scalar_and_pair_match_array_bit_for_bit(self, times):
        # several lookups on one history, in any order
        traj = arithmetic_history()
        for drawn in times:
            t = lookup_time(traj, drawn)
            both = traj.value_array(np.array([t]))[:, 0]
            pair = traj.value_scalar(t)
            assert [bits(v) for v in pair] == [bits(v) for v in both]
            for comp in (0, 1):
                v = traj.value_scalar(t, comp)
                assert type(v) is float
                assert bits(v) == bits(both[comp])

    @given(times=st.lists(ARRAY_TIMES, min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_array_over_many_times_matches_scalar_at_each_bit_for_bit(self, times):
        # one value_array over many times at once, as a block reads stored
        # history, with and without initial data among them
        traj = arithmetic_history()
        ts = np.array([lookup_time(traj, drawn) for drawn in times])
        for part in (ts, ts[ts > 0.0]):
            for comp in (None, 0, 1):
                got = traj.value_array(part, comp)
                assert got.shape == ((2,) if comp is None else ()) + part.shape
                for t, v in zip(part.tolist(), (got.T if comp is None else got).tolist()):
                    want = traj.value_scalar(t, comp)
                    assert [bits(u) for u in np.ravel(v)] == [bits(u) for u in np.ravel(want)]

def count_scalar_lookups(monkeypatch):
    calls = []
    original = Trajectory.value_scalar

    def counted(self, t, comp=None):
        calls.append(comp)
        return original(self, t, comp)

    monkeypatch.setattr(Trajectory, "value_scalar", counted)
    return calls


def count_data_reads(monkeypatch):
    """The number of times in each pass over initial data."""
    sizes = []
    original = InitialFunction.evaluate_each

    def counted(self, ts):
        sizes.append(len(ts))
        return original(self, ts)

    monkeypatch.setattr(InitialFunction, "evaluate_each", counted)
    return sizes


def point_system(lag1, lag2):
    return system_from_mapping({
        "f1": "1+x/2", "f2": "x/2", "r1": "1", "r2": "1",
        "kernel1": f'point lag="{lag1}"', "kernel2": f'point lag="{lag2}"',
        "phi": "2+t/3", "psi": "1+t*t/4",
    })


@pytest.mark.parametrize(
    "lag1, lag2, arrays, late, initial",
    [
        # blocks of 8, 16, 32 and 64 steps from t = 0, then one to the horizon
        # (30 steps); the lagged time t - 1 passes 0 at step 100, so the
        # 64-step block reads 40 stored times and the last one 60.  Each
        # stage time up to t = 1 reads the initial data once per component,
        # and so does the derivative at t = 0, one stage time, in one pass
        # per block
        ("t-1", "t-1", [40, 60], 0, 2 * (1 + 2 * 100)),
        # off the grid of stage times, so rounding cannot move a lagged time
        # across 0.  From 8 steps on a block ends where t - 0.3025 reaches
        # past its start: blocks of 8, 16, 30, 30, 30, 30 and 6 steps; the
        # last reads its 24 stored times in one lookup too
        ("t-0.3025", "t-0.7025", [48, 88, 120, 120, 24], 0, 2 + 2 * 30 + 2 * 70),
        ("t", "t", [], 0, 0),  # zero lag reads the stage state: nothing to look up
        # the first step reads inside itself; the first block's other 7 steps
        # read the block's own steps, each lagged time once that step is
        # stored; from step 8 on blocks of 8, 16, 32, 64 and 22 steps end
        # before their own steps' times
        ("t/2", "t/2", [16, 32, 64, 128, 44], 2 * 7, 0),
    ],
    ids=["shared-lag", "two-lags", "zero-lag", "proportional"],
)
def test_one_array_lookup_per_point_block(monkeypatch, lag1, lag2, arrays, late, initial):
    spec = point_system(lag1, lag2)
    scalar = count_scalar_lookups(monkeypatch)
    array = count_array_lookups(monkeypatch)
    data = count_data_reads(monkeypatch)
    _, outcome = integrate(spec, horizon=1.5, dt=0.01)
    assert outcome.status == "reached-horizon" and outcome.diagnostics["steps"] == 150
    assert array == arrays  # one value_array per block that reads stored history
    assert scalar == [None] * late  # (x, y) reads one by one
    assert sum(data) == initial  # initial data, one component at a time


def test_initial_data_are_read_only_for_the_component_fed_from_them():
    # kernel2 feeds y from x back to t - 2, where psi is undefined; only phi
    # is read there, by a point kernel or a density window
    for kernel in (PointMassKernel, UniformDensityKernel, TriangularDensityKernel):
        spec = spec_of("1+x/2", "x/2", k1=kernel("t-0.5"), k2=kernel("t-2"), phi="1+t/4", psi="sqrt(t+1.5)")
        _, outcome = integrate(spec, horizon=3.0, dt=0.01)
        assert (outcome.status, outcome.t_final) == ("reached-horizon", 3.0)
        shared = kernel("t-2")
        with pytest.raises(IntegrationError, match=r"right-hand side failed at t=0: sqrt\(t \+ 1.5\)"):
            integrate(spec_of("1+x/2", "x/2", k1=shared, k2=shared, phi="1+t/4", psi="sqrt(t+1.5)"),
                      horizon=3.0, dt=0.01)


ORACLE_BODIES = st.sampled_from(["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x"])


@st.composite
def point_runs(draw):
    """A step, two point lags (possibly one shared kernel), two production
    bodies and G on or off."""
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    lags = st.one_of(
        st.floats(min_value=0.0, max_value=3 * dt).map(lambda c: f"t-{c!r}"),  # about one step
        st.floats(min_value=0.0, max_value=2.0).map(lambda c: f"t-{c!r}"),
        st.sampled_from(["t/2", "t-1-t^2/10"]),
    )
    lag1 = draw(lags)
    lag2 = None if draw(st.booleans()) else draw(lags)  # None: kernel 1 serves both
    return dt, lag1, lag2, draw(ORACLE_BODIES), draw(ORACLE_BODIES), draw(st.sampled_from([None, "x"]))


def steps_reading_inside(traj, lags, stage=False):
    """The accepted steps at one of whose stage times a lag reads inside the
    step, before the stage time, or with stage also at it: the feeds the
    compiled step leaves to the checked step (with stage, a mixture's, whose
    sum with f of the stage state is no number)."""
    ts = traj.step_times().tolist()
    lags = [parse(lag, var="t") for lag in lags]
    return sum(
        any(t0 < lag.evaluate(t) and (stage or lag.evaluate(t) < t) for lag in lags
            for t in (t0 + 0.5 * (t1 - t0), t1))
        for t0, t1 in zip(ts, ts[1:]))


@given(point_runs())
@settings(max_examples=60, deadline=None)
def test_point_kernel_runs_bit_identically_to_a_one_atom_mixture(run):
    # the mixture weighs f(u(lag(t))) by 1 at every stage, the point kernel
    # hands it over as it is; the compiled step takes the point kernel's
    # steps but those that read inside themselves, and the mixture's but
    # those that also read the stage state: a mixture of numbers is a number
    dt, lag1, lag2, f1, f2, g = run

    def result(kernel):
        k1 = kernel(lag1)
        k2 = k1 if lag2 is None else kernel(lag2)
        spec = spec_of(f1, f2, k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4", g1=g, g2=g)
        try:
            traj, outcome = integrate(spec, horizon=3.0, dt=dt)
        except IntegrationError as e:
            return str(e), None
        nodes = [traj.step_times().tobytes()] + [traj.step_values(c).tobytes() for c in range(4)]
        diagnostics = dict(outcome.diagnostics)
        compiled = diagnostics.pop("compiled_steps")
        lags = [lag1] if lag2 is None else [lag1, lag2]
        counts = (compiled, steps_reading_inside(traj, lags), steps_reading_inside(traj, lags, stage=True))
        return (nodes, outcome.status, [bits(v) for v in outcome.final_state], diagnostics), counts

    point, point_counts = result(PointMassKernel)
    mixture, mixture_counts = result(lambda lag: GeneralMixtureKernel([(lag, 1.0)]))
    assert point == mixture
    if point_counts is not None:
        compiled, inside, stage = point_counts
        assert compiled == point[3]["steps"] - inside
        assert mixture_counts[0] == point[3]["steps"] - stage


class CountedLag:
    """A lag expression that counts the values it evaluates, one at a time
    or in a pass."""

    def __init__(self, lag):
        self.lag = lag
        self.calls = 0

    def evaluate(self, t):
        self.calls += 1
        return self.lag.evaluate(t)

    __call__ = evaluate

    def evaluate_each(self, ts):
        self.calls += len(ts)
        return self.lag.evaluate_each(ts)


@pytest.mark.parametrize("lag", ["t-0.013", "t-0.007", "t", "t-1", "t/2"])
def test_point_lags_are_evaluated_about_once_per_stage_time(lag):
    # a block evaluates the lag at the stage times it serves and at the one
    # that ends it, a step no block serves at its own stage times, and a
    # block that cannot start is tried again after a doubling wait:
    # a lag just over or under one step (0.013, 0.007 at dt 0.01) costs
    # about as many lag evaluations as a long one.  With converge_rtol=0
    # there is no convergence check, whose window would evaluate them too.
    kernel = PointMassKernel(lag)
    kernel.lag = counted = CountedLag(kernel.lag)
    _, outcome = integrate(spec_of("2*tanh(x)", "2*tanh(x)", k1=kernel, k2=kernel), horizon=20.0,
                           dt=0.01, converge_rtol=0.0)
    steps = outcome.diagnostics["steps"]
    assert steps == 2000
    assert 2 * steps < counted.calls <= 2.05 * steps


def test_a_lag_ahead_of_t_raises_past_the_validation_slack():
    # within validate_kernel's 1e-12 a lag ahead of t reads the stage state,
    # as a zero lag does; further ahead it raises at the first stage time
    # it runs ahead of, a mixture's atom too, naming its value and t
    runs = [integrate(spec_of("1+x/2", "x/2", k1=kernel, k2=kernel), horizon=1.0, dt=0.01)[0]
            for kernel in (PointMassKernel("t"), PointMassKernel("t + 5e-13"))]
    assert np.array_equal(*(traj._v[: traj.n + 1] for traj in runs))
    ahead = "t + max(0, t - 0.5)"
    for kernel in (PointMassKernel(ahead), GeneralMixtureKernel([("t - 0.1", 0.5), (ahead, 0.5)])):
        with pytest.raises(IntegrationError, match=r"near t=0.5: advanced lag 0.51\d* exceeds t=0.505"):
            integrate(spec_of("1+x/2", "x/2", k1=kernel, k2=PointMassKernel("t")), horizon=1.0, dt=0.01)
    with pytest.raises(IntegrationError, match=r"at t=0: advanced lag 1e-09 exceeds t=0.0"):
        integrate(spec_of("1+x/2", "x/2", k1=PointMassKernel("t + 1e-9")), horizon=1.0, dt=0.01)


POINT_LAGS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=STEP),  # inside the step, or just behind it
    st.floats(min_value=0.0, max_value=3.0),  # stored history and initial data
)


class NoData:
    """Initial data that cover no time: every read raises, as it would
    without an initial function."""

    def evaluate_each(self, ts):
        return None

    def __call__(self, t):
        raise HistoryUnderflowError(f"no initial data cover t={t!r}")


class TestPointStageView:
    @given(
        lag=POINT_LAGS,
        frac=st.floats(min_value=0.01, max_value=1.0),
        bodies=st.lists(st.sampled_from(["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x"]), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_feedback_matches_direct_read(self, lag, frac, bodies, seed):
        # bit for bit: stored history, initial data, the in-step quadratic
        # and the stage state, over steps the horizon may clamp
        traj, _ = stored_history()
        kernel = PointMassKernel(f"t-{lag!r}")
        spec = spec_of(bodies[0], bodies[-1], k1=kernel, k2=kernel)
        drive(spec, traj, STEP, 3, random.Random(seed), states=3, horizon=traj.t_front + (2.0 + frac) * STEP)

    def test_stored_read_is_shared_by_stages_and_components(self, monkeypatch):
        # a block of one step: one lookup of (x, y) at both stage times serves
        # both components, and f runs once per stage time and component
        # however often the stages read the feeds
        traj, state = stored_history()
        kernel = PointMassKernel("t-1")
        calls = count_array_lookups(monkeypatch)
        evals = []
        f = Watched("x*x", evals.append)
        spec = spec_of("x", "x", k1=kernel, k2=kernel)
        spec.f1 = spec.f2 = f
        items = block_feeds(spec, traj, None, STEP, traj.t_front + STEP, 1e-12, Counter())
        next(items)
        del calls[:], evals[:]
        item = next(items)
        assert calls == [2] and len(evals) == 4
        for stage in ((1.5, 2.5), (7.0, 8.0)):
            for slot in range(4):
                assert window_feed(f, item[1 + slot], stage[slot % 2], 0.0, 0.0) == item[1 + slot]
        assert len(calls) == 1 and len(evals) == 4

    def test_in_step_read_blends_on_every_call(self):
        # a zero lag reads the stage state, a lag inside the step the
        # quadratic toward it, at every read
        traj, state = stored_history()
        f = pf("x")
        for lag in ("t", "t-0.01"):
            kernel = PointMassKernel(lag)
            _, item = first_items(spec_of("x", "x", k1=kernel, k2=kernel), traj)
            t = step_end(traj.n, STEP, 3.0, 3e-12)
            for x in (1.5, 7.0):
                stage = stage_at(traj, t, (x, 0.0))
                assert window_feed(f, item[4], x, state[0], stage.slope[0]) == stage_read(stage, t - (lag != "t") * 0.01, 0)

    def test_lookup_error_surfaces_at_the_stage_time_that_reads_it(self):
        stored, _ = stored_history()
        traj = Trajectory(NoData(), NoData())  # the same nodes, with initial data that cover nothing
        for t, row in zip(stored.step_times().tolist(), stored._v[: stored.n + 1].tolist()):
            traj.append(t, *row)
        # at the midpoint the lag reads stored history; at the step end it
        # reads before t = 0, where no initial function covers it
        front = traj.t_front
        kernel = PointMassKernel(f"t - {front!r} * (t - {front!r}) / {0.5 * STEP!r}")
        spec = spec_of("x", "x", k1=kernel, k2=PointMassKernel("t-1"))
        _, (_, xm, ym, xe, ye) = first_items(spec, traj)
        window_feed(spec.f1, xm, 1.0, 1.0, 0.0)
        with pytest.raises(HistoryUnderflowError):
            window_feed(spec.f1, xe, 1.0, 1.0, 0.0)
        drive(spec, traj, STEP, 1, random.Random(0))  # and as the definition reads it


class TestPointLagStops:
    # what each guard below compared, for x and y alike (see guard_values)
    GUARD_VALUES = {
        "stage-1": (5.155893161464945, 0.5035610711295253, 11.808225251800366),
        "stage-2": (51.13808999754686, 15.471021305079981, 88.80515869001373),
        "stage-3": (5.248634720456737, 0.5157103721744206, 11.465848696564633),
        "stage-4": (5642.815841386664, 79283.45712490736, 43178.731283468085),
        "state-threshold": (99.1556951481846, None, None),
    }

    @pytest.mark.parametrize(
        "f, v, dt, threshold, ratio, guard, t_stop, x_stop",
        [
            ("x^2+x", "0.5", 0.05, 5.0, 2.0, "stage-1", 2.8000000000000003, 4.904112625900183),
            ("x^2+x", "1", 0.05, 50.0, 2.0, "stage-2", 2.0, 43.40257934500686),
            ("x^2+x", "1", 0.05, 5.0, 2.0, "stage-3", 1.35, 4.7329243482823165),
            ("exp(x)", "0.3", 0.05, 1e12, 20.0, "stage-4", 2.1, 358.82276069556735),
            ("exp(x)", "0.5", 0.3, 20.0, 20.0, "state-threshold", 1.5, 4.791867306739396),
        ],
    )
    def test_each_guard_names_itself_with_a_stored_lag(self, f, v, dt, threshold, ratio, guard, t_stop, x_stop):
        # on both paths; at dt 0.3 the lag reads inside the step, which the
        # compiled step leaves to the checked step
        k = PointMassKernel("t-0.2")
        for path in PATHS:
            with on_path(path):
                _, outcome = integrate(spec_of(f, f, k1=k, k2=k, phi=v, psi=v), horizon=3.0, dt=dt,
                                       blowup_threshold=threshold, stage_ratio=ratio)
            assert (outcome.status, outcome.diagnostics["stage_guard"]) == ("blow-up", guard)
            assert outcome.diagnostics["guard_values"] == guard_values(threshold, *self.GUARD_VALUES[guard])
            assert outcome.blowup_time == outcome.t_final == t_stop
            assert outcome.final_state == (x_stop, x_stop)
            compiled = outcome.diagnostics["steps"] if path == "compiled" and dt < 0.2 else 0
            assert outcome.diagnostics["compiled_steps"] == compiled

    def test_domain_error_at_a_large_state_is_a_blow_up(self):
        f = "x^2+x+ln(2e6-x)"
        k = PointMassKernel("t-0.2")
        for path in PATHS:
            with on_path(path):
                _, outcome = integrate(spec_of(f, f, k1=k, k2=k, phi="0.5", psi="0.5"), horizon=10.0, dt=0.01)
            assert outcome.status == "blow-up" and outcome.t_final == 1.74
            assert outcome.diagnostics["stage_guard"] == (
                "domain-error:x^2.0 + x + ln(2000000.0 - x) at 2335488.544829695: math domain error"
            )
            assert outcome.diagnostics["guard_values"] is None  # no named guard fired
            assert outcome.diagnostics["compiled_steps"] == (174 if path == "compiled" else 0)

    @pytest.mark.parametrize("lag, near", [("t", "0.6900000000000001"), ("t-0.2", "1.32"), ("t/2", "2.96")])
    def test_domain_error_at_a_small_state_fails(self, lag, near):
        f = "x^2+x+sqrt(5-x)"
        k = PointMassKernel(lag)
        message = rf"right-hand side failed near t={near}: .*math domain error"
        for path in PATHS:
            with on_path(path), pytest.raises(IntegrationError, match=message):
                integrate(spec_of(f, f, k1=k, k2=k, phi="0.5", psi="0.5"), horizon=10.0, dt=0.01)

    def test_turning_lag_reads_the_whole_run(self):
        # the lagged time t - 1 - t^2/10 turns back for t > 5 and reaches
        # ever further into the past (1.4 at t = 6, -3.4 at t = 12): the run
        # keeps its whole history, reaches the horizon, and its end state is
        # 3.8e-9 from a run at dt/4
        k = PointMassKernel("t-1-t^2/10")
        spec = spec_of("x/2", "x/2", k1=k, k2=k)
        _, coarse = integrate(spec, horizon=12.0, dt=0.01)
        _, fine = integrate(spec, horizon=12.0, dt=0.0025)
        assert (coarse.status, coarse.t_final) == ("reached-horizon", 12.0)
        assert max(abs(a - b) for a, b in zip(coarse.final_state, fine.final_state)) < 1e-8


# -- the compiled step against the checked step --------------------------------

COMPILED_BODIES = ["x", "1+x/2", "2*tanh(x)", "x^2+x", "exp(x)", "sqrt(x-0.4)+1", "ln(x)+2", "x^2+x+ln(40-x)"]


@st.composite
def compiled_runs(draw):
    """A system of point, window or mixture kernels, possibly one of each,
    with production functions, G and rates in t that may leave their domain
    or blow up, and blow-up guards that may fire early."""
    dt = draw(st.sampled_from([0.02, 0.05, 0.1]))
    def lags(low):
        return st.one_of(
            st.floats(min_value=low, max_value=3 * dt).map(lambda c: f"t-{c!r}"),  # in the step or the block's
            st.floats(min_value=low, max_value=2.5).map(lambda c: f"t-{c!r}"),  # stored, or initial data
            st.sampled_from(["t/2-0.5", "t-1-t^2/10"] + ["t", "t/2"] * (low == 0.0)),
        )

    def kernel():
        kind = draw(st.sampled_from(["point", "uniform", "triangular", "mixture"]))
        if kind == "point":
            return PointMassKernel(draw(lags(0.0)))
        if kind == "uniform":
            return UniformDensityKernel(draw(lags(1e-3)))
        if kind == "triangular":
            return TriangularDensityKernel(draw(lags(1e-3)))
        return GeneralMixtureKernel([(draw(lags(0.0)), 0.5)], density="1", density_lag=f"t-{0.5 + dt!r}")

    k1 = kernel()
    k2 = k1 if draw(st.booleans()) else kernel()
    spec = spec_of(draw(st.sampled_from(COMPILED_BODIES)), draw(st.sampled_from(COMPILED_BODIES)),
                   r1=draw(st.sampled_from(["1", "2", "1+sin(t)", "exp(-t/4)", "sqrt(2.5-t)"])),
                   r2=draw(st.sampled_from(["1", "ln(t+0.5)+1", "1/(t+0.2)"])), k1=k1, k2=k2,
                   phi=draw(st.sampled_from(["1", "0.5+t/4", "2+sin(3*t)"])), psi=draw(st.sampled_from(["1", "3+t"])),
                   g1=draw(st.sampled_from([None, "x", "sqrt(x)"])), g2=draw(st.sampled_from([None, "x"])))
    # a horizon off the step grid clamps the last step
    options = dict(horizon=draw(st.sampled_from([3.0, 2.4321])), blowup_threshold=draw(st.sampled_from([1e12, 50.0])),
                   stage_ratio=draw(st.sampled_from([2.0, 20.0])))
    return spec, dt, options


@given(compiled_runs())
@settings(max_examples=120, deadline=None)
def test_compiled_step_runs_bit_identically_to_the_generic_loop(run):
    # node bytes, outcome, guard, guard values and error text; the checked
    # step takes every step of the "generic" path
    spec, dt, options = run

    def result(path):
        try:
            with on_path(path):
                traj, outcome = integrate(spec, dt=dt, **options)
        except Exception as e:  # noqa: BLE001 - the type and text are compared
            return type(e).__name__, str(e)
        diagnostics = dict(outcome.diagnostics)
        if path == "generic":
            assert diagnostics["compiled_steps"] == 0
        del diagnostics["compiled_steps"]
        return (traj._t[: traj.n + 1].tobytes(), traj._v[: traj.n + 1].tobytes(), outcome.status,
                [bits(v) for v in outcome.final_state], outcome.t_final, outcome.blowup_time,
                outcome.converged_point, outcome.extinct_time, diagnostics)

    assert result("compiled") == result("generic")


def test_a_checked_step_inside_a_block_carries_the_window_sums(monkeypatch):
    # uniform t - 1 feeds x through a block's shared running sums; the point
    # lag t - 10*(t - 2)^2 of y reads inside the step near t = 2, so the
    # checked step takes steps 196 to 202 in the middle of the block of steps
    # 188 to 211, and the compiled step resumes after them.  The later rows
    # of the block read sums that hold the nodes the checked step stored: the
    # nodes are those of the generic path, bit for bit
    spec = spec_of("sqrt(x)+2", "x/2", k1=UniformDensityKernel("t-1"), k2=PointMassKernel("t-10*(t-2)^2"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    served, checked = [], []
    block, compile_steps = feeds._block, integrator._compile_steps

    def block_spy(*args):
        built = block(*args)
        served.append(built[1])
        return built

    def compile_spy(*args, **kwargs):
        compiled = compile_steps(*args, **kwargs)
        if not kwargs.get("checked"):
            return compiled
        step, store = compiled

        def counted(item, t, x, y, dx, dy):
            checked.append(args[1].n)  # the steps the trajectory holds
            return step(item, t, x, y, dx, dy)

        return counted, store

    monkeypatch.setattr(feeds, "_block", block_spy)
    monkeypatch.setattr(integrator, "_compile_steps", compile_spy)
    traj, outcome = integrate(spec, horizon=3.0, dt=0.01)
    starts = list(itertools.accumulate(served[1:], initial=0))
    assert checked == list(range(196, 203)) and 188 in starts and 212 in starts and not set(starts) & set(checked)
    assert outcome.diagnostics["compiled_steps"] == 300 - len(checked)
    with checked_only():
        generic, _ = integrate(spec, horizon=3.0, dt=0.01)
    assert traj._v[: traj.n + 1].tobytes() == generic._v[: generic.n + 1].tobytes()


@pytest.mark.parametrize("name, value", [("horizon", math.nan), ("horizon", math.inf), ("horizon", -1.0),
                                         ("dt", math.nan), ("dt", math.inf), ("dt", 0.0)])
def test_non_finite_or_non_positive_horizon_and_dt_are_rejected(name, value):
    args = {"horizon": 1.0, "dt": 0.01, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {value!r}$"):
        integrate(linear_half_decay(), **args)
