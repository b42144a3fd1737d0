import gc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay.config import load_config, system_from_mapping
from coopdelay.dynamics import InitialFunction, SystemSpec
from coopdelay.expr import parse
from coopdelay.functions import Modulation, ProductionFunction
from coopdelay.integrator import (
    IntegrationError,
    Trajectory,
    _StageHistory,
    default_dt,
    detect_nonoscillation_violation,
    integrate,
)
from coopdelay.kernels import (
    HistoryUnderflowError,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
)


def pf(text):
    return ProductionFunction.from_expression(text)


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
        g1=Modulation.from_expression(g1) if g1 else None,
        g2=Modulation.from_expression(g2) if g2 else None,
    )


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
            x, y = traj.value(float(t))
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
        assert errs[0] / errs[1] >= 8.0

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
            x, _ = traj.value(float(t))
            assert abs(x - 1.0 / (3.0 - t)) <= 1e-4

    def test_positive_history_stays_positive(self):
        traj, _ = integrate(quadratic_blowup(), horizon=4.0, dt=1e-4)
        assert np.all(traj.step_values(0) > 0.0)
        assert np.all(traj.step_values(1) > 0.0)

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
        _, outcome = integrate(spec_of(f, f, phi="0.5", psi="0.5"), horizon=3.0, dt=dt,
                               blowup_threshold=threshold, stage_ratio=ratio)
        assert (outcome.status, outcome.diagnostics["stage_guard"]) == ("blow-up", guard)
        assert outcome.blowup_time == outcome.t_final == pytest.approx(t_stop, abs=1e-12)


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
        assert traj.value(0.0) == (3.0, 5.0)
        assert traj.value(-7.5) == (3.0, 5.0)

    def test_segment_endpoint_exact(self):
        traj, _ = integrate(linear_half_decay(), horizon=1.0, dt=1e-2)
        i = traj.n // 2
        t_end = traj._t1[i]
        assert traj.value_scalar(t_end, 0) == traj._x1[i]
        assert traj.value_scalar(t_end, 1) == traj._y1[i]

    def test_mid_segment_accuracy(self):
        traj, _ = integrate(linear_half_decay(), horizon=10.0, dt=1e-3)
        for t in (0.1234, 1.00055, 7.77717):
            x, _ = traj.value(t)
            assert abs(x - math.exp(-t / 2.0)) <= 1e-6

    def test_beyond_front_rejected(self):
        traj, _ = integrate(linear_half_decay(), horizon=1.0, dt=1e-2)
        with pytest.raises(ValueError):
            traj.value(1.5)

    def test_vector_scalar_agree(self):
        traj, _ = integrate(linear_half_decay(), horizon=2.0, dt=1e-2)
        ts = np.array([-1.0, 0.0, 0.005, 0.5, 1.995, 2.0])
        vx = traj.value_array(ts, 0)
        for t, v in zip(ts, vx):
            assert v == traj.value_scalar(float(t), 0)


class TestHistoryBookkeeping:
    def test_underflow_without_initial_functions(self):
        traj = Trajectory(phi=None, psi=None)
        traj.append_segment(0.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(HistoryUnderflowError):
            traj.value_scalar(-0.5, 0)

    def test_trim_keeps_recent_window(self):
        traj, _ = integrate(linear_half_decay(), horizon=2.0, dt=1e-2)
        removed = traj.trim_before(1.0)
        assert removed > 0
        assert traj.value_scalar(1.5, 0) == pytest.approx(math.exp(-0.75), abs=1e-6)
        with pytest.raises(HistoryUnderflowError):
            traj.value_scalar(0.5, 0)

    def test_trim_during_integration(self):
        spec = spec_of(
            "x/2", "x/2", k1=PointMassKernel("t-0.5"), k2=PointMassKernel("t-0.5")
        )
        traj, outcome = integrate(spec, horizon=5.0, dt=1e-2, trim_history=True)
        assert outcome.status == "reached-horizon"
        assert traj.n < 500

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
        traj.append_segment(0.0, 1.0, 5.0, 4.5, 0.0, 0.0, 5.0, 4.5, 0.0, 0.0)
        traj.append_segment(1.0, 2.0, 4.5, 3.5, 0.0, 0.0, 4.5, 4.2, 0.0, 0.0)
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
    _, outcome = integrate(spec, horizon=60.0, dt=5e-3, n_quad=32)
    assert outcome.status in ("converged", "reached-horizon")
    assert outcome.final_state[0] == pytest.approx(4.0, abs=1e-3)
    assert outcome.final_state[1] == pytest.approx(4.0, abs=1e-3)


def test_point_lag_final_state_is_plain_float():
    spec = spec_of("sqrt(x)+2", "x", k1=PointMassKernel("t-1"), k2=PointMassKernel("t-1"),
                   phi="5", psi="5", g1="x", g2="x")
    _, outcome = integrate(spec, horizon=3.0, dt=1e-2)
    assert [type(v) for v in outcome.final_state] == [float, float]


# -- per-step reuse of plans and stored lookups in the stage view -----------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STEP = 0.05


def stored_history():
    """History stored on [0, 2] in steps of STEP, with non-constant initial data."""
    spec = spec_of("1+x/2", "x/2", k1=PointMassKernel("t-0.3"), k2=PointMassKernel("t-0.7"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    traj, outcome = integrate(spec, horizon=2.0, dt=STEP)
    return traj, outcome.final_state


def stage_view(traj, state, t1):
    """The view at the start of the step [front, t1] from state."""
    view = _StageHistory(traj)
    view.set_step(traj.t_front, t1, *state)
    return view


def blended(nodes, view, comp):
    """The in-step linear blend, one node at a time."""
    out = []
    for s in nodes:
        w = min(max((s - view.t0) / (view.t_stage - view.t0), 0.0), 1.0)
        out.append((1.0 - w) * view.start[comp] + w * view.stage[comp])
    return np.array(out)


def count_array_lookups(monkeypatch):
    calls = []
    original = Trajectory.value_array

    def counted(self, ts, comp=None):
        calls.append(np.size(ts))
        return original(self, ts, comp)

    monkeypatch.setattr(Trajectory, "value_array", counted)
    return calls


def counted_production(text):
    """A production function that records the size of each array evaluation."""
    e = parse(text)
    sizes = []

    def array_fn(vs):
        sizes.append(np.size(vs))
        return e.evaluate_array(vs)

    return ProductionFunction(e.evaluate, array_fn), sizes


WINDOWS = st.builds(
    lambda lag, triangular: (TriangularDensityKernel if triangular else UniformDensityKernel)(f"t-{lag!r}"),
    st.floats(min_value=2.1, max_value=4.0),
    st.booleans(),
)


class TestStageView:
    @given(
        kernel=WINDOWS,
        frac=st.floats(min_value=0.01, max_value=1.0),
        n_quad=st.integers(min_value=2, max_value=40),
        stage=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookups_match_stored_history_and_blend(self, kernel, frac, n_quad, stage):
        traj, state = stored_history()
        front = traj.t_front
        view = stage_view(traj, state, front + frac * STEP)
        win = view.window(kernel, n_quad)
        for slot, t in enumerate(view.times):
            view.set_stage(t, *stage)
            plan = win.plans[slot]
            for got, want in zip(plan, kernel.plan(t, n_quad)):
                assert np.array_equal(got, want)
            nodes = plan.nodes
            assert nodes[0] < 0.0 < front < nodes[-1]  # straddles 0 and the front
            k = int(np.searchsorted(nodes, front, side="right"))
            assert win.split[slot] == k
            wd = plan.weights[k:] * plan.density[k:]
            for comp in (0, 1):
                assert np.array_equal(win.stored[slot][comp], traj.value_array(nodes[:k], comp))
                tail = [w0 * view.start[comp] + w1 * view.stage[comp] for _, w0, w1 in win.tails[slot]]
                assert np.array_equal(tail, blended(nodes[k:], view, comp))
            assert np.array_equal([w for w, _, _ in win.tails[slot]], wd)

    @given(
        kernel=WINDOWS,
        frac=st.floats(min_value=0.01, max_value=1.0),
        n_quad=st.integers(min_value=2, max_value=40),
        stage=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
        body=st.sampled_from(["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x", "exp(-x)"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_feedback_matches_full_simpson_dot(self, kernel, frac, n_quad, stage, body):
        traj, state = stored_history()
        front = traj.t_front
        f = pf(body)
        view = stage_view(traj, state, front + frac * STEP)
        hist = view.components()
        eps = np.finfo(float).eps
        for t in view.times:
            view.set_stage(t, *stage)
            plan = kernel.plan(t, n_quad)
            k = int(np.searchsorted(plan.nodes, front, side="right"))
            for comp, component in enumerate(hist):
                u = np.concatenate((traj.value_array(plan.nodes[:k], comp),
                                    blended(plan.nodes[k:], view, comp)))
                terms = plan.weights * f.eval_array(u) * plan.density
                got = component.feedback(kernel, f, t, n_quad)
                assert abs(got - float(np.sum(terms))) <= 64 * eps * float(np.sum(np.abs(terms)))

    def test_lookup_after_append_sees_new_segment(self):
        traj, state = stored_history()
        front = traj.t_front
        kernel = UniformDensityKernel("t-1")
        t1 = front + STEP
        view = stage_view(traj, state, t1)
        view.set_stage(t1, 9.0, 9.0)
        win = view.window(kernel, 16)
        before = [w0 * view.start[0] + w1 * view.stage[0] for _, w0, w1 in win.tails[1]]
        traj.append_segment(front, t1, state[0], 3.0, 0.0, 0.0, state[1], 4.0, 0.0, 0.0)
        view.set_step(t1, t1, 3.0, 4.0)  # the next step's first stage, at the same time
        view.set_stage(t1, 3.0, 4.0)
        win = view.window(kernel, 16)
        plan, after = win.plans[1], win.stored[1][0]
        assert win.tails[1] == []
        assert np.array_equal(after, traj.value_array(plan.nodes, 0))
        assert after[-1] == 3.0 and before[-1] == 9.0

    def test_same_time_stages_share_stored_part(self, monkeypatch):
        traj, state = stored_history()
        kernel = TriangularDensityKernel("t-1")
        view = stage_view(traj, state, traj.t_front + STEP)
        x_hist, y_hist = view.components()
        f, evals = counted_production("x^2+x")
        calls = count_array_lookups(monkeypatch)
        feeds = {}
        for slot, t in enumerate(view.times):
            for stage in ((1.5, 2.5), (7.0, 8.0)):
                view.set_stage(t, *stage)
                feeds[slot, stage] = (x_hist.feedback(kernel, f, t, 64), y_hist.feedback(kernel, f, t, 64))
        win = view.window(kernel, 64)
        assert calls == [sum(win.split)]  # one lookup serves x and y at both stage times
        assert evals == [win.split[0]] * 2 + [win.split[1]] * 2  # once per slot and component
        for slot in (0, 1):
            assert win.tails[slot]  # several nodes fall inside the step
            for a, b in zip(feeds[slot, (1.5, 2.5)], feeds[slot, (7.0, 8.0)]):
                assert a != b  # the shared stored sum, different tails
        view.set_step(traj.t_front, traj.t_front + STEP, *state)  # a new step looks up again
        x_hist.feedback(kernel, f, view.times[0], 64)
        assert len(calls) == 2

    def test_trimmed_history_still_underflows(self):
        traj, state = stored_history()
        traj.trim_before(1.0)
        assert traj.coverage_floor > 0.5
        t = traj.t_front + STEP
        view = stage_view(traj, state, t)
        view.set_stage(t, *state)
        with pytest.raises(HistoryUnderflowError):
            view.components().y_component.feedback(UniformDensityKernel("t-1.5"), pf("x"), t, 16)

    def test_time_outside_the_step_rejected(self):
        traj, state = stored_history()
        view = stage_view(traj, state, traj.t_front + STEP)
        with pytest.raises(ValueError):
            view.components().x_component.feedback(UniformDensityKernel("t-1"), pf("x"), 0.5, 16)


@pytest.mark.parametrize(
    "k1, k2, per_step",
    [
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-1"), 1),  # equal, not the same object
        (UniformDensityKernel("t-1"), TriangularDensityKernel("t-1"), 2),
        (TriangularDensityKernel("t-1"), PointMassKernel("t-1"), 1),
    ],
)
def test_one_lookup_per_step_per_distinct_window(monkeypatch, k1, k2, per_step):
    spec = spec_of("1+x/2", "x/2", k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    calls = count_array_lookups(monkeypatch)
    _, outcome = integrate(spec, horizon=0.5, dt=0.01, n_quad=16)
    steps = outcome.diagnostics["steps"]
    assert outcome.status == "reached-horizon" and steps == 50
    # the first derivative at t = 0 is a step of its own, with one stage time
    assert len(calls) == per_step * (steps + 1)


@pytest.mark.parametrize("name", ["logistic_distributed", "sqrt_logistic_triangular"])
def test_window_runs_repeat_bit_identically(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    spec = system_from_mapping(cfg.system)
    dt, n_quad = cfg.numerics.dt, cfg.numerics.quad_panels
    runs = [integrate(spec, horizon=3.0, dt=dt, n_quad=n_quad) for _ in range(2)]
    (ta, oa), (tb, ob) = runs
    for comp in (0, 1):
        assert np.array_equal(ta.step_values(comp), tb.step_values(comp))
    assert oa.final_state == ob.final_state
    trimmed, ot = integrate(spec, horizon=3.0, dt=dt, n_quad=n_quad, trim_history=True)
    assert trimmed.coverage_floor > 0.0
    assert ot.final_state == oa.final_state


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
