"""Feedbacks from blocks of steps against the per-stage path.

The per-stage oracle is the same run with the block driver replaced by one
that serves no step, so every feedback goes through `kernel.integrate` and
the stage view.  Point feeds from blocks are bit-identical to it (see
tests/test_integrator.py); density-window feeds add the same Simpson terms
in another order, so they agree to rounding.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay import integrator
from coopdelay.config import load_config, system_from_mapping
from coopdelay.dynamics import SystemSpec
from coopdelay.expr import EvalDomainError, parse
from coopdelay.functions import ProductionFunction
from coopdelay.integrator import IntegrationError, integrate
from coopdelay.kernels import GeneralMixtureKernel, PointMassKernel, TriangularDensityKernel, UniformDensityKernel
from test_integrator import CONFIGS, spec_of

# relative to max(1, |x|), at every stored node of runs up to t = 1.5
WINDOW_RTOL = 1e-12


def run(spec, horizon, dt):
    """The run's nodes, outcome and the number of rhs calls, or the error
    text and the number of rhs calls before it."""
    calls = []
    rhs = integrator.rhs

    def counted(*args):
        calls.append(args[1])
        return rhs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "rhs", counted)
        try:
            traj, outcome = integrate(spec, horizon=horizon, dt=dt)
        except IntegrationError as e:
            return str(e), len(calls)
    nodes = np.array([traj.step_times(), traj.step_values(0), traj.step_values(1)])
    return nodes, outcome, len(calls)


def per_stage_run(spec, horizon, dt):
    """`run` with no step served from a block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "block_feeds", lambda *args: itertools.repeat(None))
        return run(spec, horizon, dt)


def assert_agree(blocks, stages):
    (nodes, outcome, calls), (ref, ref_outcome, ref_calls) = blocks, stages
    assert (outcome.status, outcome.t_final, calls) == (ref_outcome.status, ref_outcome.t_final, ref_calls)
    assert np.array_equal(nodes[0], ref[0])
    scale = np.maximum(1.0, np.abs(ref[1:]))
    assert np.all(np.abs(nodes[1:] - ref[1:]) <= WINDOW_RTOL * scale)
    assert ref_outcome.diagnostics["block_steps"] == 0


def window(kind, lag):
    return (UniformDensityKernel if kind == "uniform" else TriangularDensityKernel)(lag)


BODIES = st.sampled_from(["x", "sqrt(x)+2", "2*tanh(x)", "x^2+x"])


MOVING = ["t-1-t^2/10", "t/2-0.5", "t-0.3-t^2"]  # the last floor moves back past -1


@st.composite
def window_runs(draw):
    """A density window, constant (t - 1, or up to 2.5 back, so early
    windows straddle 0) or moving, with a second kernel that is the same window, the other
    density kind, a window with another lag or a point mass, and a horizon
    that may clamp the last step."""
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    c = draw(st.one_of(st.just(1.0), st.floats(min_value=0.001, max_value=2.5), st.just(None)))
    lag = f"t-{c!r}" if c is not None else draw(st.sampled_from(MOVING))
    kind = draw(st.sampled_from(["uniform", "triangular"]))
    k1 = window(kind, lag)
    second = draw(st.sampled_from(["same", "other", "other-lag", "point-lag", "point-zero"]))
    k2 = {
        "same": lambda: window(kind, lag),
        "other": lambda: window("triangular" if kind == "uniform" else "uniform", lag),
        "other-lag": lambda: window(draw(st.sampled_from(["uniform", "triangular"])), draw(st.sampled_from(MOVING))),
        "point-lag": lambda: PointMassKernel("t-1"),
        "point-zero": lambda: PointMassKernel("t"),
    }[second]()
    if draw(st.booleans()):
        k1, k2 = k2, k1
    horizon = 1.5 + draw(st.sampled_from([0.0, 0.37])) * dt
    return dt, c, k1, k2, draw(BODIES), draw(BODIES), horizon


@given(window_runs())
@settings(max_examples=80, deadline=None)
def test_window_feeds_from_blocks_agree_with_the_per_stage_path(drawn):
    dt, c, k1, k2, f1, f2, horizon = drawn
    spec = spec_of(f1, f2, k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    blocks = run(spec, horizon, dt)
    assert_agree(blocks, per_stage_run(spec, horizon, dt))
    outcome = blocks[1]
    # a block of MIN_BLOCK = 8 steps from t = 0 serves every lag at least 8
    # steps long
    if c is None or c >= 8 * dt:
        assert outcome.diagnostics["block_steps"] > 0


@pytest.mark.parametrize("name", ["logistic_distributed", "sqrt_logistic_triangular", "quadratic_integro"])
def test_window_configs_agree_with_the_per_stage_path(name):
    # to t = 3 at the config's own step; blocks serve every step
    cfg = load_config(CONFIGS / f"{name}.cfg")
    spec = system_from_mapping(cfg.system)
    blocks = run(spec, 3.0, cfg.numerics.dt)
    assert_agree(blocks, per_stage_run(spec, 3.0, cfg.numerics.dt))
    assert blocks[1].diagnostics["block_steps"] == blocks[1].diagnostics["steps"] == round(3.0 / cfg.numerics.dt)


@pytest.mark.parametrize(
    "k1, k2, served",
    [
        # every step, from t = 0: the floors t - 1 lie behind the front
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-1"), 300),
        (PointMassKernel("t-1"), TriangularDensityKernel("t-1"), 300),
        # the floor lies inside the step at both stage times
        (UniformDensityKernel("t-0.003"), UniformDensityKernel("t-0.003"), 0),
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-0.003"), 0),
        # mixtures keep the per-stage path
        (GeneralMixtureKernel(density="1", density_lag="t-1"), UniformDensityKernel("t-1"), 0),
    ],
    ids=["uniform", "point-triangular", "in-step", "one-in-step", "mixture"],
)
def test_block_steps_count_the_steps_a_block_serves(k1, k2, served):
    spec = spec_of("1+x/2", "x/2", k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    _, outcome = integrate(spec, horizon=3.0, dt=0.01)
    assert outcome.diagnostics["steps"] == 300
    assert outcome.diagnostics["block_steps"] == served


def test_domain_error_in_the_known_part_surfaces_at_the_per_stage_step():
    # y(s) = 1 + s below 0, and f1 is undefined below 0.5: the floor
    # t - 0.3 - t^2/2 moves back past -0.5 at t = 2.18, where the grid's f
    # values over the newly covered nodes fail in one array evaluation
    spec = spec_of("sqrt(x-0.5)", "1+x/2", k1=UniformDensityKernel("t-0.3-t^2/2"),
                   k2=UniformDensityKernel("t-1"), phi="2", psi="1+t")
    message, calls = run(spec, 3.0, 0.01)
    assert "right-hand side failed near t=2.1" in message and "sqrt" in message
    assert (message, calls) == per_stage_run(spec, 3.0, 0.01)
    # the step before it came from a block
    _, outcome = integrate(spec, horizon=2.1, dt=0.01)
    assert outcome.diagnostics["block_steps"] > 0


def test_domain_error_at_an_accepted_node_surfaces_at_the_per_stage_step():
    # f1 fails at the value the grid holds at the midpoint of step 20 (t =
    # 0.205), the y node the next step reads first, inside a block.  The
    # two paths' nodes differ by rounding, so f fails near that value, and
    # its message leaves the value out
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel("t-1"), k2=UniformDensityKernel("t-1"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    traj, outcome = integrate(spec, horizon=0.3, dt=0.01)
    assert outcome.diagnostics["block_steps"] == 30
    (_, y0, _, dy0), (_, y1, _, dy1) = traj._v[20:22].tolist()
    bad = integrator._midpoint(y0, y1, dy0, dy1, traj._t.item(21) - traj._t.item(20))
    body = parse("1+x/2")

    def scalar(v):
        if abs(v - bad) <= 1e-13:
            raise EvalDomainError("undefined near the node")
        return body.evaluate(v)

    def array(vs):
        if np.any(np.abs(vs - bad) <= 1e-13):
            raise EvalDomainError("undefined near the node")
        return body.evaluate_array(vs)

    spec.f1 = ProductionFunction(scalar, array)
    message, calls = run(spec, 0.5, 0.01)
    assert message == "right-hand side failed near t=0.21: undefined near the node"
    assert (message, calls) == per_stage_run(spec, 0.5, 0.01)


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
