"""Feedbacks from blocks of steps against their definitions.

Each feed a block hands `integrate` is read through `window_feed` at drawn
stage states and compared with the feedback computed for its stage alone by
the definitions in tests/reference_history.py (`drive`): point masses bit
for bit, density windows, which add the same Simpson terms in another order,
to rounding.  The stops and the window configs' states are pinned to those
of the per-stage path that blocks replaced.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay import feeds, integrator
from coopdelay.config import load_config, system_from_mapping
from coopdelay.dynamics import SystemSpec
from coopdelay.expr import EvalDomainError, parse
from coopdelay.functions import ProductionFunction
from coopdelay.integrator import IntegrationError, integrate
from coopdelay.kernels import GeneralMixtureKernel, PointMassKernel, TriangularDensityKernel, UniformDensityKernel
from reference_history import WINDOW_RTOL, drive
from test_integrator import CONFIGS, on_path, spec_of


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


def test_windows_past_the_old_element_budget():
    # 3,000 grid nodes per stage time: the weights of 8 steps pass
    # WINDOW_ELEMENTS, which would have left them to the per-stage path; a
    # block holds MIN_BLOCK = 8 steps whatever their weights
    dt = 1e-3
    spec = spec_of("sqrt(x)+2", "x/2", k1=UniformDensityKernel("t-1.5"), k2=TriangularDensityKernel("t-1.5"))
    assert drive(spec, stored_history(dt), dt, 10, random.Random(2)) == 2


# the states at t = 3 of the per-stage path, at the config's step; its
# blocks of window feeds matched it to 1e-12 at every node
WINDOW_CONFIGS = {
    "logistic_distributed": (2.357600245783333, 2.432428131933536, 19),
    "sqrt_logistic_triangular": (4.067023991212494, 4.13391822853555, 19),
    "quadratic_integro": (8467.74410950823, 8467.74410950823, 375),
}


@pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
def test_window_configs_agree_with_the_per_stage_path(name):
    cfg = load_config(CONFIGS / f"{name}.cfg")
    _, outcome = integrate(system_from_mapping(cfg.system), horizon=3.0, dt=cfg.numerics.dt)
    x, y, blocks = WINDOW_CONFIGS[name]
    assert outcome.status == "reached-horizon" and outcome.diagnostics["blocks"] == blocks
    for got, want in zip(outcome.final_state, (x, y)):
        assert abs(got - want) <= WINDOW_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize(
    "k1, k2, sizes",
    [
        # 8, 16 and 32 steps, then 53, whose 106 stage times x about 310 grid
        # nodes fill WINDOW_ELEMENTS, and the 32 left
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-1"), [8, 16, 32, 53, 53, 53, 53, 32]),
        (PointMassKernel("t-1"), TriangularDensityKernel("t-1"), [8, 16, 32, 53, 53, 53, 53, 32]),
        # floors inside the step: nothing ends a block before MAX_BLOCK
        (UniformDensityKernel("t-0.003"), UniformDensityKernel("t-0.003"), [8, 16, 32, 64, 128, 52]),
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-0.003"), [8, 16, 32, 53, 53, 53, 53, 32]),
        (GeneralMixtureKernel(density="1", density_lag="t-1"), UniformDensityKernel("t-1"),
         [8, 16, 32, 53, 53, 53, 53, 32]),
        # floors in the block's own steps from its second step on
        (UniformDensityKernel("t-1"), UniformDensityKernel("t-0.013"), [8, 16, 32, 53, 53, 53, 53, 32]),
    ],
    ids=["uniform", "point-triangular", "in-step", "one-in-step", "mixture", "own-steps"],
)
def test_block_steps_count_the_steps_a_block_serves(monkeypatch, k1, k2, sizes):
    served = []
    block = feeds._block

    def spy(*args):
        items, steps = block(*args)
        served.append(steps)
        return items, steps

    monkeypatch.setattr(feeds, "_block", spy)
    spec = spec_of("1+x/2", "x/2", k1=k1, k2=k2, phi="2+sin(3*t)", psi="1+t^2/4")
    _, outcome = integrate(spec, horizon=3.0, dt=0.01)
    assert outcome.diagnostics["steps"] == 300
    # the first is the derivative at t = 0
    assert served == [1] + sizes and outcome.diagnostics["blocks"] == len(sizes)


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
    def spec(path):
        return on_path(spec_of("sqrt(x-0.5)", "1+x/2", k1=UniformDensityKernel("t-0.3-t^2/2"),
                               k2=UniformDensityKernel("t-1"), phi="2", psi="1+t"), path)

    message = "right-hand side failed near t=2.18: sqrt(x - 0.5) at 0.4978874999999998: math domain error"
    assert run(spec("generic"), 3.0, 0.01) == (message, 873)
    assert run(spec("compiled"), 3.0, 0.01)[0] == message


def test_a_mixture_atom_raises_before_its_density_at_one_stage():
    # at t = 0 the atom reads psi at -2 and the density over [-1, 0], where
    # psi = sqrt(t + 0.8) + 0.6 is undefined below -0.8: the atom's error
    # comes first, as the mixture adds its atoms before its density
    spec = spec_of("1+x/2", "x/2", k1=GeneralMixtureKernel([("t-2", 0.5)], density="0.5", density_lag="t-1"),
                   k2=PointMassKernel("t-0.5"), phi="1", psi="sqrt(t + 0.8) + 0.6")
    with pytest.raises(IntegrationError) as e:
        integrate(spec, horizon=3.0, dt=0.01)
    assert str(e.value) == "right-hand side failed at t=0: sqrt(t + 0.8) + 0.6 at -2.0: math domain error"


def test_domain_error_at_an_accepted_node_surfaces_at_the_per_stage_step():
    # f1 fails at the value the grid holds at the midpoint of step 20 (t =
    # 0.205), the y node the next step reads first, inside a block; the
    # message, stop time and rhs call count are those of the per-stage path
    # this replaced
    spec = spec_of("1+x/2", "x/2", k1=UniformDensityKernel("t-1"), k2=UniformDensityKernel("t-1"),
                   phi="2+sin(3*t)", psi="1+t^2/4")
    traj, outcome = integrate(spec, horizon=0.3, dt=0.01)
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
    assert run(spec, 0.5, 0.01) == ("right-hand side failed near t=0.21: undefined near the node", 85)


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
