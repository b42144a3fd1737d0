import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay.dynamics import (
    InitialFunction,
    SystemSpec,
    check_rate_divergence,
    rhs,
    validate_system,
)
from coopdelay.expr import EvalDomainError, parse
from coopdelay.kernels import GeneralMixtureKernel, PointMassKernel, UniformDensityKernel
from reference_history import FnComponent


def pf(text):
    return parse(text)


def make_spec(
    f1="1+x/2",
    f2="1+x/2",
    r1="1",
    r2="1",
    k1=None,
    k2=None,
    phi="1",
    psi="1",
    g1=None,
    g2=None,
):
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


def const_history(x, y):
    """Constant x and y histories, in the order rhs_of_histories takes them."""
    return (
        FnComponent(lambda s: np.asarray(s, dtype=float) * 0 + x),
        FnComponent(lambda s: np.asarray(s, dtype=float) * 0 + y),
    )


def rhs_of_histories(spec, t, x, y, x_hist, y_hist):
    """rhs with its feedbacks integrated through the kernels from the x and
    y histories, as a step without point feeds computes them."""
    return rhs(spec, t, x, y, spec.k1.integrate(spec.f1, y_hist, t), spec.k2.integrate(spec.f2, x_hist, t))


class TestRhs:
    def test_equilibrium_is_stationary(self):
        spec = make_spec(
            k1=UniformDensityKernel("t-1"),
            k2=UniformDensityKernel("t-1"),
            r1="2+sin(t)",
            r2="2+cos(t)",
        )
        dx, dy = rhs_of_histories(spec, 3.0, 2.0, 2.0, *const_history(2.0, 2.0))
        assert dx == pytest.approx(0.0, abs=1e-12)
        assert dy == pytest.approx(0.0, abs=1e-12)

    def test_linear_half_feedback(self):
        spec = make_spec(f1="x/2", f2="x/2")
        dx, dy = rhs_of_histories(spec, 0.0, 1.0, 1.0, *const_history(1.0, 1.0))
        assert (dx, dy) == (-0.5, -0.5)

    def test_modulated_equilibrium(self):
        spec = make_spec(
            f1="sqrt(x)+2",
            f2="x",
            k1=PointMassKernel("t-1"),
            k2=PointMassKernel("t-1"),
            g1="x",
            g2="x",
        )
        dx, dy = rhs_of_histories(spec, 5.0, 4.0, 4.0, *const_history(4.0, 4.0))
        assert dx == pytest.approx(0.0, abs=1e-12)
        assert dy == pytest.approx(0.0, abs=1e-12)

    def test_sign_structure(self):
        # state below the feedback level must be pushed up
        spec = make_spec(f1="1+x/2", f2="1+x/2")
        dx, dy = rhs_of_histories(spec, 0.0, 0.5, 0.5, *const_history(0.5, 0.5))
        assert dx > 0 and dy > 0

    @given(st.integers(min_value=-6, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_rate_scaling_exact_for_powers_of_two(self, k):
        c = 2.0**k
        base = make_spec(f1="x^2+x", f2="1+x/2", r1="1.5", r2="0.75")
        scaled = make_spec(f1="x^2+x", f2="1+x/2", r1=f"{c!r}*1.5", r2=f"{c!r}*0.75")
        h = const_history(1.3, 0.8)
        dx0, dy0 = rhs_of_histories(base, 1.0, 1.3, 0.8, *h)
        dx1, dy1 = rhs_of_histories(scaled, 1.0, 1.3, 0.8, *h)
        assert dx1 == c * dx0
        assert dy1 == c * dy0


class TestInitialFunction:
    def test_constant(self):
        f = InitialFunction("2")
        assert f(0.0) == 2.0
        assert f(-5.0) == 2.0
        assert f.bounds(-10.0) == (2.0, 2.0)

    def test_value_at_zero_override(self):
        f = InitialFunction("1", value_at_zero=5.0)
        assert f(0.0) == 5.0
        assert f(-1.0) == 1.0

    def test_array_splits_at_zero(self):
        f = InitialFunction("2 - t", value_at_zero=3.0)
        out = f.array(np.array([-2.0, -1.0, 0.0]))
        assert out.tolist() == [4.0, 3.0, 3.0]

    def test_array_does_not_evaluate_the_body_from_zero_on(self):
        # ln(-t) raises at t >= 0, where the value at 0 stands in anyway
        f = InitialFunction("ln(-t) + 2", value_at_zero=3.0)
        assert f.array(np.array([-1.0, 0.0, 0.5])).tolist() == [2.0, 3.0, 3.0]
        assert f.array(np.array([0.0, 1.0])).tolist() == [3.0, 3.0]
        assert f.array(0.0) == 3.0
        with pytest.raises(EvalDomainError):
            f.body.evaluate_array(np.array([0.0]))

    def test_bounds_sampled(self):
        f = InitialFunction("2 + sin(t)")
        lo, hi = f.bounds(-20.0)
        assert lo == pytest.approx(1.0, abs=1e-4)
        assert hi == pytest.approx(3.0, abs=1e-4)


class TestRateDivergence:
    def test_oscillating_rate_diverges(self):
        spec = make_spec(r1="2+sin(t)", r2="2+cos(t)")
        out = check_rate_divergence(spec, horizon=100.0)
        assert out["r1"]["divergent"] and out["r2"]["divergent"]
        assert out["all_divergent"]

    def test_integrable_rate_flagged(self):
        spec = make_spec(r1="2/(exp(2*t)+0.5)", r2="2/(exp(2*t)+0.5)")
        out = check_rate_divergence(spec, horizon=100.0)
        assert not out["r1"]["divergent"]
        assert not out["all_divergent"]
        assert out["r1"]["integral"] < 2.0

    def test_zero_rate(self):
        spec = make_spec(r1="0", r2="0")
        out = check_rate_divergence(spec, horizon=100.0)
        assert out["r1"]["integral"] == 0.0
        assert not out["r1"]["divergent"]


class TestValidation:
    def test_valid_system_passes(self):
        rep = validate_system(make_spec(), horizon=10.0, x_max=20.0)
        assert rep.ok
        assert rep.kernel_mass_residual <= 1e-8

    def test_non_monotone_production_rejected(self):
        rep = validate_system(make_spec(f1="abs(x-1)"), horizon=10.0, x_max=20.0)
        assert any("f1" in e and "not-increasing" in e for e in rep.errors)

    def test_negative_rate_rejected(self):
        rep = validate_system(make_spec(r1="0-1"), horizon=10.0, x_max=20.0)
        assert any("r1" in e and "negative" in e for e in rep.errors)

    def test_zero_initial_value_rejected(self):
        rep = validate_system(make_spec(phi="0"), horizon=10.0, x_max=20.0)
        assert any("phi" in e for e in rep.errors)

    def test_unbounded_delay_needs_attestation(self):
        spec = make_spec(k1=PointMassKernel("t/2"))
        spec.max_lag_bound = 3.0
        rep = validate_system(spec, horizon=10.0, x_max=20.0)
        assert any("max_lag_bound" in e for e in rep.errors)
        spec.unbounded_delay_ok = True
        rep2 = validate_system(spec, horizon=10.0, x_max=20.0)
        assert rep2.ok

    def test_nonpositive_modulation_rejected(self):
        rep = validate_system(make_spec(g1="x-10"), horizon=10.0, x_max=20.0)
        assert any("g1" in e for e in rep.errors)

    def test_mixture_normalization_note(self):
        note = "mixture normalization verified by quadrature on the sampled grid"
        mixture = GeneralMixtureKernel(atoms=[("t-1", 0.5)], density="1", density_lag="t-0.5")
        for k1, k2, noted in (
            (mixture, PointMassKernel("t-1"), True),
            (UniformDensityKernel("t-1"), mixture, True),
            (UniformDensityKernel("t-1"), PointMassKernel("t-1"), False),
        ):
            rep = validate_system(make_spec(k1=k1, k2=k2), horizon=10.0, x_max=20.0)
            assert rep.ok
            assert (note in rep.notes) == noted

    def test_sampled_initial_data_note(self):
        # phi is undefined on (-0.99985, -0.99965), between the 2,001
        # samples of [-1, 0]: a body that is not constant is checked at
        # those samples only, and the report says so; a constant one is
        # checked exactly
        for phi, psi, noted in (
            ("1 + 0*sqrt(abs(t + 0.99975) - 0.0001)", "1", {"phi"}),
            ("2 + sin(3*t)", "1 + t^2/4", {"phi", "psi"}),
            ("1", "1/3", set()),
        ):
            spec = make_spec(f1="2*sqrt(x)", f2="2*sqrt(x)", k1=PointMassKernel("t-1"), k2=PointMassKernel("t-1"),
                             phi=phi, psi=psi)
            rep = validate_system(spec, horizon=10.0, x_max=20.0)
            assert rep.ok
            notes = {name for name in ("phi", "psi")
                     if f"{name}: initial data checked at 2001 sampled times of [-1, 0] only" in rep.notes}
            assert notes == noted

    def test_t_floor_reaches_kernel_support(self):
        spec = make_spec(k1=PointMassKernel("t-3"), k2=UniformDensityKernel("t-1"))
        rep = validate_system(spec, horizon=10.0, x_max=20.0)
        assert rep.t_floor == -3.0
