import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay.expr import Expression
from coopdelay import kernels
from coopdelay.functions import ProductionFunction
from coopdelay.kernels import (
    GeneralMixtureKernel,
    KernelCertificate,
    KernelViolation,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
    simpson_nodes_weights,
    validate_kernel,
)
from reference_history import FnComponent


def pf(text):
    return ProductionFunction.from_expression(text)


IDENTITY = pf("x")


def riemann_midpoint(density_fn, integrand_fn, a, b, n=1_000_000):
    """Independent oracle: midpoint Riemann sum on n panels."""
    edges = np.linspace(a, b, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (b - a) / n
    return float(np.sum(density_fn(mids) * integrand_fn(mids)) * h)


class TestSupportFloor:
    def test_point_mass(self):
        assert PointMassKernel("t-1").support_floor(5.0) == 4.0

    def test_uniform_at_zero(self):
        assert UniformDensityKernel("t-0.7").support_floor(0.0) == -0.7

    def test_triangular(self):
        assert TriangularDensityKernel("t-2").support_floor(3.0) == 1.0

    def test_mixture_min_over_parts(self):
        k = GeneralMixtureKernel(
            atoms=[("t-1", 0.5)], density="0.5/2", density_lag="t-2"
        )
        assert k.support_floor(10.0) == 8.0


class TestSimpson:
    @given(
        a=st.floats(min_value=-1e6, max_value=1e6),
        span=st.floats(min_value=0.0, max_value=1e6),
        n_panels=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_nodes_equal_linspace_bit_for_bit(self, a, span, n_panels):
        b = a + span
        nodes, weights = simpson_nodes_weights(a, b, n_panels)
        want = np.linspace(a, b, 2 * n_panels + 1)
        assert nodes.tobytes() == want.tobytes()
        assert weights.shape == want.shape

    def test_underflowing_step_follows_linspace(self):
        # the step of a subnormal span rounds to zero; linspace then divides first
        for a, b in ((0.0, 5e-324), (-1e-320, 1e-320), (2.0, 2.0)):
            nodes, _ = simpson_nodes_weights(a, b, 64)
            assert nodes.tobytes() == np.linspace(a, b, 129).tobytes()


class TestEquality:
    def test_windows_equal_by_kind_and_lag(self):
        assert UniformDensityKernel("t-1") == UniformDensityKernel("t - 1")
        assert hash(UniformDensityKernel("t-1")) == hash(UniformDensityKernel("t - 1"))
        assert TriangularDensityKernel("t-1") == TriangularDensityKernel("t-1")
        assert UniformDensityKernel("t-1") != TriangularDensityKernel("t-1")
        assert UniformDensityKernel("t-1") != UniformDensityKernel("t-2")
        assert len({UniformDensityKernel("t-1"), TriangularDensityKernel("t-1")}) == 2


class TestIntegrate:
    def test_point_mass_reduces_to_evaluation(self):
        k = PointMassKernel("t-1.5")
        f = pf("x^2+x")
        u = FnComponent(lambda s: np.asarray(s) * 0 + 3.0)
        assert k.integrate(f, u, 4.0) == f(3.0)

    def test_uniform_constant_history_is_f_of_constant(self):
        k = UniformDensityKernel("t-1")
        f = pf("1+x/2")
        u = FnComponent(lambda s: np.asarray(s) * 0 + 2.0, n_quad=16)
        assert k.integrate(f, u, 7.0) == pytest.approx(2.0, abs=1e-12)

    def test_triangular_linear_history_closed_form(self):
        # identity production, u(s) = s: the integral is t - span/3
        for h, t in ((2.0, 3.0), (0.5, 10.0), (1.0, 0.0)):
            k = TriangularDensityKernel(f"t-{h}")
            u = FnComponent(lambda s: np.asarray(s, dtype=float), n_quad=64)
            got = k.integrate(IDENTITY, u, t)
            assert got == pytest.approx(t - h / 3.0, abs=1e-10)

    def test_triangular_matches_riemann_oracle(self):
        h, t = 2.0, 3.0
        k = TriangularDensityKernel(f"t-{h}")
        u = FnComponent(lambda s: np.asarray(s, dtype=float), n_quad=64)
        got = k.integrate(IDENTITY, u, t)
        oracle = riemann_midpoint(
            lambda s: (2.0 / h**2) * (s - (t - h)), lambda s: s, t - h, t
        )
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_simpson_convergence_order(self):
        # smooth non-polynomial integrand: f = exp(x)-1 over u(s) = s/2
        h, t = 1.0, 2.0
        k = UniformDensityKernel(f"t-{h}")
        f = pf("exp(x)-1")
        def u(n):
            return FnComponent(lambda s: np.asarray(s, dtype=float) / 2.0, n_quad=n)

        oracle = riemann_midpoint(
            lambda s: np.full_like(s, 1.0 / h), lambda s: np.exp(s / 2.0) - 1.0, t - h, t
        )
        errs = [
            abs(k.integrate(f, u(n), t) - oracle) for n in (2, 4, 8, 16)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 8.0

    def test_mixture_atoms_plus_density(self):
        # half the mass at lag 1, half uniformly spread over the last 2
        k = GeneralMixtureKernel(
            atoms=[("t-1", 0.5)], density="0.5/2", density_lag="t-2"
        )
        u = FnComponent(lambda s: np.asarray(s, dtype=float), n_quad=32)
        t = 5.0
        got = k.integrate(IDENTITY, u, t)
        assert got == pytest.approx(0.5 * 4.0 + 0.5 * 4.0, abs=1e-10)

    def test_zero_lag_atom_reads_current_time(self):
        k = PointMassKernel("t")
        u = FnComponent(lambda s: np.asarray(s, dtype=float) * 2.0)
        assert k.integrate(IDENTITY, u, 3.0) == 6.0

    def test_linearity_in_production(self):
        k = TriangularDensityKernel("t-1")
        u = FnComponent(lambda s: np.abs(np.asarray(s, dtype=float)) + 0.5)
        fa, fb = pf("x^2+x"), pf("1+x/2")
        combo = pf("0.5*(x^2+x) + 2*(1+x/2)")
        t = 4.0
        ia = k.integrate(fa, u, t)
        ib = k.integrate(fb, u, t)
        ic = k.integrate(combo, u, t)
        assert ic == pytest.approx(0.5 * ia + 2.0 * ib, rel=1e-12)

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=1.2, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_preservation(self, m, spread):
        M = m * spread
        k = UniformDensityKernel("t-1")
        f = pf("x^2+x")
        rng = np.random.default_rng(7)
        wiggle = rng.uniform(0.0, 1.0)

        def traj(s):
            s = np.asarray(s, dtype=float)
            frac = 0.5 * (1.0 + np.sin(3.0 * s + wiggle))
            return m + (M - m) * frac

        got = k.integrate(f, FnComponent(traj, n_quad=32), 2.0)
        assert f(m) - 1e-9 <= got <= f(M) + 1e-9

    def test_density_needs_two_panels(self):
        k = UniformDensityKernel("t-1")
        with pytest.raises(ValueError):
            k.integrate(IDENTITY, FnComponent(lambda s: s, n_quad=1), 2.0)


class TestValidate:
    def test_uniform_certifies(self):
        res = validate_kernel(UniformDensityKernel("t-1"), [float(i) for i in range(11)])
        assert isinstance(res, KernelCertificate)
        assert res.max_mass_residual <= 1e-10

    def test_overweight_mixture(self):
        k = GeneralMixtureKernel(atoms=[("t-1", 0.5), ("t-2", 0.6)])
        res = validate_kernel(k, [0.0, 1.0])
        assert isinstance(res, KernelViolation)
        assert res.kind == "mass"
        assert "1.1" in res.detail

    def test_advanced_lag(self):
        res = validate_kernel(PointMassKernel("t+1"), [0.0, 1.0])
        assert isinstance(res, KernelViolation)
        assert res.kind == "advanced-lag"

    def test_mixture_with_density_certifies(self):
        k = GeneralMixtureKernel(
            atoms=[("t-0.5", 0.25)], density="0.75*2*(1-u)", density_lag="t-1"
        )
        # density 1.5*(1-u) on ages [0,1] integrates to 0.75
        res = validate_kernel(k, [0.0, 2.5, 7.0])
        assert isinstance(res, KernelCertificate)

    def test_empty_window_is_a_mass_violation(self):
        for k in (
            UniformDensityKernel("t"),
            GeneralMixtureKernel(atoms=[("t-1", 0.5)], density="0.5", density_lag="t/2"),
        ):
            res = validate_kernel(k, [0.0, 1.0])
            assert isinstance(res, KernelViolation)
            assert (res.kind, res.t) == ("mass", 0.0)
            assert "empty" in res.detail

    def test_advanced_atom_lag_in_mixture(self):
        # the support floor is t - 1, so only the atom check sees t + 1
        k = GeneralMixtureKernel(atoms=[("t-1", 0.5), ("t+1", 0.5)])
        res = validate_kernel(k, [0.0, 1.0])
        assert res == KernelViolation(0.0, "advanced-lag", "atom lag 1.0 exceeds t=0.0")

    def test_point_lag_is_evaluated_once_per_grid_time(self, monkeypatch):
        # a point kernel's one atom is its support floor, and a window has
        # unit mass by construction: one array evaluation of the lag over the
        # grid checks the lag, the window and the span, and no quadrature
        # plan is built; only a violating grid time is read again, by itself
        calls = []
        evaluate, evaluate_array = Expression.evaluate, Expression.evaluate_array

        def counted(self, v):
            calls.append(1)
            return evaluate(self, v)

        def counted_array(self, vs):
            calls.append(np.size(vs))
            return evaluate_array(self, vs)

        monkeypatch.setattr(Expression, "evaluate", counted)
        monkeypatch.setattr(Expression, "evaluate_array", counted_array)
        grid = [0.0, 1.0, 2.5, 4.0]
        for kind in (PointMassKernel, UniformDensityKernel, TriangularDensityKernel):
            calls.clear()
            res = validate_kernel(kind("t-1"), grid)
            assert res == KernelCertificate(t_points=len(grid), max_mass_residual=0.0, max_span=1.0)
            assert calls == [len(grid)]
            calls.clear()
            res = validate_kernel(kind("t+1"), grid)
            assert res == KernelViolation(0.0, "advanced-lag", "support floor 1.0 exceeds t=0.0")
            assert calls == [len(grid), 1]

    @pytest.mark.parametrize(
        "kernel",
        [
            PointMassKernel("t - 1 + t^2/20"),  # advanced from t = 4.47 on
            UniformDensityKernel("t - 2 + t/2"),  # empty window at t = 4
            TriangularDensityKernel("t - ln(t - 3)"),  # domain error below t = 3
            GeneralMixtureKernel(atoms=[("t - 1", 0.5), ("t - 3 + t/2", 0.5)]),  # atom advanced
            GeneralMixtureKernel(atoms=[("t - 1", 0.5)], density="1/(1 + u)", density_lag="t - 1"),  # mass
            GeneralMixtureKernel(atoms=[("t/2 - 1", 0.5)], density="0.5", density_lag="t - 1"),  # certifies
            UniformDensityKernel("t - 1 - sin(t)/2"),  # certifies
        ],
    )
    def test_array_pass_finds_what_the_scalar_loop_finds(self, kernel):
        # the scalar checks of every grid time in order, as validation ran
        # them before the lags were evaluated as arrays
        grid = [0.25 * i for i in range(41)]
        for t in grid:
            want = kernels._check_at(kernel, t, 64)
            if isinstance(want, KernelViolation):
                break
        else:
            want = None
        got = validate_kernel(kernel, grid)
        if want is None:
            assert isinstance(got, KernelCertificate)
        else:
            assert got == want

    @given(
        c=st.floats(min_value=0.1, max_value=100.0),
        t=st.floats(min_value=0.0, max_value=100.0),
        n_quad=st.integers(min_value=2, max_value=128),
        kind=st.sampled_from([UniformDensityKernel, TriangularDensityKernel]),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_plans_have_unit_mass(self, c, t, n_quad, kind):
        # the quadrature check that validation no longer runs on windows:
        # Simpson integrates their constant or linear density exactly
        plan = kind(f"t - {c!r}").plan(t, n_quad)
        assert abs(float(np.dot(plan.weights, plan.density)) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "kernel",
        [
            PointMassKernel("t/2 - 1"),
            UniformDensityKernel("t - 3 + t/5"),
            TriangularDensityKernel("t - 1 - 1/(1 + t)"),
            GeneralMixtureKernel(atoms=[("t/3 - 1", 0.5)], density="0.5", density_lag="t - 1"),
        ],
    )
    def test_max_span_is_the_widest_span_on_the_grid(self, kernel):
        grid = [0.0, 0.5, 3.0, 7.25, 10.0]
        res = validate_kernel(kernel, grid)
        assert isinstance(res, KernelCertificate)
        assert res.max_span == max(kernel.span(t) for t in grid)

    def test_kernels_list_their_atom_lags(self):
        point = PointMassKernel("t-2")
        mixture = GeneralMixtureKernel(atoms=[("t-1", 0.5), ("t/2", 0.25)], density="0.5", density_lag="t-1")
        assert point.atom_lags() == (point.lag,)
        assert mixture.atom_lags() == tuple(lag for lag, _ in mixture.atoms)
        assert UniformDensityKernel("t-1").atom_lags() == ()
        assert TriangularDensityKernel("t-1").atom_lags() == ()

    def test_only_mixtures_have_sampled_mass(self):
        assert GeneralMixtureKernel(atoms=[("t-1", 1.0)]).sampled_mass
        for k in (PointMassKernel("t-1"), UniformDensityKernel("t-1"), TriangularDensityKernel("t-1")):
            assert not k.sampled_mass

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_kernel(PointMassKernel("t"), [])
