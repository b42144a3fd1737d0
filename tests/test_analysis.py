import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay import analysis, functions
from coopdelay.analysis import (
    BoxConstructionError,
    StallError,
    certify_run,
    choose_separator,
    classify,
    contraction_iteration,
    contraction_start,
    find_equilibrium,
    initial_side,
    monotone_iteration,
    permanence_bounds,
    scan_relation,
)
from coopdelay.cli import execute_run
from coopdelay.config import Numerics, Outputs, RunConfig
from coopdelay.dynamics import InitialFunction, SystemSpec, check_rate_divergence
from coopdelay.expr import parse
from coopdelay.functions import ProductionFunction, Separator, inverse_auto
from coopdelay.integrator import integrate
from coopdelay.kernels import GeneralMixtureKernel, PointMassKernel, UniformDensityKernel
from coopdelay.presets import preset_system_mapping


def pf(text):
    return ProductionFunction.from_expression(text)


TOL_CLASSIFY = Numerics().tol_classify


def tangent_pair_below():
    """f1^-1(x) = x*(1+(x-1)^2) given exactly; f2 = identity.
    delta = -x*(x-1)^2 <= 0 with equality only at x = 1."""
    q = pf("x*(1+(x-1)^2)")

    def fwd(v, _q=q):
        return inverse_auto(_q, v, 8.0)

    f1 = ProductionFunction(fwd, inverse_fn=q.__call__, name="q^-1")
    return f1, pf("x")


class TestFindEquilibrium:
    def test_sqrt_identity_pair(self):
        assert find_equilibrium(pf("sqrt(x)+2"), pf("x"), x_max=40.0) == pytest.approx(
            4.0, abs=1e-8
        )

    def test_affine_pair(self):
        assert find_equilibrium(pf("1+x/2"), pf("1+x/2"), x_max=40.0) == pytest.approx(
            2.0, abs=1e-8
        )

    def test_halving_pair_has_none(self):
        assert find_equilibrium(pf("x/2"), pf("x/2"), x_max=40.0) is None

    def test_tanh_pair_matches_fixed_point_oracle(self):
        # independent oracle: iterate x <- 2*tanh(2*tanh(x)) from 1
        x = 1.0
        for _ in range(200):
            x = 2.0 * math.tanh(2.0 * math.tanh(x))
        f = pf("2*tanh(x)")
        K = find_equilibrium(f, f, x_max=20.0)
        assert K == pytest.approx(x, abs=1e-7)


class TestClassify:
    def test_quadratic_pair_to_infinity(self):
        cls = classify(pf("x^2+x"), pf("x^2+x"), x_max=40.0)
        assert cls.relation.kind == "above-everywhere"
        assert cls.fate == "to-infinity"
        assert not cls.caveats

    def test_exp_log_pair_to_zero(self):
        cls = classify(pf("exp(x)-1"), pf("ln(x+1)/2"), x_max=20.0)
        assert cls.relation.kind == "below-everywhere"
        assert cls.fate == "to-zero"

    def test_sqrt_identity_to_equilibrium(self):
        cls = classify(pf("sqrt(x)+2"), pf("x"), x_max=40.0)
        assert cls.fate == "to-equilibrium"
        assert cls.equilibrium == pytest.approx((4.0, 4.0), abs=1e-8)

    def test_tangent_below_is_bistable(self):
        f1, f2 = tangent_pair_below()
        cls = classify(f1, f2, x_max=8.0)
        assert cls.relation.kind == "tangent"
        assert cls.relation.K == pytest.approx(1.0, abs=1e-5)
        assert cls.fate == "bistable"
        assert cls.fate_above == "to-equilibrium"
        assert cls.fate_below == "to-zero"

    def test_tangent_above_is_bistable(self):
        cls = classify(pf("x"), pf("x*(1+(x-1)^2)"), x_max=8.0)
        assert cls.relation.kind == "tangent"
        assert cls.fate == "bistable"
        assert cls.fate_above == "to-infinity"
        assert cls.fate_below == "to-equilibrium"

    def test_tanh_equality_pair_to_zero(self):
        # tanh(x) < x < artanh(x): strictly below despite the cubic-flat origin
        cls = classify(pf("tanh(x)"), pf("tanh(x)"), x_max=10.0)
        assert cls.relation.kind == "below-everywhere"
        assert cls.fate == "to-zero"

    def test_multiple_crossings_inconclusive(self):
        # delta changes sign more than once by construction
        f1 = pf("max(x - 0.25, x/100)")
        f2 = pf("x + 0.3*(tanh(3*(x-1)) - tanh(3*(x-3)))")
        cls = classify(f1, f2, x_max=12.0)
        assert cls.fate == "inconclusive"
        assert cls.relation.kind == "unresolved"

    def test_grid_doubling_stability(self):
        for f1, f2, fate in (
            (pf("x/2"), pf("x/2"), "to-zero"),
            (pf("1+x/2"), pf("1+x/2"), "to-equilibrium"),
            (pf("x^2+x"), pf("x^2+x"), "to-infinity"),
        ):
            a = scan_relation(f1, f2, 40.0, n_grid=2049)
            b = scan_relation(f1, f2, 40.0, n_grid=4097)
            assert a.kind == b.kind
            assert classify(f1, f2, 40.0).fate == fate


def analytic_g_affine(x, alpha=0.5):
    """Separator for the pair f1 = f2 = 1 + x/2 with default alpha."""
    f1_inv = max(0.0, 2.0 * (x - 1.0))
    f2 = 1.0 + 0.5 * x
    return alpha * f1_inv + (1.0 - alpha) * f2


class TestMonotoneIteration:
    def test_affine_pair_converges_to_two(self):
        f = pf("1+x/2")
        g = choose_separator(f, f, b_floor=0.625, alpha0=0.5)
        assert g.alpha == 0.5  # g(0) = 0.5 <= 0.625 already
        seq = monotone_iteration(f, f, g, 2.0, (0.5, g(0.5), 10.0, g(10.0)), n_max=200, tol=1e-8)
        assert seq.converged
        assert seq.lower[-1][0] == pytest.approx(2.0, abs=1e-7)
        assert seq.upper[-1][0] == pytest.approx(2.0, abs=1e-7)
        assert len(seq.lower) <= 201
        # monotone sandwich
        a_vals = [p[0] for p in seq.lower]
        A_vals = [p[0] for p in seq.upper]
        assert all(x2 >= x1 - 1e-12 for x1, x2 in zip(a_vals, a_vals[1:]))
        assert all(x2 <= x1 + 1e-12 for x1, x2 in zip(A_vals, A_vals[1:]))
        assert all(a <= 2.0 + 1e-8 for a in a_vals)
        assert all(A >= 2.0 - 1e-8 for A in A_vals)

    def test_affine_lower_matches_independent_recursion(self):
        # oracle: plain-float recursion with the analytic separator
        f = lambda x: 1.0 + 0.5 * x
        g = analytic_g_affine

        def g_inv(y):
            if y >= g(1.0):
                return (y + 0.5) / 1.25
            return (y - 0.5) * 4.0

        a, b = 0.5, g(0.5)
        oracle = [a]
        for _ in range(60):
            a_next = min(g_inv(f(a)), f(b))
            b_next = min(f(a), g(f(b)))
            a, b = a_next, b_next
            oracle.append(a)

        fp = pf("1+x/2")
        gp = choose_separator(fp, fp, b_floor=g(0.5), alpha0=0.5)
        seq = monotone_iteration(fp, fp, gp, 2.0, (0.5, g(0.5), 10.0, gp(10.0)), n_max=60, tol=0.0)
        got = [p[0] for p in seq.lower]
        for o, m in zip(oracle, got):
            assert m == pytest.approx(o, abs=1e-9)

    def test_sqrt_pair_upper_descends_to_four(self):
        f1, f2 = pf("sqrt(x)+2"), pf("x")
        g = choose_separator(f1, f2, b_floor=0.5, alpha0=0.5)
        seq = monotone_iteration(f1, f2, g, 4.0, (0.5, g(0.5), 10.0, g(10.0)), n_max=500, tol=1e-8)
        assert seq.converged
        assert seq.upper[-1][0] == pytest.approx(4.0, abs=1e-7)

    def test_fixed_point_start_stays_constant(self):
        f = pf("1+x/2")
        g = choose_separator(f, f, b_floor=1.0, alpha0=0.5)
        K = 2.0
        bK = g(K)
        seq = monotone_iteration(f, f, g, K, (K, bK, K, bK), n_max=5, tol=1e-10)
        for a, _b in seq.lower:
            assert a == pytest.approx(K, abs=1e-9)

    @given(
        st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0),
        st.floats(0.5, 1.5), st.floats(0.2, 0.6), st.floats(0.05, 0.95), st.floats(1.05, 4.0),
        st.floats(0.1, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_lotka_volterra_bounds_are_monotone_and_squeeze_K(
        self, A1, A2, a1, a2, b1, gain, below, above, floor
    ):
        # f_i(x) = (A_i + b_i x)/a_i with loop gain b1*b2/(a1*a2) < 1: the one
        # equilibrium solves K = f1(f2(K)), K = (A1*a2 + b1*A2)/(a1*a2 - b1*b2)
        b2 = gain * a1 * a2 / b1
        f1, f2 = pf(f"({A1!r} + {b1!r}*x)/{a1!r}"), pf(f"({A2!r} + {b2!r}*x)/{a2!r}")
        K = (A1 * a2 + b1 * A2) / (a1 * a2 - b1 * b2)
        # g lies between f1^-1 and f2, which cross only at K, so any aligned
        # start below and above K steps inward; floors below f2(0)/2 make the
        # separator walk alpha toward 1
        g = choose_separator(f1, f2, b_floor=floor * f2(0.0))
        box = (below * K, g(below * K), above * K, g(above * K))
        seq = monotone_iteration(f1, f2, g, K, box)
        a_vals = [a for a, _ in seq.lower]
        A_vals = [A for A, _ in seq.upper]
        assert all(x2 >= x1 for x1, x2 in zip(a_vals, a_vals[1:]))
        assert all(x2 <= x1 for x1, x2 in zip(A_vals, A_vals[1:]))
        assert all(a <= K <= A for a, A in zip(a_vals, A_vals))
        for a, b in seq.lower + seq.upper:
            assert abs(g(a) - b) <= 1e-10 * max(1.0, abs(b))

    @staticmethod
    def assert_matches_reference_recursion(f1_fn, f2_fn, f1, f2, K, below, above):
        """monotone_iteration against the defining min/max recursion,
        written with plain-float bisections: g(x) inverts f1 on every call
        and g^-1 bisects g itself."""

        def bisect(fn, y, hi):  # increasing fn with fn(0) <= y <= fn(hi)
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                lo, hi = (mid, hi) if fn(mid) < y else (lo, mid)
            return 0.5 * (lo + hi)

        def grow(fn, y):  # a bracket top with fn(top) >= y, or None
            hi = 1.0
            while fn(hi) < y:
                if hi > 2.0**60:
                    return None
                hi *= 2.0
            return hi

        def f1_inv(x):  # inf above the range of a bounded f1
            if x <= f1_fn(0.0):
                return 0.0
            hi = grow(f1_fn, x)
            return math.inf if hi is None else bisect(f1_fn, x, hi)

        g = choose_separator(f1, f2, b_floor=0.5 * f2(K))
        alpha = g.alpha

        def g_fn(x):
            return alpha * f1_inv(x) + (1.0 - alpha) * f2_fn(x)

        def g_inv(y):
            if y <= g_fn(0.0):
                return 0.0
            return bisect(g_fn, y, grow(g_fn, y))

        tol = 1e-8
        seq = monotone_iteration(f1, f2, g, K, (below, g(below), above, g(above)), n_max=300, tol=tol)
        # the start aligned with the separator, as monotone_iteration's
        # contract defines it
        a = min(below, g_inv(g_fn(below)))
        A = max(above, g_inv(g_fn(above)))
        b, B = g_fn(a), g_fn(A)
        lower, upper = [(a, b)], [(A, B)]
        converged = False
        for _ in range(300):
            a, b, A, B = (
                min(g_inv(f2_fn(a)), f1_fn(b)), min(f2_fn(a), g_fn(f1_fn(b))),
                max(g_inv(f2_fn(A)), f1_fn(B)), max(f2_fn(A), g_fn(f1_fn(B))),
            )
            lower.append((a, b))
            upper.append((A, B))
            if A - a <= tol:
                converged = True
                break
        shape = (len(seq.lower), len(seq.upper), seq.converged)
        assert shape == (len(lower), len(upper), converged)
        for got, want in zip(seq.lower + seq.upper, lower + upper):
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y))

    @given(
        st.floats(0.0, 2.0), st.floats(0.5, 2.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0),
        st.floats(0.5, 1.5), st.floats(0.2, 0.6), st.floats(0.05, 0.95), st.floats(1.05, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_lotka_volterra_matches_reference_recursion(
        self, A1, A2, a1, a2, b1, gain, below, above
    ):
        # A1 > 0 puts f1(0) > 0, where f1^-1 is 0 on [0, f1(0)]
        b2 = gain * a1 * a2 / b1
        f1, f2 = pf(f"({A1!r} + {b1!r}*x)/{a1!r}"), pf(f"({A2!r} + {b2!r}*x)/{a2!r}")
        K = (A1 * a2 + b1 * A2) / (a1 * a2 - b1 * b2)
        self.assert_matches_reference_recursion(
            lambda x: (A1 + b1 * x) / a1, lambda x: (A2 + b2 * x) / a2,
            f1, f2, K, below * K, above * K,
        )

    @given(st.floats(1.1, 3.0), st.floats(1.1, 3.0), st.floats(0.05, 0.95), st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_tanh_pair_matches_reference_recursion(self, c1, c2, below, frac):
        # f_i = c_i*tanh(x) with c1*c2 > 1: one positive equilibrium K < c1,
        # the fixed point of x -> f1(f2(x)); the upper start stays below
        # sup f1 = c1, where f1^-1 exists
        f1_fn = lambda x: c1 * math.tanh(x)
        f2_fn = lambda x: c2 * math.tanh(x)
        lo, hi = 1e-9, c1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f1_fn(f2_fn(mid)) > mid else (lo, mid)
        K = 0.5 * (lo + hi)
        self.assert_matches_reference_recursion(
            f1_fn, f2_fn, pf(f"{c1!r}*tanh(x)"), pf(f"{c2!r}*tanh(x)"),
            K, below * K, K + frac * (c1 - K),
        )

    def test_steps_where_f1_wins_make_no_inverse_call(self, monkeypatch):
        calls = [0]
        bisect = functions.inverse

        def counted(*args, **kwargs):
            calls[0] += 1
            return bisect(*args, **kwargs)

        monkeypatch.setattr(functions, "inverse", counted)
        f = pf("1+x/2")
        g = choose_separator(f, f, b_floor=0.625, alpha0=0.5)
        # from a0 = 0.5, f1(b) wins every step; from a0 = 0, the first
        # lower step takes g^-1(f2(a))
        for lo, n_inverse_steps in ((0.5, 0), (0.0, 1)):
            start = (lo, g(lo), 10.0, g(10.0))
            calls[0] = 0
            seq = monotone_iteration(f, f, g, 2.0, start, n_max=200, tol=1e-8)
            assert seq.converged
            steps = [
                (p, q) for side in (seq.lower, seq.upper) for p, q in zip(side, side[1:])
            ]
            took_inverse = [q[0] != f(p[1]) for p, q in steps]
            assert sum(took_inverse) == n_inverse_steps
            # g^-1 of the box's m2 and M2 and f1^-1 of a0 and A0 align the
            # start; after it only the g^-1 steps invert
            assert calls[0] <= n_inverse_steps + 4

    def test_inaccurate_separator_inverse_raises(self):
        class Perturbed(Separator):
            __slots__ = ()

            def inverse_xu(self, y):
                x, u = super().inverse_xu(y)
                return x, u + 1e-6

        f = pf("1+x/2")
        start = lambda g: (0.0, g(0.0), 10.0, g(10.0))  # noqa: E731
        exact = Separator(f, f, 0.5, 1e6)
        assert monotone_iteration(f, f, exact, 2.0, start(exact)).converged
        g = Perturbed(f, f, 0.5, 1e6)
        with pytest.raises(StallError, match="separator alignment lost at step 0"):
            monotone_iteration(f, f, g, 2.0, start(g))


def grid_events_by_loops(signs, absd):
    """Reference for analysis._grid_events: the per-grid-point loops that
    scan_relation ran before, with the refinement calls left out."""
    pairs = []
    nz = [i for i in range(len(signs)) if signs[i] != 0.0]
    if nz:
        prev = nz[0]
        for i in nz[1:]:
            if signs[i] != signs[prev]:
                pairs.append((prev, i))
            prev = i
    candidates = []
    for i in range(1, len(signs) - 1):
        if absd[i] < absd[i - 1] and absd[i] <= absd[i + 1]:
            if signs[i - 1] != 0 and signs[i + 1] != 0 and signs[i - 1] != signs[i + 1]:
                continue
            if len(candidates) == 8:
                break
            candidates.append(i)
    pattern = []
    for v in signs:
        c = "+" if v > 0 else ("-" if v < 0 else "0")
        if not pattern or pattern[-1] != c:
            pattern.append(c)
    return pairs, candidates, "".join(pattern)


class TestScanBookkeeping:
    """Pins what scan_relation does with the sampled signs: which grid pairs
    it refines as crossings, which |delta| minima it refines as touches (the
    first 8 that do not sit between opposite signs) and the run-length sign
    pattern."""

    @given(st.integers(1, 80).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([-1.0, 0.0, 1.0, math.nan]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 1e-13, 0.5, 1.0, 2.0, math.inf, math.nan]),
                 min_size=n, max_size=n),
    )))
    @settings(max_examples=300, deadline=None)
    def test_grid_events_match_the_loops(self, grid):
        signs, absd = grid
        pairs, candidates, pattern = analysis._grid_events(np.array(signs), np.array(absd))
        ref_pairs, ref_candidates, ref_pattern = grid_events_by_loops(signs, absd)
        assert [(int(i), int(j)) for i, j in pairs] == ref_pairs
        assert candidates.tolist() == ref_candidates
        assert pattern == ref_pattern

    @pytest.fixture
    def refined(self, monkeypatch):
        calls = {"crossing": [], "touch": []}
        crossing, touch = analysis._refine_crossing, analysis._refine_touch

        def count_crossing(delta, a, b, tol):
            calls["crossing"].append((a, b))
            return crossing(delta, a, b, tol)

        def count_touch(delta, a, b, tol):
            calls["touch"].append((a, b))
            return touch(delta, a, b, tol)

        monkeypatch.setattr(analysis, "_refine_crossing", count_crossing)
        monkeypatch.setattr(analysis, "_refine_touch", count_touch)
        return calls

    def test_alternating_crossings_near_multiples_of_pi(self, refined):
        # delta = 0.5*sin(x): six sign changes on (0, 20], each one a crossing
        # whose |delta| minimum is skipped as a touch candidate
        rel = scan_relation(pf("x"), pf("x + 0.5*sin(x)"), 20.0)
        assert rel.kind == "unresolved"
        assert rel.sign_pattern == "+-+-+-+"
        assert rel.crossings == pytest.approx([k * math.pi for k in range(1, 7)], abs=1e-8)
        assert rel.tangents == []
        assert rel.witnesses == rel.crossings
        assert len(refined["crossing"]) == 6
        assert refined["touch"] == []
        for (a, b), c in zip(refined["crossing"], rel.crossings):
            assert a < c < b

    def test_touch_candidates_stop_at_eight(self, refined):
        # delta = 0.25*(1 - cos(x)) >= 0 touches 0 at x = 2k*pi, nine times in
        # (0, 60]; only the first eight |delta| minima are refined, so the
        # ninth touch is never seen.  Several tangencies are several positive
        # equilibria, which no single fate covers
        rel = scan_relation(pf("x"), pf("x + 0.25*(1 - cos(x))"), 60.0)
        assert len(refined["touch"]) == 8
        assert refined["crossing"] == []
        assert rel.crossings == []
        assert rel.tangents == pytest.approx([2.0 * k * math.pi for k in range(1, 9)], abs=1e-6)
        assert rel.kind == "unresolved"
        assert rel.witnesses == rel.tangents


class TestScanAlongU:
    """The scan samples u = f1^-1(x) and reads delta(f1(u)) as f2(f1(u)) - u:
    it must find the same relation, and K to tol_classify, as the curves'
    closed forms say."""

    LV_PAIR = (
        st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(1.0, 3.0), st.floats(1.0, 3.0),
        st.floats(0.5, 1.5),
    )

    @staticmethod
    def lotka_volterra(A1, A2, a1, a2, b1, gain):
        # f_i(x) = (A_i + b_i x)/a_i, f1(0) = A1/a1 > 0, loop gain b1*b2/(a1*a2)
        b2 = gain * a1 * a2 / b1
        return pf(f"({A1!r} + {b1!r}*x)/{a1!r}"), pf(f"({A2!r} + {b2!r}*x)/{a2!r}"), b2

    @given(*LV_PAIR, st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_lotka_volterra_gain_below_one_pins_closed_form_K(self, A1, A2, a1, a2, b1, gain):
        f1, f2, b2 = self.lotka_volterra(A1, A2, a1, a2, b1, gain)
        K = (A1 * a2 + b1 * A2) / (a1 * a2 - b1 * b2)
        rel = scan_relation(f1, f2, 10.0 * max(1.0, K), TOL_CLASSIFY)
        assert rel.kind == "single-crossing"
        assert abs(rel.K - K) <= TOL_CLASSIFY * max(1.0, K)

    @given(*LV_PAIR, st.floats(1.05, 4.0), st.floats(1.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_lotka_volterra_gain_above_one_is_above_everywhere(
        self, A1, A2, a1, a2, b1, gain, x_max
    ):
        # f2(f1(u)) - u = f2(f1(0)) + (gain - 1) u > 0 for every u >= 0
        f1, f2, _ = self.lotka_volterra(A1, A2, a1, a2, b1, gain)
        rel = scan_relation(f1, f2, x_max, TOL_CLASSIFY)
        assert rel.kind == "above-everywhere"
        assert rel.K is None and rel.crossings == [] and rel.tangents == []

    def test_window_below_f1_of_zero_is_above_everywhere(self):
        # f1^-1 is 0 on (0, 10] inside [0, f1(0)), so delta = f2 > 0 there;
        # f1^-1(x_max) is 0, and the grid shrinks to its lower end
        rel = scan_relation(pf("100 + x"), pf("x"), 10.0)
        assert rel.kind == "above-everywhere"
        assert rel.crossings == [] and rel.tangents == []

    @given(st.floats(0.5, 4.0), st.floats(1.05, 6.0), st.floats(1.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_f1_pins_the_tanh_fixed_point(self, c1, gain, reach):
        # f1 = c1*tanh never reaches x_max = reach*c1; the positive
        # equilibrium is K = c1*tanh(u) with u = c2*tanh(c1*tanh(u)), solved
        # here by plain bisection on [0, c2], where h > 0 below u and < 0 above
        c2 = gain / c1
        f1, f2 = pf(f"{c1!r}*tanh(x)"), pf(f"{c2!r}*tanh(x)")
        lo, hi = 0.0, c2
        while hi - lo > 4.0 * math.ulp(hi):
            mid = 0.5 * (lo + hi)
            if c2 * math.tanh(c1 * math.tanh(mid)) > mid:
                lo = mid
            else:
                hi = mid
        K = c1 * math.tanh(0.5 * (lo + hi))
        rel = scan_relation(f1, f2, reach * c1, TOL_CLASSIFY)
        assert rel.kind == "single-crossing"
        assert abs(rel.K - K) <= TOL_CLASSIFY * max(1.0, K)


class TestChooseSeparator:
    def test_alpha_walks_toward_one_for_small_floor(self):
        f = pf("1+x/2")  # g(0) = (1-alpha) * 1
        g = choose_separator(f, f, b_floor=0.3, alpha0=0.5)
        assert g.alpha > 0.5
        assert g(0.0) <= 0.3

    def test_zero_at_origin_keeps_default(self):
        f1, f2 = pf("sqrt(x)+2"), pf("x")  # f2(0) = 0
        assert choose_separator(f1, f2, b_floor=1e-6, alpha0=0.5).alpha == 0.5


class TestContraction:
    def test_halving_pair_exact_powers(self):
        f = pf("x/2")
        seq = contraction_iteration(f, f, (1.0, 1.0), n_max=500)
        assert seq.verdict == "to-zero"
        assert seq.upper[5] == (2.0**-5, 2.0**-5)

    def test_quadratic_pair_explodes(self):
        f = pf("x^2+x")
        seq = contraction_iteration(f, f, (1.0, 1.0), cap=1e12)
        assert seq.verdict == "to-infinity"
        assert seq.upper[1] == (2.0, 2.0)
        assert seq.upper[2] == (6.0, 6.0)
        assert seq.upper[3] == (42.0, 42.0)

    def test_exp_log_pair_to_zero(self):
        seq = contraction_iteration(pf("exp(x)-1"), pf("ln(x+1)/2"), (1.0, 1.0))
        assert seq.verdict == "to-zero"

    def test_duality_of_mirrored_pair(self):
        down = contraction_iteration(pf("x/2"), pf("x/2"), (1.0, 1.0))
        up = contraction_iteration(pf("2*x"), pf("2*x"), (1.0, 1.0))
        assert down.verdict == "to-zero"
        assert up.verdict == "to-infinity"

    def test_start_helper_brackets_data(self):
        f1, f2 = pf("exp(x)-1"), pf("ln(x+1)/2")
        A0, B0 = contraction_start(f1, f2, (0.5, 0.5), (1.0, 1.0), "below-everywhere")
        assert A0 >= 1.0 and B0 >= 1.0
        assert f1(B0) <= A0 and f2(A0) <= B0
        seq = contraction_iteration(f1, f2, (A0, B0))
        assert seq.verdict == "to-zero"
        # decreasing from a consistent start
        a_vals = [p[0] for p in seq.upper]
        assert all(x2 <= x1 + 1e-12 for x1, x2 in zip(a_vals, a_vals[1:]))


class TestPermanenceBox:
    @staticmethod
    def assert_box_valid(f1, f2, box, inf_, sup_):
        assert 0.0 < box.m1 <= inf_[0] and 0.0 < box.m2 <= inf_[1]
        assert box.M1 >= sup_[0] and box.M2 >= sup_[1]
        assert f1(box.m2) > box.m1 + 1e-12
        assert f2(box.m1) > box.m2 + 1e-12
        assert f2(box.M1) < box.M2 - 1e-12
        assert f1(box.M2) < box.M1 - 1e-12

    def test_affine_pair_example_box(self):
        f = pf("1+x/2")
        box = permanence_bounds(f, f, 2.0, (1.0, 1.0), (3.0, 3.0), slack=0.5)
        self.assert_box_valid(f, f, box, (1.0, 1.0), (3.0, 3.0))
        # the hand-derived corner (0.5, 0.5) also satisfies the inequalities
        assert f(0.5) == 1.25 > 0.5

    def test_equilibrium_start_contains_equilibrium_strictly(self):
        f = pf("1+x/2")
        box = permanence_bounds(f, f, 2.0, (2.0, 2.0), (2.0, 2.0))
        assert box.m1 < 2.0 < box.M1
        assert box.m2 < 2.0 < box.M2

    def test_sqrt_identity_box(self):
        f1, f2 = pf("sqrt(x)+2"), pf("x")
        box = permanence_bounds(f1, f2, 4.0, (1.0, 1.0), (5.0, 5.0))
        self.assert_box_valid(f1, f2, box, (1.0, 1.0), (5.0, 5.0))
        assert f2(box.M1) < box.M2 < inverse_auto(f1, box.M1, 100.0)

    def test_all_three_ceiling_cases_reachable(self):
        f = pf("1+x/2")
        cases = set()
        for sup in ((2.1, 2.1), (2.1, 30.0), (30.0, 2.1), (30.0, 30.0)):
            box = permanence_bounds(f, f, 2.0, (1.0, 1.0), sup)
            cases.add(box.trace["case"])
            self.assert_box_valid(f, f, box, (1.0, 1.0), sup)
        assert len(cases) >= 2

    def test_tie_falls_back_to_a_case_that_holds(self):
        # f1 = 1 + x and f2 = (1.25 + 1.5x)/3 cross at K = 17/6 with
        # f2(K) = 11/6.  For this data nu1 = f1(nu2) in exact arithmetic;
        # rounding picks data-inside-band, whose M2 = f1^-1(M1) misses the
        # strict margin, while data-binds-x and data-binds-y both hold
        f1, f2 = pf("(1.0 + 1.0*x)/1.0"), pf("(1.25 + 1.5*x)/3.0")
        data = (17.0 / 12.0, 5.0 / 6.0)
        box = permanence_bounds(f1, f2, 17.0 / 6.0, data, data)
        assert box.trace["case"] in ("data-binds-x", "data-binds-y")
        self.assert_box_valid(f1, f2, box, data, data)
        assert box.M1 > 17.0 / 6.0 and box.M2 > 11.0 / 6.0

    def test_bad_inputs(self):
        f = pf("1+x/2")
        with pytest.raises(ValueError):
            permanence_bounds(f, f, 2.0, (0.0, 1.0), (3.0, 3.0))
        with pytest.raises(ValueError):
            permanence_bounds(f, f, 2.0, (1.0, 1.0), (3.0, 3.0), slack=2.0)


def _affine_spec(r_text="1", phi="5", psi="5"):
    return SystemSpec(
        f1=pf("1+x/2"),
        f2=pf("1+x/2"),
        r1=parse(r_text, var="t"),
        r2=parse(r_text, var="t"),
        k1=PointMassKernel("t"),
        k2=PointMassKernel("t"),
        phi=InitialFunction(phi),
        psi=InitialFunction(psi),
    )


class TestCertifyRun:
    def test_equilibrium_start_passes_everything(self):
        spec = _affine_spec(phi="2", psi="2")
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        box = permanence_bounds(spec.f1, spec.f2, 2.0, (2.0, 2.0), (2.0, 2.0))
        traj, outcome = integrate(spec, horizon=12.0, dt=1e-2)
        rep = certify_run(spec, traj, outcome, cls, box=box)
        assert rep.status == "pass"
        assert all(c["status"] != "fail" for c in rep.checks)

    def test_fading_rates_mismatch_is_explained(self):
        spec = _affine_spec(r_text="2/(exp(2*t)+0.5)")
        cls = classify(spec.f1, spec.f2, x_max=50.0)
        assert cls.fate == "to-equilibrium"
        rates = check_rate_divergence(spec, horizon=60.0)
        caveats = [] if rates["all_divergent"] else ["a5-heuristic-failed"]
        assert caveats  # the rate integral converges, so the caveat fires
        traj, outcome = integrate(spec, horizon=60.0, dt=1e-3)
        # solution 4 + exp(-2t): settles at (4,4), not at the equilibrium (2,2)
        assert outcome.final_state[0] == pytest.approx(4.0, abs=1e-3)
        box = permanence_bounds(spec.f1, spec.f2, 2.0, (5.0, 5.0), (5.0, 5.0))
        rep = certify_run(spec, traj, outcome, cls, box=box, caveats=caveats)
        assert rep.status == "mismatch-explained"
        fate = [c for c in rep.checks if c["name"] == "fate"][0]
        assert fate["status"] == "fail"

    @pytest.mark.parametrize(
        "k1, k2",
        [
            # the mixture's density window [t - 2, t] enters forward time last
            (PointMassKernel("t-1.37"),
             GeneralMixtureKernel([("t-0.5", 0.5)], density="0.5/2", density_lag="t-2")),
            (PointMassKernel("t/2-0.3"), UniformDensityKernel("0.8*t-1.1")),
            (PointMassKernel("t-20"), PointMassKernel("t")),  # never within the run
        ],
    )
    def test_box_check_starts_where_the_per_step_floors_say(self, k1, k2):
        spec = _affine_spec()
        spec.k1, spec.k2 = k1, k2
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        box = permanence_bounds(spec.f1, spec.f2, 2.0, (5.0, 5.0), (5.0, 5.0))
        traj, outcome = integrate(spec, horizon=5.0, dt=1e-2)
        rep = certify_run(spec, traj, outcome, cls, box=box)
        ts = [float(t) for t in traj.step_times()]
        t_enter = next((t for t in ts if k1.support_floor(t) >= 0.0 and k2.support_floor(t) >= 0.0), ts[-1])
        assert rep.checks[0] == {"name": "permanence-box", "status": "pass",
                                 "detail": f"inside from t={t_enter:.6g}"}

    def test_unexplained_mismatch(self):
        spec = _affine_spec(r_text="2/(exp(2*t)+0.5)")
        cls = classify(spec.f1, spec.f2, x_max=50.0)
        traj, outcome = integrate(spec, horizon=60.0, dt=1e-3)
        rep = certify_run(spec, traj, outcome, cls, box=None, caveats=[])
        assert rep.status == "mismatch"

    def _halving_run(self, r_text, horizon, dt):
        spec = SystemSpec(
            f1=pf("x/2"), f2=pf("x/2"),
            r1=parse(r_text, var="t"), r2=parse(r_text, var="t"),
            k1=PointMassKernel("t"), k2=PointMassKernel("t"),
            phi=InitialFunction("1"), psi=InitialFunction("1"),
        )
        cls = classify(spec.f1, spec.f2, x_max=50.0)
        assert cls.fate == "to-zero"
        traj, outcome = integrate(spec, horizon=horizon, dt=dt)
        rep = certify_run(spec, traj, outcome, cls)
        return rep, [c for c in rep.checks if c["name"] == "fate"][0]

    def test_to_zero_fate_does_not_depend_on_horizon(self):
        # x = exp(-t/2): at horizon 2 the norm is still 0.37, but the decay
        # over [1, 2] extrapolates to 0
        rep, fate = self._halving_run("1", horizon=2.0, dt=1e-2)
        assert rep.status == "pass"
        assert fate["status"] == "pass"
        assert "extrapolated limit" in fate["detail"]

    def test_to_zero_fate_fails_when_fading_rates_freeze_the_state(self):
        # rate integral converges: x settles at 2/3, not at 0
        rep, fate = self._halving_run("2/(exp(2*t)+0.5)", horizon=60.0, dt=1e-3)
        assert rep.status == "mismatch"
        assert fate["status"] == "fail"
        assert "extrapolated limit 0.666667" in fate["detail"]


class TestInitialSide:
    def test_sides(self):
        above = _affine_spec(phi="3", psi="2.5")
        below = _affine_spec(phi="1", psi="0.5")
        mixed = _affine_spec(phi="3", psi="0.5")
        assert initial_side(above, 2.0, 2.0, -5.0) == "above"
        assert initial_side(below, 2.0, 2.0, -5.0) == "below"
        assert initial_side(mixed, 2.0, 2.0, -5.0) == "mixed"


@st.composite
def stable_lotka_volterra(draw):
    """lotka_volterra preset parameters in the classify sweep's stable band:
    loop gain b1*b2/(a1*a2) in [0.2, 0.6], data placed relative to f2(0)
    as the sweep places them, and a point, uniform or triangular kernel."""
    A1, A2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    a1, a2, b1 = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0)), draw(st.floats(0.5, 1.5))
    gain = draw(st.floats(0.2, 0.6))
    rho1, rho2 = draw(st.floats(0.6, 3.0)), draw(st.floats(1.25, 3.0))
    f2_0 = A2 / a2
    return {
        "A1": A1, "A2": A2, "a1": a1, "a2": a2, "b1": b1, "b2": gain * a1 * a2 / b1,
        "phi": repr((A1 + b1 * rho1 * f2_0) / a1), "psi": repr(rho2 * f2_0),
        "kernel": draw(st.sampled_from(["point", "uniform", "triangular"])),
        "tau": draw(st.floats(0.5, 2.0)), "span": draw(st.floats(0.5, 2.0)),
    }


class TestLotkaVolterraCertificates:
    @given(stable_lotka_volterra())
    @settings(max_examples=20, deadline=None)
    def test_the_run_stays_in_its_box_and_the_bounds_hold_K(self, tmp_path_factory, params):
        # the checks, not the exit code: a slow approach can still fail the
        # fate check at horizon 20
        config = RunConfig(system=preset_system_mapping("lotka_volterra", params),
                           numerics=Numerics(dt=1e-2, horizon=20.0), outputs=Outputs(), label="lv")
        report = execute_run(config, out_dir=tmp_path_factory.mktemp("lv")).report
        assert report["fate"] == "to-equilibrium"
        checks = {c["name"]: c["status"] for c in report["certification"]["checks"]}
        assert checks["permanence-box"] == "pass"
        lower, upper = report["bound_sequences"]["lower_end"][0], report["bound_sequences"]["upper_end"][0]
        # the scan's K is accurate to tol_classify, and the pair can end
        # narrower than that
        slack = report["numerics"]["tol_classify"] * max(1.0, report["K"])
        assert lower - slack <= report["K"] <= upper + slack
        # the closed-form K, up to what the g^-1 bisection leaves: it stops
        # within 1e-12 * max(1, |y|) in value (f1 = 1 + x, f2 = 1 + x/2 ends
        # its lower bound 1.6e-11 above K = 4)
        K = (params["A1"] * params["a2"] + params["b1"] * params["A2"]) / (
            params["a1"] * params["a2"] - params["b1"] * params["b2"])
        assert lower - 1e-10 * K <= K <= upper + 1e-10 * K
