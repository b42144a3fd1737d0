import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdelay import functions
from coopdelay.expr import EvalDomainError, Expression, parse
from coopdelay.functions import (
    BRACKET_CAP,
    DEFAULT_INVERSE_TOL,
    InverseRangeError,
    MonotonicityCertificate,
    MonotonicityViolation,
    PositivityCertificate,
    Separator,
    inverse,
    inverse_auto,
    verify_increasing,
    verify_positive,
)
from test_integrator import Watched


def pf(text: str) -> Expression:
    return parse(text)


class TestVerify:
    def test_quadratic_certified(self):
        res = verify_increasing(pf("x^2+x"), x_max=10.0)
        assert isinstance(res, MonotonicityCertificate)
        assert res.x_max == 10.0

    def test_tanh_certified(self):
        assert isinstance(verify_increasing(pf("tanh(x)"), 5.0), MonotonicityCertificate)

    def test_abs_kink_violates_below_one(self):
        # decreasing branch left of the kink; first offending pair is reported
        res = verify_increasing(pf("abs(x-1)"), x_max=2.0)
        assert isinstance(res, MonotonicityViolation)
        assert res.kind == "not-increasing"
        assert res.x_left < 1.0 and res.x_right < 1.0
        assert res.f_left is not None and res.f_right <= res.f_left

    def test_nonpositive_detected(self):
        res = verify_increasing(pf("x-5"), x_max=10.0)
        assert isinstance(res, MonotonicityViolation)
        assert res.kind == "not-positive"

    def test_saturating_tanh_proved_not_sampled(self):
        # in doubles tanh rounds to 1.0 from x ~ 19: the grid ties over 44%
        # of [0, 30], but the expression is provably strictly increasing
        res = verify_increasing(pf("2*tanh(x)"), x_max=30.0)
        assert isinstance(res, MonotonicityCertificate)
        assert res.method == "symbolic"
        assert res.plateau_fraction > 0.2
        assert verify_increasing(pf("x^2+x"), x_max=10.0).method == "grid"

    def test_undecided_flat_function_still_rejected(self):
        res = verify_increasing(pf("min(x, 1)"), x_max=10.0)
        assert isinstance(res, MonotonicityViolation)
        assert res.kind == "not-increasing"
        assert "flat over 90.0%" in res.detail

    def test_proof_keeps_sampled_domain_and_sign_checks(self):
        assert verify_increasing(pf("ln(x)"), x_max=10.0).kind == "domain-error"
        assert verify_increasing(pf("x-5"), x_max=10.0).kind == "not-positive"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_increasing(pf("x"), x_max=0.0)
        with pytest.raises(ValueError):
            verify_increasing(pf("x"), x_max=1.0, n_grid=1)


class TestInverse:
    def test_sqrt_shift(self):
        f = pf("sqrt(x)+2")
        assert inverse(f, 4.0, bracket_hi=100.0) == pytest.approx(4.0, abs=1e-10)

    def test_boundary_value_maps_to_zero(self):
        assert inverse(pf("1+x/2"), 1.0, bracket_hi=10.0) == 0.0

    def test_exp_identity(self):
        f = pf("exp(x)-1")
        assert inverse(f, math.e - 1.0, bracket_hi=10.0) == pytest.approx(1.0, abs=1e-12)

    def test_below_range_convention(self):
        assert inverse(pf("sqrt(x)+2"), 1.0, bracket_hi=100.0) == 0.0

    def test_range_error_signals_enlargement(self):
        with pytest.raises(InverseRangeError):
            inverse(pf("x/2"), 100.0, bracket_hi=10.0)

    def test_auto_enlargement(self):
        f = pf("x/2")
        assert inverse_auto(f, 100.0, bracket_hi=10.0) == pytest.approx(200.0, rel=1e-11)

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_inverse_consistency(self, y):
        f = pf("x^2+x")
        x = inverse(f, y, bracket_hi=64.0)
        if y >= f(0.0):
            assert abs(f(x) - y) <= 1e-12 * max(1.0, abs(y))

    @given(
        st.floats(min_value=0.1, max_value=40.0),
        st.floats(min_value=0.1, max_value=40.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_monotone(self, y1, y2):
        f = pf("exp(x)-1")
        lo, hi = sorted((y1, y2))
        assert inverse(f, lo, 64.0) <= inverse(f, hi, 64.0) + 1e-12


def inverse_by_retries(f, y, bracket_hi, tol=DEFAULT_INVERSE_TOL, cap=BRACKET_CAP):
    """Reference for inverse_auto: invert over each doubled bracket in turn
    until one no longer raises InverseRangeError."""
    hi = float(bracket_hi)
    while True:
        try:
            return inverse(f, y, hi, tol)
        except InverseRangeError:
            if hi >= cap:
                raise
            hi = min(cap, 2.0 * hi)


def inverse_outcome(fn, *args):
    try:
        return "value", fn(*args).hex()
    except InverseRangeError as e:
        return "range", e.y, e.bracket_hi, e.f_hi, str(e)
    except EvalDomainError as e:
        return "domain", str(e)


# increasing functions: unbounded, bounded (tanh, the rational), and one
# that overflows to a domain error before the bracket cap
GROWN = ["x/2", "sqrt(x)+2", "1+x/2", "x^3+x", "2*tanh(x)", "3-1/(1+x)", "exp(x)-1"]


@st.composite
def inverse_targets(draw):
    """(f, y, bracket_hi, cap): y at or below f(0), just below, at or just
    above the top of one of the doubled brackets, or anywhere."""
    f = pf(draw(st.sampled_from(GROWN)))
    hi = draw(st.floats(min_value=1e-3, max_value=1e3))  # exp overflows from 710
    cap = draw(st.sampled_from([BRACKET_CAP, 2.0**12]))
    where = draw(st.sampled_from(["below-f0", "bracket", "any"]))
    if where == "below-f0":
        y = f(0.0) - draw(st.floats(min_value=0.0, max_value=10.0))
    elif where == "bracket":
        top = min(cap, hi * 2.0 ** draw(st.integers(min_value=0, max_value=55)))
        try:
            y = f(top)
        except EvalDomainError:
            y = 1e300
        y = float(np.nextafter(y, draw(st.sampled_from([-math.inf, math.inf])))) if draw(st.booleans()) else y
    else:
        y = draw(st.floats(min_value=-1.0, max_value=1e18))
    return f, y, hi, cap


class TestInverseAuto:
    @given(inverse_targets())
    @settings(max_examples=300, deadline=None)
    def test_matches_inverting_each_doubled_bracket(self, target):
        f, y, hi, cap = target
        want = inverse_outcome(inverse_by_retries, f, y, hi, DEFAULT_INVERSE_TOL, cap)
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            original = functions.inverse
            mp.setattr(functions, "inverse", lambda *a: calls.append(a[1]) or original(*a))
            mp.setattr(functions, "BRACKET_CAP", cap)
            got = inverse_outcome(inverse_auto, f, y, hi, DEFAULT_INVERSE_TOL)
        assert got == want
        # one inversion per target; a target past the cap raises before it
        assert calls == ([y] if got[0] == "value" else [])

    def test_bounded_f_beyond_the_cap(self):
        f = pf("2*tanh(x)")
        with pytest.raises(InverseRangeError) as err:
            inverse_auto(f, 2.5, 1.0)
        assert (err.value.y, err.value.bracket_hi, err.value.f_hi) == (2.5, BRACKET_CAP, 2.0)


class TestSeparator:
    def test_fixed_point_of_matching_pair(self):
        f = pf("1+x/2")
        g = Separator(f, f, alpha=0.5, bracket_hi=100.0)
        assert g(2.0) == pytest.approx(2.0, abs=1e-10)

    def test_meets_at_equilibrium(self):
        g = Separator(pf("sqrt(x)+2"), pf("x"), alpha=0.5, bracket_hi=100.0)
        assert g(4.0) == pytest.approx(4.0, abs=1e-10)

    def test_half_and_half_arithmetic(self):
        f = pf("x/2")
        g = Separator(f, f, alpha=0.5, bracket_hi=100.0)
        # 0.5 * (x/2)^-1(1) + 0.5 * (1/2) = 0.5*2 + 0.25
        assert g(1.0) == pytest.approx(1.25, abs=1e-10)

    def test_alpha_out_of_range(self):
        f = pf("x")
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                Separator(f, f, alpha, bracket_hi=10.0)

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.2, max_value=1.8))
    @settings(max_examples=100, deadline=None)
    def test_strictly_between_where_curves_separated(self, alpha, x):
        # pair with f2 > f1^-1 strictly on (0, K): crossing at K = 2
        f1, f2 = pf("1+x/2"), pf("1+x/2")
        g = Separator(f1, f2, alpha, bracket_hi=100.0)
        lo, hi = inverse_auto(f1, x, 100.0), f2(x)
        if hi - lo > 1e-9:
            assert lo < g(x) < hi

    def test_separator_own_inverse(self):
        g = Separator(pf("1+x/2"), pf("1+x/2"), alpha=0.5, bracket_hi=100.0)
        y = g(3.0)
        assert g.inverse_xu(y)[0] == pytest.approx(3.0, abs=1e-9)

    # A Lotka-Volterra pair with f1(0) > 0: f1^-1 is 0 on [0, f1(0)], so the
    # separator's inverse has a branch through f2 below g(f1(0)).
    LV = ("(1.2 + 0.8*x)/1.3", "(0.7 + 2.3*x)/2.9")

    @staticmethod
    def assert_round_trip(g, y):
        # the inverse stops within 1e-12 * max(1, |y|); evaluating g adds its
        # own f1^-1 bisection error, up to about 2e-12 in the cases below
        x = g.inverse_xu(y)[0]
        assert abs(g(x) - y) <= 1e-11 * max(1.0, abs(y))
        return x

    @given(st.floats(min_value=0.05, max_value=0.999), st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip_on_the_f2_branch(self, alpha, frac):
        f1, f2 = pf(self.LV[0]), pf(self.LV[1])
        g = Separator(f1, f2, alpha, bracket_hi=100.0)
        lo, hi = g(0.0), (1.0 - alpha) * f2(f1(0.0))
        x = self.assert_round_trip(g, lo + frac * (hi - lo))
        assert 0.0 < x <= f1(0.0)

    @given(st.floats(min_value=0.05, max_value=0.999), st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip_on_the_h_branch(self, alpha, dy):
        f1, f2 = pf(self.LV[0]), pf(self.LV[1])
        g = Separator(f1, f2, alpha, bracket_hi=100.0)
        x = self.assert_round_trip(g, (1.0 - alpha) * f2(f1(0.0)) + dy)
        assert x > f1(0.0)

    @given(st.floats(min_value=0.05, max_value=0.999), st.floats(min_value=1e-3, max_value=1.2))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip_for_bounded_f1(self, alpha, x):
        # f1^-1 has no value above 1.5; g^-1 still needs no bracket there.
        # Targets keep f1' >= 0.5, where g's own f1^-1 resolves u to 2e-12.
        g = Separator(pf("1.5*tanh(x)"), pf("x"), alpha, bracket_hi=100.0)
        self.assert_round_trip(g, g(x))

    def test_inverse_below_g0_is_zero(self):
        g = Separator(pf(self.LV[0]), pf(self.LV[1]), 0.5, bracket_hi=100.0)
        assert g.inverse_xu(g(0.0))[0] == 0.0
        assert g.inverse_xu(0.5 * g(0.0))[0] == 0.0

    def test_inverse_is_one_flat_bisection(self):
        # one g^-1 call bisects once, in u; a nested inversion of f1 inside
        # every probe of g would make thousands of evaluations
        calls = []
        for f1_text, f2_text, alpha in (self.LV + (0.5,), self.LV + (0.999,),
                                        ("1.5*tanh(x)", "x", 0.9), ("1+x/2", "1+x/2", 0.5)):
            f1, f2 = Watched(f1_text, calls.append), Watched(f2_text, calls.append)
            g = Separator(f1, f2, alpha, bracket_hi=100.0)
            knee = (1.0 - alpha) * f2(f1(0.0))
            for y in (0.5 * (g(0.0) + knee), knee + 1e-3, 1.0, 3.0, 40.0):
                calls.clear()
                g.inverse_xu(y)
                assert len(calls) <= 250, (f1_text, alpha, y, len(calls))


class TestModulation:
    def test_identity_positive(self):
        assert isinstance(verify_positive(parse("x"), 10.0), PositivityCertificate)

    def test_violation(self):
        res = verify_positive(parse("x-1"), 2.0)
        assert not isinstance(res, PositivityCertificate)
        assert res.x <= 1.0
