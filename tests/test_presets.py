import math

import pytest

from coopdelay.analysis import classify, find_equilibrium
from coopdelay.cli import EXIT_VALIDATION, main
from coopdelay.config import system_from_mapping
from coopdelay.dynamics import validate_system
from coopdelay.presets import PRESETS, PresetParameterError, preset_system_mapping


def build(name, **overrides):
    return system_from_mapping(preset_system_mapping(name, overrides), label=name)


class TestTanhPreset:
    def test_normalized_form(self):
        spec = build("tanh", c1=2.0, c2=2.0, mu1=1.0, mu2=1.0, tau=1.0)
        # f_i(u) = (c_i/mu_i)*tanh(u), r_i = mu_i
        assert spec.f1(1.0) == pytest.approx(2.0 * math.tanh(1.0))
        assert spec.r1.evaluate(13.0) == 1.0
        assert spec.k1.support_floor(5.0) == 4.0

    def test_gain_above_threshold_reaches_equilibrium(self):
        spec = build("tanh", c1=2.0, c2=2.0, mu1=1.0, mu2=1.0)
        cls = classify(spec.f1, spec.f2, x_max=20.0)
        assert cls.fate == "to-equilibrium"
        x = 1.0
        for _ in range(200):
            x = 2.0 * math.tanh(2.0 * math.tanh(x))
        assert cls.relation.K == pytest.approx(x, abs=1e-7)

    def test_gain_at_threshold_decays(self):
        spec = build("tanh", c1=1.0, c2=1.0, mu1=1.0, mu2=1.0)
        cls = classify(spec.f1, spec.f2, x_max=10.0)
        assert cls.fate == "to-zero"

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(PresetParameterError, match="c1"):
            preset_system_mapping("tanh", {"c1": 0.0})


class TestLotkaVolterraPreset:
    def test_normalized_form(self):
        spec = build("lotka_volterra", A1=1.0, A2=1.0, a1=2.0, a2=2.0, b1=1.0, b2=1.0)
        # f1(u) = (A1 + b1*u)/a1 and the state modulation is the identity
        assert spec.f1(3.0) == pytest.approx((1.0 + 3.0) / 2.0)
        assert spec.g1 is not None and spec.g1(2.5) == 2.5
        assert spec.r1.evaluate(0.0) == pytest.approx(2.0)  # a1 * 1

    def test_strong_self_limitation_has_equilibrium(self):
        # A=(1,1), a=(2,2), b=(1,1): the lines cross once; the crossing
        # satisfies the stationarity identity A1 - a1*x + b1*y = 0 exactly
        spec = build("lotka_volterra", A1=1.0, A2=1.0, a1=2.0, a2=2.0, b1=1.0, b2=1.0)
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        assert cls.fate == "to-equilibrium"
        K = cls.relation.K
        y = cls.relation.f2K
        assert K == pytest.approx(1.0, abs=1e-8)
        assert 1.0 - 2.0 * K + 1.0 * y == pytest.approx(0.0, abs=1e-7)
        assert 1.0 - 2.0 * y + 1.0 * K == pytest.approx(0.0, abs=1e-7)
        # closed form (b1*A2 + a2*A1)/(a1*a2 - b1*b2)
        assert K == pytest.approx((1.0 + 2.0) / (4.0 - 1.0), abs=1e-8)

    def test_strong_mutualism_grows_without_bound(self):
        # A=(1,1), a=(1,1), b=(2,2): no stationary point in the positive
        # quadrant (1 - x + 2y = 0 has no positive solution with its twin)
        spec = build("lotka_volterra", A1=1.0, A2=1.0, a1=1.0, a2=1.0, b1=2.0, b2=2.0)
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        assert cls.fate == "to-infinity"
        # sanity: the would-be symmetric crossing x = 1 + 2x has x = -1 < 0
        assert 1.0 - (1.0 / 3.0) + 2.0 * (1.0 / 3.0) != pytest.approx(0.0)

    def test_zero_baseline_growth_collapses(self):
        spec = build("lotka_volterra", A1=0.0, A2=0.0, a1=2.0, a2=2.0, b1=1.0, b2=1.0)
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        assert cls.fate == "to-zero"

    def test_rejects_negative_baseline(self):
        with pytest.raises(PresetParameterError, match="A1"):
            preset_system_mapping("lotka_volterra", {"A1": -1.0})


class TestGopalsamyPreset:
    def test_equilibrium_exists_and_is_consistent(self):
        spec = build("gopalsamy", K1=1.0, K2=1.0, alpha1=3.0, alpha2=3.0)
        cls = classify(spec.f1, spec.f2, x_max=40.0)
        assert cls.fate == "to-equilibrium"
        K = cls.relation.K
        y = cls.relation.f2K
        assert spec.f1(y) == pytest.approx(K, abs=1e-7)
        assert spec.f2(K) == pytest.approx(y, abs=1e-12)

    def test_requires_facilitation_above_baseline(self):
        with pytest.raises(PresetParameterError, match="alpha1 > K1"):
            preset_system_mapping("gopalsamy", {"alpha1": 0.5, "K1": 1.0})


class TestCatalog:
    def test_every_preset_passes_the_standard_validation_gate(self):
        for name in PRESETS:
            spec = build(name)
            rep = validate_system(spec, horizon=10.0, x_max=30.0)
            assert rep.ok, f"{name}: {rep.errors}"

    def test_unknown_preset_and_parameter(self):
        with pytest.raises(PresetParameterError, match="unknown preset"):
            preset_system_mapping("nope")
        with pytest.raises(PresetParameterError, match="unknown parameter"):
            preset_system_mapping("tanh", {"gamma": 1.0})

    @pytest.mark.parametrize("name, param, value", [
        ("tanh", "c1", "abc"), ("tanh", "c1", "inf"), ("tanh", "tau", "nan"),
        ("lotka_volterra", "A1", "-inf"), ("gopalsamy", "alpha2", "nan"),
    ])
    def test_a_range_checked_parameter_must_be_a_finite_number(self, tmp_path, capsys, name, param, value):
        # the CLI passes a value float() cannot parse on as the string
        raw = value if value == "abc" else float(value)
        with pytest.raises(PresetParameterError, match=rf"^{param} must be a finite number"):
            preset_system_mapping(name, {param: raw})
        out = tmp_path / "p.cfg"
        assert main(["preset", "emit", name, "--param", f"{param}={value}", "--out", str(out)]) == EXIT_VALIDATION
        assert f"preset error: {param} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_find_equilibrium_consistency_across_presets(self):
        spec = build("gopalsamy", K1=2.0, K2=1.0, alpha1=5.0, alpha2=4.0)
        K = find_equilibrium(spec.f1, spec.f2, x_max=40.0)
        # fixed point of f1(f2(.)) by independent iteration
        x = 1.0
        for _ in range(300):
            x = spec.f1(spec.f2(x))
        assert K == pytest.approx(x, abs=1e-7)
