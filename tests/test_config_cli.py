import ast
import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import coopdelay
from coopdelay import analysis, cli
from coopdelay.analysis import classify
from coopdelay.cli import (
    EXIT_CERTIFICATION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    execute_run,
    main,
)
from coopdelay.config import (
    ConfigError,
    Numerics,
    config_text,
    load_config,
    parse_kernel,
    system_from_mapping,
)
from coopdelay.kernels import (
    GeneralMixtureKernel,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return p


class TestLoadConfig:
    def test_bundled_linear_decay(self):
        cfg = load_config(CONFIGS / "linear_decay.cfg")
        assert cfg.system["f1"] == "x/2"
        assert cfg.numerics.dt == 1e-3
        assert cfg.numerics.horizon == 10.0
        assert cfg.outputs.stride == 10
        assert cfg.label == "linear_decay"

    def test_all_bundled_configs_load(self):
        for path in sorted(CONFIGS.glob("*.cfg")):
            cfg = load_config(path)
            assert cfg.system["f1"]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("/nonexistent/conf.cfg")

    def test_unknown_numerics_key(self, tmp_path):
        # trim_history was a key until the run history became append-only
        for key, value in (("warp", "9"), ("trim_history", "true")):
            p = write_config(
                tmp_path,
                "bad.cfg",
                "[system]\nf1 = x\nf2 = x\nr1 = 1\nr2 = 1\n"
                'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 1\npsi = 1\n'
                f"[numerics]\n{key} = {value}\n",
            )
            with pytest.raises(ConfigError, match=rf"\[numerics\] {key}: unknown key"):
                load_config(p)
            assert main(["run", str(p), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    def test_every_numerics_field_is_read(self):
        # a field that no module but config.py reads is a knob that is
        # parsed, range-checked and reported, and changes nothing
        read = set()
        for path in Path(coopdelay.__file__).parent.glob("*.py"):
            if path.name != "config.py":
                read.update(
                    node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                )
        assert [f.name for f in fields(Numerics) if f.name not in read] == []

    def test_tol_inverse_is_no_longer_a_key(self, tmp_path):
        # it was parsed and reported, but no inverse read it
        p = write_config(
            tmp_path,
            "old.cfg",
            "[system]\nf1 = x\nf2 = x\nr1 = 1\nr2 = 1\n"
            'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 1\npsi = 1\n'
            "[numerics]\ntol_inverse = 1e-12\n",
        )
        with pytest.raises(ConfigError, match=r"\[numerics\] tol_inverse: unknown key"):
            load_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [("quad_panels", 1), ("quad_panels", 0), ("kernel_grid", 0), ("a1_grid", 1), ("scan_grid", 1),
         ("x_max", -5), ("x_max", 0), ("slack", 1.5)],
    )
    def test_grid_sizes_are_range_checked(self, tmp_path, key, value):
        reason = {"x_max": "must be positive",
                  "slack": "must lie strictly inside"}.get(key, "must be at least")
        p = write_config(
            tmp_path,
            "grid.cfg",
            "[system]\nf1 = x\nf2 = x\nr1 = 1\nr2 = 1\n"
            'kernel1 = uniform lag="t-1"\nkernel2 = point lag="t"\nphi = 1\npsi = 1\n'
            f"[numerics]\n{key} = {value}\n",
        )
        with pytest.raises(ConfigError, match=rf"\[numerics\] {key}: {reason}"):
            load_config(p)
        assert main(["classify", str(p), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    def test_expression_error_names_key(self, tmp_path):
        p = write_config(
            tmp_path,
            "bad.cfg",
            "[system]\nf1 = 2+\nf2 = x\nr1 = 1\nr2 = 1\n"
            'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 1\npsi = 1\n',
        )
        result = execute_run(load_config(p), out_dir=tmp_path)
        assert result.exit_code == EXIT_VALIDATION
        assert "[system] f1" in result.message


LINEAR_PAIR = (
    "[system]\nf1 = 0.5*x + 1\nf2 = 0.5*x + 1\nr1 = 1\nr2 = 1\n"
    'kernel1 = point lag="{lag}"\nkernel2 = point lag="{lag}"\nphi = {phi}\npsi = 1\n'
)


NUMERICS_OUT_OF_RANGE = [
    ("classify", "tol_classify", "nan", "finite and positive"),
    ("run", "a5_tail_threshold", "nan", "finite and non-negative"),
    ("run", "tol_iteration", "nan", "finite and positive"),
    ("run", "max_lag_bound", "nan", "finite and positive"),
    ("run", "stage_ratio", "-1", "finite and positive"),
    ("run", "blowup_threshold", "0", "finite and positive"),
    ("run", "n_max_iteration", "-3", "at least 1"),
    ("run", "a5_grid", "0", "at least 3"),
]


@pytest.mark.parametrize(
    "command, system, args, code, text",
    [
        # phi is negative on [-1, -0.5), inside the data window [-1, 0] the
        # analysis reads, though the lag reaches back to -0.25 only
        ("classify", LINEAR_PAIR.format(lag="t - 0.25", phi="1 + 2*t"), [], EXIT_VALIDATION,
         "phi: negative initial data at t=-1"),
        # phi touches 0 at t = -1: admissible data, but no permanence box
        ("classify", LINEAR_PAIR.format(lag="t - 1", phi="(1 + t)^2"), [], EXIT_OK,
         "permanence box unavailable: initial data infima must be positive"),
        ("run", None, ["--dt", "-1"], EXIT_VALIDATION, "[numerics] dt: must be positive"),
        ("run", None, ["--horizon", "0"], EXIT_VALIDATION, "[numerics] horizon: must be positive"),
        ("classify", LINEAR_PAIR.format(lag="t - 1", phi="1") + "[numerics]\nx_max = -5\n", [],
         EXIT_VALIDATION, "[numerics] x_max: must be positive"),
        ("classify", None, ["--dt", "nan"], EXIT_VALIDATION, "[numerics] dt: must be positive and finite"),
        ("run", None, ["--horizon", "inf"], EXIT_VALIDATION, "[numerics] horizon: must be positive and finite"),
        ("classify", LINEAR_PAIR.format(lag="t - 1", phi="1") + "[numerics]\nx_max = inf\n", [],
         EXIT_VALIDATION, "[numerics] x_max: must be positive and finite"),
        # the window is empty on [1.2325, 1.2365], between the validation's
        # grid times 0.05 apart: the step that reads it fails by name
        ("run", "[system]\nf1 = 1 + x/2\nf2 = 1 + x/2\nr1 = 1\nr2 = 1\nphi = 1\npsi = 1\n"
         'kernel1 = uniform lag="t - min(0.5, max(0, abs(t - 1.2345) - 0.002))"\nkernel2 = point lag="t - 1"\n'
         "[numerics]\ndt = 1e-3\nhorizon = 5\n", [], EXIT_NUMERICAL,
         "numerical: right-hand side failed near t=1.232: kernel window is empty at t=1.2325 (floor 1.2325)"),
        # the lag is undefined on [1.2325, 1.2365], between the same grid
        # times: the step that reads it names the lag and the time
        ("run", "[system]\nf1 = 1 + x/2\nf2 = 1 + x/2\nr1 = 1\nr2 = 1\nphi = 1\npsi = 1\n"
         'kernel1 = point lag="t - 1 - 0*ln(abs(t - 1.2345) - 0.002)"\nkernel2 = point lag="t - 1"\n'
         "[numerics]\ndt = 1e-3\nhorizon = 5\n", [], EXIT_NUMERICAL,
         "numerical: right-hand side failed near t=1.232: "
         "t - 1.0 - 0.0*ln(abs(t - 1.2345) - 0.002) at 1.233: math domain error"),
        # the lag runs ahead of t on (1.224, 1.244), between the same grid
        # times: the first stage time there names the lag's value and t
        ("run", "[system]\nf1 = 1 + x/2\nf2 = 1 + x/2\nr1 = 1\nr2 = 1\nphi = 1\npsi = 1\n"
         'kernel1 = point lag="t + max(0, 0.01 - abs(t - 1.234))"\n'
         'kernel2 = point lag="t + max(0, 0.01 - abs(t - 1.234))"\n'
         "[numerics]\ndt = 1e-3\nhorizon = 5\n", [], EXIT_NUMERICAL,
         "numerical: right-hand side failed near t=1.224: advanced lag 1.2249999999999999 exceeds t=1.2245"),
        # to-equilibrium (K = 2.06758 in [0, x_max = 20.68]), but f1 overflows
        # at the separator's default bracket of 1e6: the bound sequences are
        # a note, not a traceback
        ("classify", "[system]\nf1 = exp(x/4)\nf2 = 3*tanh(x)\nr1 = 1\nr2 = 1\nphi = 1.5\npsi = 1.5\n"
         'kernel1 = point lag="t - 1"\nkernel2 = point lag="t - 1"\n[numerics]\ndt = 1e-2\nhorizon = 20\n',
         [], EXIT_OK, "bound sequences unavailable: exp(x/4.0) at 1000000.0: math range error"),
        # a NaN converge_rtol ran to the horizon and wrote NaN into the report
        *[(command, LINEAR_PAIR.format(lag="t - 1", phi="1") + f"[numerics]\n{key} = {value}\n", [],
           EXIT_VALIDATION, f"[numerics] {key}: must be finite")
          for command, key, value in (
              ("run", "converge_rtol", "nan"), ("classify", "converge_rtol", "inf"), ("run", "converge_rtol", "-1e-9"),
              ("run", "blowup_threshold", "inf"), ("run", "stage_ratio", "nan"), ("classify", "window_spans", "inf"),
              ("run", "extinction_threshold", "-inf"))],
        # one line added to a committed config: a NaN tol_classify crashed
        # classify, the NaN ones after it ran and wrote NaN into the report,
        # the threshold and ratio blew up at t = 0, and the counts were taken
        *[(command, (CONFIGS / f"{name}.cfg").read_text().replace("[numerics]\n", f"[numerics]\n{key} = {value}\n"),
           [], EXIT_VALIDATION, f"[numerics] {key}: must be {rule}")
          for name in ("linear_decay", "sqrt_logistic_point") for command, key, value, rule in NUMERICS_OUT_OF_RANGE],
    ],
    ids=["data-window", "data-touching-0", "dt-override", "horizon-override", "x_max-negative", "dt-nan",
         "horizon-inf", "x_max-inf", "empty-window", "lag-raises", "advanced-lag", "f1-overflows-the-bracket",
         "converge_rtol-nan",
         "converge_rtol-inf", "converge_rtol-negative", "blowup_threshold-inf", "stage_ratio-nan",
         "window_spans-inf", "extinction_threshold-inf",
         *[f"{name}-{key}" for name in ("linear_decay", "sqrt_logistic_point") for _, key, _, _ in NUMERICS_OUT_OF_RANGE]],
)
def test_bad_inputs_end_in_a_documented_exit_code(tmp_path, capsys, command, system, args, code, text):
    path = write_config(tmp_path, "case.cfg", system) if system else CONFIGS / "linear_decay.cfg"
    out_dir = tmp_path / "out"
    assert main([command, str(path), *args, "--out-dir", str(out_dir)]) == code
    captured = capsys.readouterr()
    reports = "".join(p.read_text() for p in sorted(out_dir.glob("*.json")))
    assert text in captured.out + captured.err + reports


class TestParseKernel:
    def test_families(self):
        assert isinstance(parse_kernel('point lag="t - 1"'), PointMassKernel)
        assert isinstance(parse_kernel('uniform lag="t-0.5"'), UniformDensityKernel)
        assert isinstance(parse_kernel('triangular lag="t-2"'), TriangularDensityKernel)
        k = parse_kernel('mixture atoms="t-1:0.5, t-2:0.5"')
        assert isinstance(k, GeneralMixtureKernel)
        assert len(k.atoms) == 2

    def test_mixture_with_density(self):
        k = parse_kernel('mixture atoms="t-1:0.25" density="0.75*2*(1-u)" density_lag="t-1"')
        assert k.density is not None

    def test_equal_descriptors_give_one_kernel(self):
        system = {"f1": "x", "f2": "x", "r1": "1", "r2": "1", "phi": "1", "psi": "1"}
        for kernel in ('point lag="t-1"', 'uniform lag="t-1"', 'mixture atoms="t-1:0.5, t-2:0.5"'):
            spec = system_from_mapping({**system, "kernel1": kernel, "kernel2": kernel})
            assert spec.k1 is spec.k2
        spec = system_from_mapping({**system, "kernel1": 'point lag="t-1"', "kernel2": 'point lag="t - 1"'})
        assert spec.k1 is not spec.k2
        with pytest.raises(ConfigError, match=r"\[system\] kernel2"):
            system_from_mapping({**system, "kernel1": 'point lag="t-1"', "kernel2": "point"})

    def test_a_shared_kernel_leaves_the_run_unchanged(self, tmp_path):
        # the same lag spelled two ways gives two kernel objects
        text = (CONFIGS / "sqrt_logistic_point.cfg").read_text()
        text = text.replace("horizon = 60", "horizon = 4")
        assert 'kernel2 = point lag="t - 1"' in text
        outs = []
        for sub, kernel2 in (("shared", 'point lag="t - 1"'), ("apart", 'point lag="t-1"')):
            (tmp_path / sub).mkdir()
            path = write_config(tmp_path / sub, "run.cfg", text.replace('kernel2 = point lag="t - 1"', f"kernel2 = {kernel2}"))
            cfg = load_config(path)
            spec = system_from_mapping(cfg.system)
            assert (spec.k1 is spec.k2) == (sub == "shared")
            result = execute_run(cfg, out_dir=tmp_path / sub)
            rep = json.loads(result.report_path.read_text())
            rep.pop("timing_seconds")
            outs.append((result.exit_code, result.trajectory_path.read_bytes(), json.dumps(rep, sort_keys=True)))
        assert outs[0] == outs[1]

    def test_errors(self):
        with pytest.raises(ConfigError, match="unknown kernel kind"):
            parse_kernel("spline lag=t")
        with pytest.raises(ConfigError, match="missing field"):
            parse_kernel("point")


class TestPipeline:
    def test_linear_decay_run(self, tmp_path):
        cfg = load_config(CONFIGS / "linear_decay.cfg")
        result = execute_run(cfg, out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        rep = result.report
        assert rep["fate"] == "to-zero"
        assert rep["outcome"]["status"] in ("reached-horizon", "converged", "extinct")
        assert max(rep["outcome"]["final_state"]) < 0.01
        assert rep["certification"]["status"] == "pass"
        assert (tmp_path / "linear_decay.csv").exists()
        assert (tmp_path / "linear_decay.json").exists()

    def test_monotonicity_gate(self, tmp_path):
        p = write_config(
            tmp_path,
            "bad.cfg",
            "[system]\nf1 = abs(x-1)\nf2 = x\nr1 = 1\nr2 = 1\n"
            'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 1\npsi = 1\n'
            "[numerics]\nhorizon = 5\n",
        )
        result = execute_run(load_config(p), out_dir=tmp_path)
        assert result.exit_code == EXIT_VALIDATION
        assert "f1" in result.message and "not-increasing" in result.message

    def test_kernel_normalization_gate(self, tmp_path):
        p = write_config(
            tmp_path,
            "bad.cfg",
            "[system]\nf1 = x\nf2 = x\nr1 = 1\nr2 = 1\n"
            'kernel1 = mixture atoms="t-1:0.5, t-2:0.6"\nkernel2 = point lag="t"\n'
            "phi = 1\npsi = 1\n[numerics]\nhorizon = 5\n",
        )
        result = execute_run(load_config(p), out_dir=tmp_path)
        assert result.exit_code == EXIT_VALIDATION
        assert "mass" in result.message

    def test_fading_rates_mismatch_explained(self, tmp_path):
        cfg = load_config(CONFIGS / "fading_rates.cfg")
        result = execute_run(cfg, out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        rep = result.report
        assert rep["fate"] == "to-equilibrium"
        assert "a5-heuristic-failed" in rep["caveats"]
        assert rep["certification"]["status"] == "mismatch-explained"
        assert rep["outcome"]["final_state"][0] == pytest.approx(4.0, abs=1e-3)

    def test_unexplained_mismatch_exits_four(self, tmp_path):
        p = write_config(
            tmp_path,
            "short.cfg",
            "[system]\nf1 = 1 + x/2\nf2 = 1 + x/2\nr1 = 1\nr2 = 1\n"
            'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 30\npsi = 30\n'
            "[numerics]\nhorizon = 0.5\ndt = 1e-3\n",
        )
        result = execute_run(load_config(p), out_dir=tmp_path)
        assert result.exit_code == EXIT_CERTIFICATION
        assert result.report["certification"]["status"] == "mismatch"

    def test_classify_only_skips_simulation(self, tmp_path):
        cfg = load_config(CONFIGS / "quadratic_blowup.cfg")
        result = execute_run(cfg, analysis_only=True, out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        assert result.report["fate"] == "to-infinity"
        assert result.report["outcome"] is None
        assert result.trajectory_path is None
        assert result.report_path.exists()

    def test_pantograph_unbounded_delay(self, tmp_path):
        cfg = load_config(CONFIGS / "pantograph_logistic.cfg")
        result = execute_run(cfg, out_dir=tmp_path)
        rep = result.report
        assert rep["fate"] == "to-equilibrium"
        assert rep["outcome"]["status"] == "reached-horizon"
        # The deviation from K = 2 solves e' = -e + e(t/2)/2 and decays only
        # like 1/t (Kato & McLeod, Bull. AMS 77, 1971): t*(x - 2) is 4.12 at
        # t = 20 and 4.22 at t = 40.  Reference x(40) from an independent
        # method-of-steps solve (DOP853 on doubling intervals [a, 2a], rtol
        # 1e-12 and 1e-13 agree to 1e-10).
        assert rep["outcome"]["final_state"][0] == pytest.approx(2.1055406274, abs=1e-6)
        checks = {c["name"]: c["status"] for c in rep["certification"]["checks"]}
        assert checks["permanence-box"] == "pass"
        assert checks["nonoscillation"] == "pass"
        assert result.exit_code == EXIT_OK

    MIXED_DATA = (
        "[system]\nf1 = 1 + x/2\nf2 = 1 + x/2\nr1 = 1\nr2 = 1\n"
        'kernel1 = point lag="{lag}"\nkernel2 = point lag="{lag}"\nphi = {phi}\npsi = 1.5\n'
        "[numerics]\ndt = 2e-2\nhorizon = 200\n"
    )

    @pytest.mark.parametrize(
        "lag, phi, numerics",
        [
            # phi is 1.5 on [-9.5, 0] but climbs to 12 at t = -20, above K = 2
            ("t - 20", "max(1.5, -t - 8)", ""),
            # phi climbs from 1.5 at t = 0 to 4.5 at t = -1, across K = 2
            ("t - 1", "1.5 - 3*t", ""),
        ],
    )
    def test_nonoscillation_reads_the_whole_data_window(self, tmp_path, lag, phi, numerics):
        p = write_config(tmp_path, "mixed.cfg", self.MIXED_DATA.format(lag=lag, phi=phi) + numerics)
        result = execute_run(load_config(p), out_dir=tmp_path)
        checks = {c["name"]: c for c in result.report["certification"]["checks"]}
        assert checks["nonoscillation"]["status"] == "skip"
        assert checks["nonoscillation"]["detail"] == "initial data not one-sided"
        assert result.exit_code == EXIT_OK

    def test_blow_up_in_the_first_step(self, tmp_path):
        # the first stage already passes the blow-up threshold: the run keeps
        # its start node alone, and the checks read that one node
        p = write_config(
            tmp_path,
            "burst.cfg",
            "[system]\nf1 = x^2 + x\nf2 = x^2 + x\nr1 = 1\nr2 = 1\n"
            'kernel1 = point lag="t"\nkernel2 = point lag="t"\nphi = 1e5\npsi = 1e5\n'
            "[numerics]\ndt = 1e-2\nhorizon = 4\n",
        )
        result = execute_run(load_config(p), out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        outcome = result.report["outcome"]
        assert outcome["status"] == "blow-up" and outcome["blowup_time"] == 0.0
        assert outcome["diagnostics"]["stage_guard"] == "stage-1"
        # the increment h * k = 1e-2 * 1e10 outran 2 * (1 + 1e5)
        assert json.loads(result.report_path.read_text())["outcome"]["diagnostics"]["guard_values"] == {
            "state": [50100000.0, 50100000.0], "increments": [1e8, 1e8], "threshold": 1e12, "bound": 200002.0}
        assert result.trajectory_path.read_text().splitlines() == ["t,x,y", "0,100000,100000"]
        assert result.report["certification"]["status"] == "pass"

    def test_bounded_f1_gets_bound_sequences(self, tmp_path):
        # f1 = 2*tanh(x) is bounded by 2, so f1^-1 has no value above 2; the
        # separator's inverse must not need one
        result = execute_run(load_config(CONFIGS / "tanh_gain.cfg"), analysis_only=True,
                             out_dir=tmp_path)
        rep = result.report
        assert result.exit_code == EXIT_OK
        assert not any("bound sequences unavailable" in n for n in rep["notes"])
        bounds = rep["bound_sequences"]
        assert bounds["converged"]
        # independent K: the fixed point of 2*tanh(K) = K by bisection
        lo, hi = 1.0, 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if 2.0 * math.tanh(mid) > mid else (lo, mid)
        assert bounds["lower_end"][0] <= lo <= hi <= bounds["upper_end"][0]
        assert rep["K"] == pytest.approx(lo, abs=rep["numerics"]["tol_classify"])

    def test_point_lag_final_state_is_plain_float(self, tmp_path, capsys):
        cfg = load_config(CONFIGS / "sqrt_logistic_point.cfg")
        cfg.numerics.horizon = 3.0
        rep = execute_run(cfg, out_dir=tmp_path).report
        assert [type(v) for v in rep["outcome"]["final_state"]] == [float, float]
        main(["run", str(CONFIGS / "sqrt_logistic_point.cfg"), "--horizon", "3",
              "--out-dir", str(tmp_path)])
        assert "np.float64" not in capsys.readouterr().out

    def test_reports_note_conventions(self, tmp_path):
        cfg = load_config(CONFIGS / "linear_decay.cfg")
        result = execute_run(cfg, out_dir=tmp_path)
        notes = " ".join(result.report["notes"])
        assert "evaluate to 0" in notes
        assert "sampled horizon" in notes


class TestRelationScans:
    SYSTEM = (
        "[system]\nf1 = sqrt(x) + 2\nf2 = x\nr1 = 1\nr2 = 1\n"
        'kernel1 = point lag="t - 1"\nkernel2 = point lag="t - 1"\n'
    )

    @pytest.mark.parametrize(
        "data, numerics, scans",
        [
            ("phi = 5\npsi = 5\n", "", 2),  # x_max = 50 is the window scanned first
            ("phi = 1\npsi = 1\n", "", 3),  # K = 4 widens x_max to 40: scanned again
            ("phi = 5\npsi = 5\n", "x_max = 30\n", 2),  # fixed window, no window scan
        ],
    )
    def test_classification_reuses_the_window_scan(self, tmp_path, monkeypatch, data, numerics, scans):
        calls = []
        scan = analysis.scan_relation

        def counted(*args, **kwargs):
            calls.append(args[2])
            return scan(*args, **kwargs)

        monkeypatch.setattr(analysis, "scan_relation", counted)
        p = write_config(tmp_path, "s.cfg", self.SYSTEM + data + "[numerics]\n" + numerics)
        cfg = load_config(p)
        result = execute_run(cfg, analysis_only=True, out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        assert len(calls) == scans
        spec = system_from_mapping(cfg.system)
        num = cfg.numerics
        fresh = classify(spec.f1, spec.f2, result.report["numerics"]["x_max"],
                         num.tol_classify, num.scan_grid)
        assert result.report["classification"] == fresh.to_dict()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_path = CONFIGS / "linear_decay.cfg"
        outs = []
        for sub in ("a", "b"):
            result = execute_run(load_config(cfg_path), out_dir=tmp_path / sub)
            assert result.exit_code == EXIT_OK
            csv = result.trajectory_path.read_bytes()
            rep = json.loads(result.report_path.read_text())
            rep.pop("timing_seconds")
            outs.append((csv, json.dumps(rep, sort_keys=True)))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main(["run", str(CONFIGS / "linear_decay.cfg"), "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fate=to-zero" in out

    def test_run_with_overrides(self, tmp_path):
        code = main([
            "run", str(CONFIGS / "linear_decay.cfg"),
            "--dt", "1e-2", "--horizon", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        rep = json.loads((tmp_path / "linear_decay.json").read_text())
        assert rep["numerics"]["dt"] == 1e-2
        assert rep["numerics"]["horizon"] == 2.0

    def test_classify_subcommand(self, tmp_path, capsys):
        code = main(["classify", str(CONFIGS / "quadratic_blowup.cfg"), "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert "to-infinity" in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # `python -m coopdelay`, with the package on the path as the tests
        # find it, not installed
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(coopdelay.__file__).parent.parent),
                                                            os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "coopdelay", "classify", str(CONFIGS / "linear_decay.cfg"),
                               "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "fate=to-zero" in done.stdout
        assert (tmp_path / "linear_decay.json").exists()

    def test_preset_list(self, capsys):
        assert main(["preset", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("tanh", "lotka_volterra", "gopalsamy"):
            assert name in out

    def test_preset_emit_and_run(self, tmp_path, capsys):
        target = tmp_path / "tanh.cfg"
        code = main([
            "preset", "emit", "tanh",
            "--param", "c1=2", "--param", "c2=2", "--param", "tau=0.5",
            "--out", str(target),
        ])
        assert code == EXIT_OK
        cfg = load_config(target)
        result = execute_run(cfg, analysis_only=True, out_dir=tmp_path)
        assert result.exit_code == EXIT_OK
        assert result.report["fate"] == "to-equilibrium"

    def test_preset_emit_bad_param(self, tmp_path, capsys):
        code = main(["preset", "emit", "gopalsamy", "--param", "alpha1=0.1",
                     "--out", str(tmp_path / "g.cfg")])
        assert code == EXIT_VALIDATION

    def test_batch(self, tmp_path, capsys):
        self.assert_batch_runs(tmp_path, capsys, "1")

    def test_batch_in_a_process_pool(self, tmp_path, capsys):
        self.assert_batch_runs(tmp_path, capsys, "2")

    @staticmethod
    def assert_batch_runs(tmp_path, capsys, jobs):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        for name in ("linear_decay.cfg", "quadratic_blowup.cfg"):
            (batch_dir / name).write_text((CONFIGS / name).read_text())
        code = main(["batch", str(batch_dir), "--out-dir", str(tmp_path / "out"), "--jobs", jobs])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "linear_decay.cfg: exit=0" in out
        assert "quadratic_blowup.cfg: exit=0" in out
        assert sorted(p.name for p in (tmp_path / "out").glob("*.json")) == [
            "linear_decay.json", "quadratic_blowup.json"]

    def test_importing_the_cli_leaves_multiprocessing_out(self):
        # only `batch` with a pool needs it; a fresh interpreter shows what
        # the import alone loads
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(coopdelay.__file__).parent.parent),
                                                            os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", "import sys, coopdelay.cli; "
                               "print('multiprocessing' in sys.modules)"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_batch_rejects_jobs_below_one(self, tmp_path, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was made")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        (batch_dir / "linear_decay.cfg").write_text((CONFIGS / "linear_decay.cfg").read_text())
        assert main(["batch", str(batch_dir), "--jobs", jobs]) == EXIT_VALIDATION
        assert "--jobs" in capsys.readouterr().err

    def test_config_text_round_trip(self, tmp_path):
        text = config_text(
            {"f1": "x", "f2": "x", "r1": "1", "r2": "1",
             "kernel1": 'point lag="t"', "kernel2": 'point lag="t"',
             "phi": "1", "psi": "1"},
            numerics={"horizon": 5.0},
        )
        p = tmp_path / "rt.cfg"
        p.write_text(text)
        cfg = load_config(p)
        assert cfg.numerics.horizon == 5.0
