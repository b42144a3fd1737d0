"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Every traced name must see calls on the workload meant to exercise it, so
a name that was silently left unwrapped (or renamed in the package) cannot
read as zero cost.  The workloads run shortened: simulation horizons capped
at t = 2 and two draws per preset cell.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from program import expr  # noqa: E402

EXERCISED = {
    "sim_window": (
        "expr.evaluate_array.calls", "expr.evaluate_array.elems", "kernels.window.calls",
        "kernels.window.nodes", "integrator.lookup_array.calls", "integrator.lookup_array.nodes",
        "integrator.steps", "integrator.history_segments", "dynamics.rhs.calls",
        "integrator.to_csv.s", "analysis.permanence_bounds.s", "analysis.monotone_iteration.steps",
        "analysis.contraction_iteration.s", "analysis.certify_run.s",
    ),
    "sim_point": (
        "expr.evaluate.calls", "kernels.point.calls", "integrator.lookup_scalar.calls",
        "dynamics.rhs.calls", "integrator.steps", "integrator.rhs_per_step",
    ),
    "classify_sweep": (
        "presets.preset_system_mapping.s", "config.load_config.s", "config.system_from_mapping.s",
        "functions.inverse.calls", "functions.inverse.s", "functions.inverse.evals_per_call",
        "functions.verify_increasing.s", "kernels.validate_kernel.s", "dynamics.validate_system.s",
        "dynamics.check_rate_divergence.s", "analysis.scan_relation.calls", "analysis.scan_relation.s",
        "analysis.classify.s", "analysis.monotone_iteration.s", "analysis.contraction_iteration.s",
        "cli.execute_run.s", "cli.resolve_x_max.s",
    ),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for workload in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            jobs, _ = workloads.build_jobs(workload, 0)
            if workload in workloads.SIM_CONFIGS:
                for job in jobs:
                    job.config.numerics.horizon = min(job.config.numerics.horizon, 2.0)
            else:  # the committed configs, then draws 0 and 7 of each 14-draw cell
                jobs = jobs[:len(workloads.COMMITTED_CONFIGS)] + jobs[len(workloads.COMMITTED_CONFIGS)::7]
            workloads.run_pass(jobs, tmp_path_factory.mktemp(workload))
        finally:
            tracer.restore()
        out[workload] = (tracer, tracing.layer_metrics(tracer))
    return out


def test_every_wrapped_name_was_found(traced):
    for tracer, _ in traced.values():
        assert tracer.missing == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exercised_names_have_calls(traced, workload):
    metrics = traced[workload][1]
    zero = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert zero == []


def test_every_layer_metric_is_checked_on_some_workload(traced):
    metrics = traced["sim_point"][1]
    per_call = {name for name in metrics if name.endswith("_us")}
    assert set(metrics) - per_call <= {name for names in EXERCISED.values() for name in names}
    for workload, (_, values) in traced.items():
        for name in per_call - {"integrator.step_us"}:
            calls = values[name.replace("self_us", "calls")]
            assert (values[name] > 0) == (calls > 0), (workload, name)


def test_bypassed_layers_read_zero(traced):
    assert traced["sim_point"][1]["kernels.window.calls"] == 0
    assert traced["classify_sweep"][1]["integrator.steps"] == 0


def test_restore_removes_every_wrapper(traced):
    assert not hasattr(expr.Expression.evaluate, "__wrapped__")
    assert expr.Expression.__call__ is expr.Expression.evaluate


def test_draws_are_a_function_of_the_seed():
    first = [d.to_dict() for d in workloads.draw_presets(5)]
    assert first == [d.to_dict() for d in workloads.draw_presets(5)]
    assert first != [d.to_dict() for d in workloads.draw_presets(6)]
    assert len(first) == len(workloads.PRESET_NAMES) * len(workloads.KERNEL_FAMILIES) * workloads.CELL_DRAWS


def test_check_flags_wrong_fate_and_differing_outputs():
    job = workloads.Job("j", None, True, "to-zero", None, (0,))
    good = workloads.JobResult("j", None, 0, fate="to-zero", digest="a")
    assert workloads.check_results([job], [good], [good]) == []
    wrong = workloads.JobResult("j", None, 0, fate="to-infinity", digest="a")
    assert len(workloads.check_results([job], [wrong])) == 1
    drift = workloads.JobResult("j", None, 0, fate="to-zero", digest="b")
    assert len(workloads.check_results([job], [drift], [good])) == 1


def test_check_flags_lost_reports_and_unexpected_exits():
    job = workloads.Job("j", None, True, "to-zero", None, (0,))
    for exit_code in (2, 3, "exception"):  # a job that stops writing its report
        lost = workloads.JobResult("j", None, exit_code, message="...")
        assert len(workloads.check_results([job], [lost])) == 1
    silent = workloads.JobResult("j", None, 0)
    assert len(workloads.check_results([job], [silent])) == 1
    with_k = workloads.Job("j", None, True, "to-equilibrium", None, (0,), k_exact=2.0)
    no_k = workloads.JobResult("j", None, 0, fate="to-equilibrium")
    assert len(workloads.check_results([with_k], [no_k])) == 1


def test_only_the_known_defects_may_fail():
    jobs, _ = workloads.build_jobs("classify_sweep", 0)
    for job in jobs:
        if job.name in workloads.EXPECTED["classify"]:
            assert job.exits == (workloads.EXPECTED["classify"][job.name]["exit"],)
        else:
            assert job.exits == ((0, 2) if job.name.startswith("tanh-") else (0,)), job.name
    tanh = next(job for job in jobs if job.name.startswith("tanh-"))
    plateau = workloads.JobResult(tanh.name, None, 2, message="validation: ...")
    assert workloads.check_results([tanh], [plateau]) == []
    crashed = workloads.JobResult(tanh.name, None, "exception", message="Traceback ...")
    assert len(workloads.check_results([tanh], [crashed])) == 1
    gopalsamy = next(job for job in jobs if job.name.startswith("gopalsamy-"))
    rejected = workloads.JobResult(gopalsamy.name, None, 2, message="validation: ...")
    assert len(workloads.check_results([gopalsamy], [rejected])) == 1
    jobs, _ = workloads.build_jobs("sim_point", 0)
    assert {job.name: job.exits for job in jobs}["pantograph_logistic"] == (4,)
