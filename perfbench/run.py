"""Benchmark of record for coopdelay.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload through the public pipeline (``cli.execute_run`` on a
``RunConfig``), one job after another in this process, and checks every
job's outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit and sample count, the seed and
the drawn parameter list (classify_sweep), so a run can be replayed.

``--trace 0`` measures the end-to-end metrics with tracing off: passes over
the job list are repeated for ``--seconds`` (at least two, so each job runs
twice and its outputs can be compared).  Each job's time is the mean over
passes of its reference time (perfbench/speed.py: wall time with the shared
host's speed drift divided out); wall_s sums them over the job list and
job_ms_p50/p90 are percentiles over the jobs that exit 0.  ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics, from wrappers installed by perfbench/tracing.py,
and the tracing overhead.

A job that exits nonzero is a failure: it counts in ``failed`` and in
``fail_share`` and is never filtered out.  An exit code a job may not end
with (see workloads.build_jobs), a missing report, a report whose fate or
outcome status differs from perfbench/expected.json, or outputs that
differ between two runs of the job make ``correct`` false and the command
exit 1 after printing its result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    import speed
    import tracing
    import workloads
except ImportError as e:  # the checkout does not hold the program
    sys.exit(f"perfbench: cannot run here: {e}")

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_LAUNCHES = 7
MIN_PASSES = 2


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup_seconds(workload: str, seed: int) -> float:
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), repr(t_spawn)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _print_draws(seed: int, draws) -> None:
    print(f"seed: {seed}")
    if draws:
        print("draws: " + json.dumps([d.to_dict() for d in draws], separators=(",", ":")))


def _summary(results_by_pass) -> tuple[int, int]:
    attempted = sum(len(r) for r in results_by_pass)
    failed = sum(1 for r in results_by_pass for res in r if res.exit_code != 0)
    return attempted, failed


def _print_failures(results) -> None:
    for res in results:
        if res.exit_code != 0:
            print(f"failed job {res.name}: exit {res.exit_code}: {res.message.strip()[:200]}")


def end_to_end(workload: str, seed: int, seconds: float, out_root: Path):
    setup = [_setup_seconds(workload, seed) for _ in range(SETUP_LAUNCHES)]
    jobs, draws = workloads.build_jobs(workload, seed)
    _print_draws(seed, draws)

    passes, problems = [], []
    t_start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        while True:
            wall, results = workloads.run_pass(jobs, out_root / f"pass{len(passes)}", sampler)
            problems += workloads.check_results(jobs, results, passes[0] if passes else None)
            passes.append(results)
            if len(passes) == 1:  # later passes only add allocator churn
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_start + wall > seconds:
                break

    job_ms = [statistics.mean(results[i].ref_ms for results in passes) for i in range(len(jobs))]
    ok_ms = [ms for ms, res in zip(job_ms, passes[0]) if res.exit_code == 0]
    # inclusive: the percentile stays within the observed jobs' times
    p90 = statistics.quantiles(ok_ms, n=10, method="inclusive")[8]
    total_s = sum(job_ms) / 1e3
    if workload in workloads.PROBES:
        errs = workloads.probe_errors(workload, workloads.PROBE_DT, out_root / "probes")
    else:
        errs = workloads.k_errors(jobs, passes[0])
    attempted, failed = _summary(passes)
    metrics = {
        "wall_s": _metric(total_s, "s"),
        "jobs_per_s": _metric(len(ok_ms) / total_s, "1/s"),
        "job_ms_p50": _metric(statistics.median(ok_ms), "ms"),
        "job_ms_p90": _metric(p90, "ms"),
        "err_geo": _metric(workloads.geometric_mean(list(errs.values())), "ratio"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    samples = {
        "wall_s": f"sum of {len(jobs)} jobs, each the mean of {len(passes)} passes, reference seconds",
        "jobs_per_s": f"{len(ok_ms)} exit-0 jobs",
        "job_ms_p50": f"{len(ok_ms)} exit-0 jobs",
        "job_ms_p90": f"{len(ok_ms)} exit-0 jobs, {sum(ms > p90 for ms in ok_ms)} beyond",
        "err_geo": f"{len(errs)} probes: " + ", ".join(f"{k}={v:.3g}" for k, v in errs.items()),
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "this process, through its first pass",
    }
    _print_failures(passes[0])
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}  ({samples[name]})")
    print(f"fail_share = {failed / attempted!r} ratio  ({failed} of {attempted} jobs exited nonzero)")
    return problems, attempted, failed, metrics


def per_layer(workload: str, seed: int, out_root: Path):
    # observed order between steps 2*PROBE_DT and PROBE_DT; below about 1e-9
    # the window probes' errors stop shrinking with dt (see make_references.py)
    coarse = workloads.probe_errors(workload, 2 * workloads.PROBE_DT, out_root / "probes")
    fine = workloads.probe_errors(workload, workloads.PROBE_DT, out_root / "probes")
    orders = {name: math.log2(coarse[name] / fine[name]) for name in fine}

    t0 = time.perf_counter()
    jobs, draws = workloads.build_jobs(workload, seed)
    _, plain = workloads.run_pass(jobs, out_root / "untraced")
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        traced_jobs, _ = workloads.build_jobs(workload, seed)
        _, traced = workloads.run_pass(traced_jobs, out_root / "traced")
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()

    _print_draws(seed, draws)
    problems = workloads.check_results(jobs, plain)
    problems += workloads.check_results(traced_jobs, traced, plain)
    problems += [f"traced name not found: {m}" for m in tracer.missing]
    values = tracing.layer_metrics(tracer)
    values["integrator.order_min"] = min(orders.values()) if orders else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = {name: _metric(values[name], units[name]) for name in units}
    _print_failures(plain)
    print("orders: " + ", ".join(f"{k}={v:.3f}" for k, v in orders.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    attempted, failed = _summary([plain, traced])
    return problems, attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    out_root = workloads.program.ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    if args.trace:
        problems, attempted, failed, metrics = per_layer(args.workload, args.seed, out_root)
    else:
        problems, attempted, failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds, out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    if out_root.parent.is_dir() and not any(out_root.parent.iterdir()):
        out_root.parent.rmdir()
    for p in problems:
        print(f"output check: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
