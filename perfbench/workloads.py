"""Workload job lists, seeded preset draws, output checks and accuracy probes.

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``sim_window`` -- the committed density-window configs.  Time goes to the
  Simpson kernel integrals over array history lookups.  Covers the
  converged and the blow-up stop.  ``exp_log_extinction`` is left out: it
  takes the same triangular path at three times the cost.
* ``sim_point`` -- the committed point-lag configs.  Scalar Hermite lookups
  and scalar expression evaluation, no quadrature.  Covers the converged,
  blow-up, reached-horizon and fading-rate paths, and a proportional lag
  (``pantograph_logistic``) that reads back across the whole history.
* ``classify_sweep`` -- analysis only (the path behind ``coopdelay
  classify``) over the ten committed configs plus seeded draws of the three
  presets crossed with three kernel families.  No integration; time goes
  to nested bisection inverses, relation scans and validation.

Only ``classify_sweep`` depends on the seed.  Its draws are Latin-hypercube
samples: within each (preset, kernel) cell every parameter takes one value
from each of ``CELL_DRAWS`` equal strata of its range, in a seeded order.
That keeps the mix of cheap and expensive draws the same from seed to
seed while the drawn values change, so timings compare across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import program
from program import cli, config, presets

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = ("sim_window", "sim_point", "classify_sweep")
SIM_CONFIGS = {
    "sim_window": ("logistic_distributed", "sqrt_logistic_triangular", "quadratic_integro"),
    "sim_point": (
        "sqrt_logistic_point", "tanh_gain", "pantograph_logistic",
        "linear_decay", "quadratic_blowup", "fading_rates",
    ),
}
COMMITTED_CONFIGS = tuple(sorted(p.stem for p in program.CONFIGS.glob("*.cfg")))

# Accuracy probes: fixed inputs, state at PROBE_T with step PROBE_DT against a
# committed reference (see make_references.py for why these and not others).
PROBES = {
    "sim_window": ("logistic_distributed", "sqrt_logistic_triangular"),
    "sim_point": ("sqrt_logistic_point", "tanh_gain", "pantograph_logistic"),
}
PROBE_T = 3.0
PROBE_DT = 0.02
# errors below double resolution are reported at resolution, so a probe that
# happens to hit its reference exactly cannot zero the geometric mean
ERR_FLOOR = 2.0**-52

PRESET_NAMES = ("tanh", "lotka_volterra", "gopalsamy")
KERNEL_FAMILIES = ("point", "uniform", "triangular")
CELL_DRAWS = 14
SWEEP_HORIZON = 60.0  # what `coopdelay preset emit` writes

_COMMON_RANGES = {"tau": (0.5, 2.0), "span": (0.5, 2.0), "phi": (0.5, 3.0), "psi": (0.5, 3.0)}
# "gain" is the loop gain of the linearised pair.  Each band keeps clear of
# 1, where the fate changes, so every draw has a definite predicted fate.
# Lotka-Volterra's stable band stops at 0.6: the bound sequences need more
# steps as the gain nears 1 (about 150 at 0.75, up to the 500-step cap when
# the separator walk also fires), and a few such draws per seed would make
# the sweep's cost depend on the seed far more than on the program.
# For the same reason Lotka-Volterra initial data are placed relative to
# f2(0): phi = f1(x) with x 0.6 to 3 times f2(0), and psi 1.25 to 3 times
# f2(0).  When f1^-1(phi) or psi sits far below f2(0)/2, the separator walk
# goes deep and the bound sequences run to their 500-step cap; how many
# draws land in that corner would otherwise set the sweep's cost.
_PRESET_RANGES = {
    "tanh": {"c1": (0.5, 3.0), "mu1": (0.5, 2.0), "mu2": (0.5, 2.0), "gain": (0.0, 1.0)},
    "lotka_volterra": {
        "A1": (0.5, 2.0), "A2": (0.5, 2.0), "a1": (1.0, 3.0), "a2": (1.0, 3.0),
        "b1": (0.5, 1.5), "gain": (0.0, 1.0), "rho1": (0.6, 3.0), "rho2": (1.25, 3.0),
    },
    "gopalsamy": {"K1": (0.5, 2.0), "K2": (0.5, 2.0), "ratio1": (1.5, 4.0), "ratio2": (1.5, 4.0)},
}


@dataclass
class Job:
    name: str
    config: object  # coopdelay.config.RunConfig
    analysis_only: bool
    expect_fate: str
    expect_status: str | None
    exits: tuple[int, ...]  # the exit codes the job may end with
    k_exact: float | None = None


@dataclass
class JobResult:
    name: str
    ref_ms: float | None  # reference time, see speed.py; None without a sampler
    exit_code: int | str
    message: str = ""
    fate: str | None = None
    status: str | None = None
    K: float | None = None
    digest: str = ""


@dataclass
class Draw:
    preset: str
    kernel: str
    params: dict
    expect_fate: str
    gain: float | None = None

    def to_dict(self) -> dict:
        return {"preset": self.preset, "kernel": self.kernel, "params": self.params,
                "gain": self.gain, "expect_fate": self.expect_fate}


# ---------------------------------------------------------------------------
# seeded draws


def _latin_hypercube(rng: random.Random, ranges: dict, n: int) -> list[dict]:
    columns = {}
    for name, (lo, hi) in ranges.items():
        strata = rng.sample(range(n), n)
        columns[name] = [lo + (s + rng.random()) * (hi - lo) / n for s in strata]
    return [{name: col[i] for name, col in columns.items()} for i in range(n)]


def _r(v: float) -> float:
    return round(v, 4)


def _preset_params(preset: str, kernel: str, u: dict) -> Draw:
    params = {"kernel": kernel, "tau": _r(u["tau"]), "span": _r(u["span"]),
              "phi": str(_r(u["phi"])), "psi": str(_r(u["psi"]))}
    if preset == "tanh":
        g = 0.3 + 0.8 * u["gain"] if u["gain"] < 0.5 else 1.5 + 5.0 * (u["gain"] - 0.5)
        c1, mu1, mu2 = _r(u["c1"]), _r(u["mu1"]), _r(u["mu2"])
        c2 = _r(g * mu1 * mu2 / c1)
        params.update(c1=c1, c2=c2, mu1=mu1, mu2=mu2)
        gain = c1 * c2 / (mu1 * mu2)
        fate = "to-equilibrium" if gain > 1.0 else "to-zero"
    elif preset == "lotka_volterra":
        g = 0.2 + 0.8 * u["gain"] if u["gain"] < 0.5 else 1.5 + 3.0 * (u["gain"] - 0.5)
        a1, a2, b1 = _r(u["a1"]), _r(u["a2"]), _r(u["b1"])
        b2 = _r(g * a1 * a2 / b1)
        A1, A2 = _r(u["A1"]), _r(u["A2"])
        f2_0 = A2 / a2
        params.update(A1=A1, A2=A2, a1=a1, a2=a2, b1=b1, b2=b2,
                      phi=str(_r((A1 + b1 * u["rho1"] * f2_0) / a1)),
                      psi=str(_r(u["rho2"] * f2_0)))
        gain = b1 * b2 / (a1 * a2)
        fate = "to-equilibrium" if gain < 1.0 else "to-infinity"
    else:
        K1, K2 = _r(u["K1"]), _r(u["K2"])
        params.update(K1=K1, K2=K2, alpha1=_r(K1 * u["ratio1"]), alpha2=_r(K2 * u["ratio2"]))
        gain = None
        fate = "to-equilibrium"  # bounded, facilitating: always one crossing
    return Draw(preset, kernel, params, fate, None if gain is None else round(gain, 6))


def draw_presets(seed: int) -> list[Draw]:
    """The classify_sweep draws for a seed: a pure function of its arguments."""
    rng = random.Random(seed)
    draws = []
    for preset in PRESET_NAMES:
        ranges = {**_COMMON_RANGES, **_PRESET_RANGES[preset]}
        for kernel in KERNEL_FAMILIES:
            for u in _latin_hypercube(rng, ranges, CELL_DRAWS):
                draws.append(_preset_params(preset, kernel, u))
    return draws


# ---------------------------------------------------------------------------
# job lists


def load_committed(name: str):
    return config.load_config(program.CONFIGS / f"{name}.cfg")


def build_jobs(workload: str, seed: int) -> tuple[list[Job], list[Draw]]:
    """Load and build every job of a workload.

    Builds each system once (and discards it) so that a config the program
    cannot build fails here, in set-up.  A committed config may end only
    with the exit code recorded for it; a seeded draw must exit 0, except
    that a tanh draw may exit 2 (validation) from the known defect of the
    increasing-function gate on tanh's saturated plateau.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jobs: list[Job] = []
    draws: list[Draw] = []
    if workload in SIM_CONFIGS:
        for name in SIM_CONFIGS[workload]:
            exp = EXPECTED["run"][name]
            jobs.append(Job(name, load_committed(name), False, exp["fate"], exp["status"],
                            (exp["exit"],)))
    else:
        for name in COMMITTED_CONFIGS:
            exp = EXPECTED["classify"][name]
            jobs.append(Job(name, load_committed(name), True, exp["fate"], None, (exp["exit"],),
                            EXPECTED["equilibrium_K"].get(name)))
        draws = draw_presets(seed)
        counts: dict[tuple, int] = {}
        for d in draws:
            i = counts[(d.preset, d.kernel)] = counts.get((d.preset, d.kernel), 0) + 1
            label = f"{d.preset}-{d.kernel}-{i:02d}"
            cfg = config.RunConfig(
                system=presets.preset_system_mapping(d.preset, d.params),
                numerics=config.Numerics(horizon=SWEEP_HORIZON),
                outputs=config.Outputs(report=f"{label}.json"),
                label=label,
            )
            exits = (cli.EXIT_OK, cli.EXIT_VALIDATION) if d.preset == "tanh" else (cli.EXIT_OK,)
            jobs.append(Job(label, cfg, True, d.expect_fate, None, exits))
    for job in jobs:
        num = job.config.numerics
        config.system_from_mapping(job.config.system, max_lag_bound=num.max_lag_bound,
                                   unbounded_delay_ok=num.unbounded_delay_ok,
                                   label=job.config.label)
    return jobs, draws


# ---------------------------------------------------------------------------
# running and checking


def _digest(result) -> str:
    """Hash of the report without its timing, plus the trajectory CSV bytes."""
    h = hashlib.sha256()
    if result.report_path is not None:
        report = json.loads(result.report_path.read_text())
        report.pop("timing_seconds", None)
        h.update(json.dumps(report, sort_keys=True).encode())
    if result.trajectory_path is not None:
        h.update(b"\0csv\0" + result.trajectory_path.read_bytes())
    return h.hexdigest()


def run_pass(jobs: list[Job], out_dir: Path, sampler=None) -> tuple[float, list[JobResult]]:
    """Run every job once, one after another; returns (wall seconds, results).

    The wall time covers the jobs only; reading their outputs back for the
    checks happens after the clock stops.  With a speed.SpeedSampler running,
    each result also carries the job's reference time.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = []
    t_pass = time.perf_counter()
    for job in jobs:
        mark = sampler.mark() if sampler is not None else None
        t0 = time.perf_counter()
        try:
            res = cli.execute_run(job.config, analysis_only=job.analysis_only, out_dir=out_dir)
        except Exception:  # a crash is a failed job, recorded with its traceback
            res = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        ref = sampler.reference_seconds(seconds, mark) if sampler is not None else None
        raw.append((job, res, None if ref is None else 1e3 * ref))
    wall = time.perf_counter() - t_pass
    results = []
    for job, res, ref_ms in raw:
        if isinstance(res, str):
            results.append(JobResult(job.name, ref_ms, "exception", res))
            continue
        rep = res.report or {}
        results.append(JobResult(
            job.name, ref_ms, res.exit_code, res.message,
            fate=rep.get("fate"), status=(rep.get("outcome") or {}).get("status"),
            K=rep.get("K"), digest=_digest(res),
        ))
    shutil.rmtree(out_dir)
    return wall, results


def check_results(jobs: list[Job], results: list[JobResult],
                  reference: list[JobResult] | None = None) -> list[str]:
    """Problems with one pass: an exit code the job may not end with, a
    missing report or equilibrium, a report whose fate or outcome status
    differs from the recorded value, or outputs that differ from the
    reference pass.  A job that crashes ("exception") is always a problem;
    an allowed nonzero exit is a failure, counted by the caller."""
    problems = []
    for i, (job, res) in enumerate(zip(jobs, results)):
        if res.exit_code not in job.exits:
            problems.append(f"{job.name}: exit {res.exit_code}, expected "
                            f"{' or '.join(map(str, job.exits))}: {res.message.strip()[:300]}")
            continue
        if res.exit_code not in (cli.EXIT_OK, cli.EXIT_CERTIFICATION):
            continue  # validation and numerical exits write no report
        if res.fate is None:
            problems.append(f"{job.name}: exit {res.exit_code} without a report")
            continue
        if res.fate != job.expect_fate or res.status != job.expect_status:
            problems.append(
                f"{job.name}: fate={res.fate} status={res.status}, "
                f"expected fate={job.expect_fate} status={job.expect_status}"
            )
        if job.k_exact is not None and res.K is None:
            problems.append(f"{job.name}: report has no equilibrium K, expected {job.k_exact}")
        if reference is not None and reference[i].digest != res.digest:
            problems.append(f"{job.name}: outputs differ between two runs of the job")
    return problems


def k_errors(jobs: list[Job], results: list[JobResult]) -> dict[str, float]:
    """Relative error of each reported equilibrium K against its exact value,
    counted from the job's classification tolerance up: an error inside the
    tolerance the analysis promises is not a loss of accuracy.  A job that
    should report K and does not is flagged by check_results."""
    return {
        job.name: max(abs(res.K - job.k_exact) / max(1.0, abs(job.k_exact)),
                      job.config.numerics.tol_classify)
        for job, res in zip(jobs, results)
        if job.k_exact is not None and res.K is not None
    }


# ---------------------------------------------------------------------------
# accuracy probes


def probe_state(name: str, dt: float, out_dir: Path) -> tuple[float, float]:
    """State at PROBE_T of a committed config run with step dt."""
    cfg = load_committed(name)
    cfg.numerics.dt = dt
    cfg.numerics.horizon = PROBE_T
    res = cli.execute_run(cfg, out_dir=out_dir)
    outcome = (res.report or {}).get("outcome") or {}
    if outcome.get("t_final") != PROBE_T or outcome.get("status") != "reached-horizon":
        raise RuntimeError(
            f"probe {name} at dt={dt}: expected to reach t={PROBE_T}, got "
            f"{outcome.get('status')} at t={outcome.get('t_final')} ({res.message})"
        )
    x, y = outcome["final_state"]
    return float(x), float(y)


def probe_error(name: str, state: tuple[float, float]) -> float:
    xr, yr = EXPECTED["probes"][name]["state"]
    return max(abs(state[0] - xr), abs(state[1] - yr)) / max(1.0, abs(xr), abs(yr))


def probe_errors(workload: str, dt: float, out_dir: Path) -> dict[str, float]:
    errs = {name: probe_error(name, probe_state(name, dt, out_dir)) for name in PROBES.get(workload, ())}
    shutil.rmtree(out_dir, ignore_errors=True)
    return errs


def geometric_mean(errs: list[float]) -> float:
    logs = [math.log(max(e, ERR_FLOOR)) for e in errs]
    return math.exp(sum(logs) / len(logs))

