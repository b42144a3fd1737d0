"""Command-line pipeline: validate, classify, simulate, certify, report.

Exit codes: 0 success (including an explained prediction/simulation
mismatch), 2 validation failure, 3 numerical failure, 4 certification
mismatch with no explaining caveat.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import analysis
from .analysis import (
    BoxConstructionError,
    RelationClass,
    StallError,
    certify_run,
    choose_separator,
    classify,
    contraction_iteration,
    contraction_start,
    monotone_iteration,
    permanence_bounds,
)
from .config import (ConfigError, Numerics, RunConfig, check_numerics, config_text, load_config,
                     system_from_mapping)
from .dynamics import RATE_DIVERGENCE_CAVEAT, check_rate_divergence, validate_system
from .expr import EvalDomainError
from .integrator import IntegrationError, integrate
from .presets import PRESETS, PresetParameterError, preset_system_mapping

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4

REPORT_SCHEMA = 1
# the phases of `execute_run` timed in the report's timing_seconds, in order
PHASES = ("setup", "classify", "certificates", "integrate", "certify", "csv")

GLOBAL_NOTES = [
    "inverse values below a production function's range evaluate to 0; "
    "the convention is applied globally and can widen lower bounds",
]


@dataclass
class RunResult:
    exit_code: int
    report: dict | None = None
    message: str = ""
    trajectory_path: Path | None = None
    report_path: Path | None = None


def resolve_x_max(spec, numerics: Numerics) -> tuple[float, RelationClass | None]:
    """Inspection window: 10x the larger of data sup and (if found) K.

    Returns the window and, when its scan covered exactly that window with
    the classification's tolerance and grid, the relation it found, so the
    classification need not scan it again.
    """
    if numerics.x_max is not None:
        return numerics.x_max, None
    t_floor = spec.data_floor()
    try:
        _, hi1 = spec.phi.bounds(t_floor)
        _, hi2 = spec.psi.bounds(t_floor)
    except EvalDomainError:  # validate_system names the initial data it cannot evaluate
        hi1 = hi2 = 1.0
    x0 = 10.0 * max(1.0, hi1, hi2)
    try:
        rel = analysis.scan_relation(spec.f1, spec.f2, x0, numerics.tol_classify,
                                     numerics.scan_grid)
    except Exception:
        return x0, None
    if rel.K is not None and 10.0 * rel.K > x0:
        return 10.0 * rel.K, None
    return x0, rel


def _build_certificates(spec, cls, numerics: Numerics, notes: list[str]):
    """Permanence box and bound sequences appropriate for the fate.

    To-equilibrium: the box, then the monotone bound sequences from its
    corners.  A failure of either, including a production function that
    cannot be evaluated where the separator's bracket reaches, is a note
    in the report and leaves that certificate out; the run goes on."""
    box = None
    bounds = None
    t_floor = spec.data_floor()
    lo1, hi1 = spec.phi.bounds(t_floor)
    lo2, hi2 = spec.psi.bounds(t_floor)
    if cls.fate == "to-equilibrium":
        K = cls.relation.K
        try:
            box = permanence_bounds(
                spec.f1, spec.f2, K, (lo1, lo2), (hi1, hi2),
                slack=numerics.slack, alpha0=numerics.alpha,
            )
        except (BoxConstructionError, ValueError) as e:  # data touching 0 have no box
            notes.append(f"permanence box unavailable: {e}")
        if box is not None:
            try:
                g = choose_separator(spec.f1, spec.f2, b_floor=box.m2, alpha0=numerics.alpha)
                bounds = monotone_iteration(
                    spec.f1, spec.f2, g, K, (box.m1, box.m2, box.M1, box.M2),
                    n_max=numerics.n_max_iteration, tol=numerics.tol_iteration,
                )
            except (StallError, BoxConstructionError, ValueError, EvalDomainError) as e:
                notes.append(f"bound sequences unavailable: {e}")
    elif cls.fate in ("to-zero", "to-infinity"):
        kind = cls.relation.kind
        try:
            start = contraction_start(
                spec.f1, spec.f2, (lo1, lo2), (hi1, hi2), kind, slack=numerics.slack
            )
            bounds = contraction_iteration(
                spec.f1, spec.f2, start,
                n_max=numerics.n_max_iteration, cap=numerics.blowup_threshold,
            )
            if bounds.verdict == "stalled":
                notes.append(
                    "contraction sequences stalled before the verdict threshold; "
                    "the terminal bound still envelopes the state"
                )
        except BoxConstructionError as e:
            notes.append(f"contraction sequences unavailable: {e}")
    return box, bounds


def execute_run(
    config: RunConfig,
    *,
    analysis_only: bool = False,
    out_dir: Path | None = None,
) -> RunResult:
    """Validate, classify, build the certificates and, unless analysis_only,
    integrate, certify and write the trajectory; the report's
    `timing_seconds` holds the total and the seconds of each phase (0 for a
    phase the run skips)."""
    start = last = time.perf_counter()
    timing = dict.fromkeys(PHASES, 0.0)

    def lap(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        timing[phase] = now - last
        last = now

    num = config.numerics
    try:
        spec = system_from_mapping(
            config.system,
            max_lag_bound=num.max_lag_bound,
            unbounded_delay_ok=num.unbounded_delay_ok,
            label=config.label,
        )
    except ConfigError as e:
        return RunResult(EXIT_VALIDATION, message=f"validation: {e}")

    x_max, relation = resolve_x_max(spec, num)
    validation = validate_system(
        spec, num.horizon, x_max,
        a1_grid=num.a1_grid, kernel_grid=num.kernel_grid, n_quad=num.quad_panels,
    )
    if not validation.ok:
        return RunResult(
            EXIT_VALIDATION,
            message="validation: " + "; ".join(validation.errors),
        )
    lap("setup")

    notes = list(GLOBAL_NOTES) + validation.notes
    cls = classify(spec.f1, spec.f2, x_max, num.tol_classify, num.scan_grid, relation=relation)
    rates = check_rate_divergence(spec, num.horizon, num.a5_grid, num.a5_tail_threshold)
    caveats = list(cls.caveats)
    if not rates["all_divergent"]:
        caveats.append(RATE_DIVERGENCE_CAVEAT)
    lap("classify")

    box, bounds = _build_certificates(spec, cls, num, notes)
    lap("certificates")

    report = {
        "schema": REPORT_SCHEMA,
        "label": config.label,
        "classification": cls.to_dict(),
        "fate": cls.fate,
        "K": cls.relation.K,
        "rates": rates,
        "caveats": caveats,
        "permanence_box": box.to_dict() if box else None,
        "bound_sequences": bounds.to_dict() if bounds else None,
        "numerics": {**num.to_dict(), "x_max": x_max},
        "kernel_mass_residual": validation.kernel_mass_residual,
        "notes": notes,
        "outcome": None,
        "certification": None,
    }

    traj = None
    if not analysis_only:
        try:
            traj, outcome = integrate(
                spec, num.horizon, num.dt,
                blowup_threshold=num.blowup_threshold,
                stage_ratio=num.stage_ratio,
                converge_rtol=num.converge_rtol,
                window_spans=num.window_spans,
                extinction_threshold=num.extinction_threshold,
            )
        except IntegrationError as e:
            return RunResult(EXIT_NUMERICAL, message=f"numerical: {e}")
        lap("integrate")
        report["outcome"] = {
            "status": outcome.status,
            "t_final": outcome.t_final,
            "final_state": list(outcome.final_state),
            "blowup_time": outcome.blowup_time,
            "converged_point": list(outcome.converged_point) if outcome.converged_point else None,
            "extinct_time": outcome.extinct_time,
            "diagnostics": {
                **outcome.diagnostics,
                "max_kernel_mass_residual": validation.kernel_mass_residual,
            },
        }
        cert = certify_run(spec, traj, outcome, cls, box=box, bounds=bounds, caveats=caveats)
        report["certification"] = cert.to_dict()
        lap("certify")

    out_dir = Path(out_dir) if out_dir is not None else Path.cwd()
    result = RunResult(EXIT_OK, report=report)
    report_name = config.outputs.report or f"{config.label or 'run'}_report.json"
    result.report_path = out_dir / report_name
    # an output name may hold directories: each output's own, made before it is written
    result.report_path.parent.mkdir(parents=True, exist_ok=True)
    if traj is not None:
        traj_name = config.outputs.trajectory or f"{config.label or 'run'}_trajectory.csv"
        result.trajectory_path = out_dir / traj_name
        result.trajectory_path.parent.mkdir(parents=True, exist_ok=True)
        traj.to_csv(result.trajectory_path, stride=config.outputs.stride)
        lap("csv")
    report["timing_seconds"] = {"total": time.perf_counter() - start, **timing}
    result.report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    if report["certification"] is not None and report["certification"]["status"] == "mismatch":
        result.exit_code = EXIT_CERTIFICATION
        result.message = "certification: prediction and simulation disagree without an explaining caveat"
    return result


# ---------------------------------------------------------------------------
# command-line front end


def _cmd_execute(args) -> int:
    """`run`, and `classify` (analysis only), which differs in what it prints."""
    try:
        config = load_config(args.config)
        # --dt and --horizon, range-checked like the file's own values
        if args.dt is not None:
            config.numerics.dt = args.dt
        if args.horizon is not None:
            config.numerics.horizon = args.horizon
        check_numerics(config.numerics)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    analysis_only = args.cmd == "classify"
    result = execute_run(config, analysis_only=analysis_only, out_dir=args.out_dir)
    if result.message:
        print(result.message, file=sys.stderr)
    report = result.report
    if report is None:
        return result.exit_code
    if analysis_only:
        print(f"{config.label}: fate={report['fate']} K={report['K']} caveats={report['caveats']}")
        return result.exit_code
    outcome = report.get("outcome") or {}
    cert = report.get("certification") or {}
    print(
        f"{config.label}: fate={report['fate']} "
        f"outcome={outcome.get('status')} "
        f"final={outcome.get('final_state')} "
        f"certification={cert.get('status')}"
    )
    # a run that returns a report has written it and its trajectory
    print(f"report: {result.report_path}")
    print(f"trajectory: {result.trajectory_path}")
    return result.exit_code


def _cmd_preset(args) -> int:
    if args.preset_cmd == "list":
        for name, preset in sorted(PRESETS.items()):
            print(f"{name}: {preset.summary}")
            print(f"    defaults: {preset.defaults}")
        return EXIT_OK
    # emit
    overrides = {}
    for item in args.param or []:
        if "=" not in item:
            print(f"--param expects k=v, got {item!r}", file=sys.stderr)
            return EXIT_VALIDATION
        k, v = item.split("=", 1)
        try:
            overrides[k] = float(v)
        except ValueError:
            overrides[k] = v
    try:
        system = preset_system_mapping(args.name, overrides)
    except PresetParameterError as e:
        print(f"preset error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    text = config_text(
        system,
        numerics={"horizon": 60.0},
        outputs={
            "trajectory": f"{args.name}_trajectory.csv",
            "report": f"{args.name}_report.json",
        },
    )
    out = Path(args.out) if args.out else Path(f"{args.name}.cfg")
    out.write_text(text)
    print(f"wrote {out}")
    return EXIT_OK


def _batch_worker(payload: tuple[str, str | None]) -> tuple[str, int, str, str]:
    path, out_dir = payload
    try:
        config = load_config(path)
    except ConfigError as e:
        return path, EXIT_VALIDATION, "-", str(e)
    result = execute_run(config, out_dir=Path(out_dir) if out_dir else None)
    fate = result.report["fate"] if result.report else "-"
    status = (result.report.get("outcome") or {}).get("status") if result.report else "-"
    return path, result.exit_code, fate, status or "-"


def _cmd_batch(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_VALIDATION
    root = Path(args.directory)
    configs = sorted(str(p) for p in root.glob("*.cfg"))
    if not configs:
        print(f"no .cfg files under {root}", file=sys.stderr)
        return EXIT_VALIDATION
    payloads = [(p, args.out_dir) for p in configs]
    worst = EXIT_OK
    if args.jobs == 1:
        rows = [_batch_worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_batch_worker, payloads))
    for path, code, fate, status in rows:
        print(f"{Path(path).name}: exit={code} fate={fate} outcome={status}")
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopdelay",
        description="simulate and classify two-component cooperative delay systems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, summary in (("run", "validate, analyze, simulate, certify"),
                          ("classify", "analysis only, no integration")):
        p_exec = sub.add_parser(name, help=summary)
        p_exec.add_argument("config")
        p_exec.add_argument("--dt", type=float, default=None)
        p_exec.add_argument("--horizon", type=float, default=None)
        p_exec.add_argument("--out-dir", default=None)
        p_exec.set_defaults(fn=_cmd_execute)

    p_preset = sub.add_parser("preset", help="preset catalog")
    preset_sub = p_preset.add_subparsers(dest="preset_cmd", required=True)
    preset_sub.add_parser("list")
    p_emit = preset_sub.add_parser("emit")
    p_emit.add_argument("name")
    p_emit.add_argument("--param", action="append", default=[])
    p_emit.add_argument("--out", default=None)
    p_preset.set_defaults(fn=_cmd_preset)

    p_batch = sub.add_parser("batch", help="run every config in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--out-dir", default=None)
    p_batch.add_argument("--jobs", type=int, default=None)
    p_batch.set_defaults(fn=_cmd_batch)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
