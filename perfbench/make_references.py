"""Regenerate perfbench/expected.json: recorded outputs and accuracy references.

    python3 perfbench/make_references.py

Run it only when the program's intended outputs change; the benchmark never
recomputes these values with the code under test.  It writes:

* ``run`` / ``classify``: the exit code, fate and outcome status each
  committed config produced when the benchmark was defined.  The
  benchmark's output check compares every job against them.
* ``equilibrium_K``: the exact equilibrium of each committed config that
  has one, from the closed form of its production pair.  classify_sweep's
  ``err_geo`` is the error of the K the analysis reports against these.
* ``probes``: the state at t = 3 of each accuracy probe, computed with step
  0.02/32 and confirmed with step 0.02/64 (``confirm_gap`` is the distance
  between the two, relative as in the error metric).  The reference step is
  32x finer, not 16x, to keep its own error small.  The window probes have
  an error floor near 1e-9 that does not shrink with dt (logistic_distributed's
  gap stays at 2.5e-9 from dt/16 down to dt/64, and both window probes change
  sign between dt = 0.01 and 0.005).  That floor is about 1% of their error
  at dt = 0.02, which is why the benchmark reads the observed order between
  dt = 0.04 and 0.02 and not between 0.02 and 0.01.

Why the probes run at dt = 0.02 and not at each config's own dt: at the own
dt the errors sit at roundoff (linear_decay 3e-17, tanh_gain 2e-14) or stop
shrinking with dt (logistic_distributed 5.9e-9 at 5e-3, 6.0e-9 at 2.5e-3),
so they cannot show a loss of order.  ``quadratic_integro`` is not probed:
it blows up at t ~ 3.02, so its state at t = 3 is too steep to compare.
``linear_decay``, ``quadratic_blowup`` and ``fading_rates`` are not probed
either: their errors at t = 3 are at roundoff or dominated by the blow-up.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import mpmath

import program
from program import cli
import workloads

OUT = Path(__file__).resolve().parent / "expected.json"
WORK = program.ROOT / ".perfbench_out" / "references"


def exact_equilibria() -> dict[str, float]:
    # f1 = f2 = 1 + x/2: f1^-1(x) = 2(x - 1) meets f2 where 1.5 x = 3
    affine = 2.0
    # f1 = sqrt(x) + 2, f2 = x: (x - 2)^2 = x, root above 2
    sqrt_pair = 4.0
    # f1 = f2 = 2 tanh(x): K = 2 tanh(2 tanh(K)), positive root
    mpmath.mp.dps = 40
    tanh_pair = float(mpmath.findroot(lambda k: 2 * mpmath.tanh(2 * mpmath.tanh(k)) - k, 1.9))
    return {
        "fading_rates": affine, "logistic_distributed": affine, "pantograph_logistic": affine,
        "sqrt_logistic_point": sqrt_pair, "sqrt_logistic_triangular": sqrt_pair,
        "tanh_gain": tanh_pair,
    }


def main() -> int:
    expected = {"run": {}, "classify": {}, "equilibrium_K": exact_equilibria(), "probes": {}}
    WORK.mkdir(parents=True, exist_ok=True)
    for name in workloads.COMMITTED_CONFIGS:
        res = cli.execute_run(workloads.load_committed(name), analysis_only=True, out_dir=WORK)
        expected["classify"][name] = {"exit": res.exit_code, "fate": res.report["fate"]}
    for names in workloads.SIM_CONFIGS.values():
        for name in names:
            res = cli.execute_run(workloads.load_committed(name), out_dir=WORK)
            expected["run"][name] = {"exit": res.exit_code, "fate": res.report["fate"],
                                     "status": res.report["outcome"]["status"]}
            print(f"{name}: exit {res.exit_code} {expected['run'][name]}", file=sys.stderr)
    for names in workloads.PROBES.values():
        for name in names:
            ref_dt, confirm_dt = workloads.PROBE_DT / 32, workloads.PROBE_DT / 64
            ref = workloads.probe_state(name, ref_dt, WORK)
            confirm = workloads.probe_state(name, confirm_dt, WORK)
            gap = max(abs(ref[0] - confirm[0]), abs(ref[1] - confirm[1])) / max(1.0, *map(abs, ref))
            expected["probes"][name] = {"t": workloads.PROBE_T, "dt": ref_dt, "state": list(ref),
                                        "confirm_dt": confirm_dt, "confirm_state": list(confirm),
                                        "confirm_gap": gap}
            print(f"{name}: ref {ref} confirm gap {gap:.3g}", file=sys.stderr)
    shutil.rmtree(WORK.parent)
    OUT.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
