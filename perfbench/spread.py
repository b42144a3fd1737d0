"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--trace 0|1] [--out FILE]

For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, and
with --out it merges them into a JSON file keyed by workload and mode.
The runs go one after another, never in parallel, so they do not slow
each other down.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range a-b")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
        print(f"seed {seed}: {runs[-1]}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": vals}
        print(f"{name:36s} median {med:<12.6g} spread {summary[name]['spread']:.4f}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload}/trace{args.trace}"
        data[key] = {"runs": runs, "metrics": summary}
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
