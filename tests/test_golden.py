"""Golden outputs: the bytes every committed config writes.

Each of `configs/*.cfg` runs under `run` and under `classify` (analysis
only), and the sha256 of its report, with `timing_seconds` taken out, and
of its trajectory CSV must match `golden_digests.json`, with the same exit
code.  A change meant to keep every output (a speed-up, a refactor) leaves
that file as it is; a change that moves an output on purpose rewrites it by
running this module as a script,

    PYTHONPATH=src python tests/test_golden.py

and says which digests moved and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from coopdelay.cli import execute_run
from coopdelay.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")
MODES = ("run", "classify")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, mode: str, out_dir: Path) -> dict:
    """The exit code and the digests of what the config writes in the mode:
    the report as `execute_run` writes it but without `timing_seconds`,
    and the trajectory CSV of a run."""
    result = execute_run(load_config(CONFIGS / f"{name}.cfg"), analysis_only=mode == "classify", out_dir=out_dir)
    report = json.loads(result.report_path.read_text())
    report.pop("timing_seconds")
    entry = {"exit_code": result.exit_code,
             "report": _sha256((json.dumps(report, sort_keys=True, indent=2) + "\n").encode())}
    if result.trajectory_path is not None:
        entry["csv"] = _sha256(result.trajectory_path.read_bytes())
    return entry


CASES = [(mode, path.stem) for path in sorted(CONFIGS.glob("*.cfg")) for mode in MODES]


def test_every_config_has_a_golden_entry():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(f"{mode}/{name}" for mode, name in CASES)


@pytest.mark.parametrize("mode, name", CASES)
def test_outputs_match_their_golden_digests(mode, name, tmp_path):
    assert digests(name, mode, tmp_path) == json.loads(GOLDEN.read_text())[f"{mode}/{name}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{mode}/{name}": digests(name, mode, Path(tmp) / mode / name) for mode, name in CASES}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} entries to {GOLDEN}", file=sys.stderr)
