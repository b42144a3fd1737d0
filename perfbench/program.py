"""Import the coopdelay package from this checkout's `src/` tree.

The benchmark must measure the sources it ships with, never an installed
copy, so the import is checked against the expected location.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


class MissingProgram(ImportError):
    """The checkout does not hold the coopdelay sources."""


if not (SRC / "coopdelay" / "__init__.py").is_file():
    raise MissingProgram(f"no coopdelay package under {SRC}")
if not CONFIGS.is_dir():
    raise MissingProgram(f"no configs directory at {CONFIGS}")
sys.path.insert(0, str(SRC))

import coopdelay  # noqa: E402
from coopdelay import analysis, cli, config, dynamics, expr, functions, integrator, kernels, presets  # noqa: E402,F401

if Path(coopdelay.__file__).resolve().parent != (SRC / "coopdelay").resolve():
    raise MissingProgram(f"coopdelay imported from {coopdelay.__file__}, not from {SRC}")
