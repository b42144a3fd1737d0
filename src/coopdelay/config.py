"""Run configuration: a flat sectioned key=value file.

Three sections; expression values may be quoted:

    [system]
    f1 = x^2 + x
    r1 = "2 + sin(t)"
    kernel1 = uniform lag="t - 1"
    phi = 1/3

    [numerics]
    dt = 1e-3
    horizon = 10

    [outputs]
    trajectory = run.csv
    report = run.json
    stride = 10

Every validation failure names the offending section and key.
"""

from __future__ import annotations

import configparser
import math
import shlex
from dataclasses import dataclass, fields
from pathlib import Path

from .dynamics import InitialFunction, SystemSpec
from .expr import EvalDomainError, ParseError, parse
from .kernels import (
    DelayKernel,
    GeneralMixtureKernel,
    PointMassKernel,
    TriangularDensityKernel,
    UniformDensityKernel,
)

__all__ = ["ConfigError", "Numerics", "Outputs", "RunConfig", "load_config",
           "check_numerics", "parse_kernel", "config_text", "system_from_mapping"]


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass
class Numerics:
    horizon: float = 60.0
    dt: float | None = None
    # Simpson panels of a mixture kernel's mass check in validation; runs
    # integrate every density window on the step grid, whatever this says
    quad_panels: int = 64
    alpha: float = 0.5
    slack: float = 1e-3
    x_max: float | None = None
    tol_classify: float = 1e-9
    tol_iteration: float = 1e-8
    n_max_iteration: int = 500
    blowup_threshold: float = 1e12
    stage_ratio: float = 2.0
    converge_rtol: float = 1e-9
    window_spans: float = 10.0
    extinction_threshold: float = 1e-12
    scan_grid: int = 4097
    a1_grid: int = 10001
    a5_grid: int = 2001
    a5_tail_threshold: float = 0.1
    kernel_grid: int = 101
    max_lag_bound: float = 1e3
    unbounded_delay_ok: bool = False

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Outputs:
    trajectory: str | None = None
    report: str | None = None
    stride: int = 10


@dataclass
class RunConfig:
    system: dict
    numerics: Numerics
    outputs: Outputs
    label: str = ""
    path: Path | None = None


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "\"'":
        return v[1:-1]
    return v


def parse_kernel(text: str, key: str = "kernel") -> DelayKernel:
    """Kernel descriptor: kind plus key=value fields.

    point|uniform|triangular take lag="..."; mixture takes atoms="lag:w, ..."
    and optionally density="..." density_lag="...".
    """
    try:
        tokens = shlex.split(text)
    except ValueError as e:
        raise ConfigError(key, f"unparseable kernel descriptor: {e}") from None
    if not tokens:
        raise ConfigError(key, "empty kernel descriptor")
    kind, *rest = tokens
    opts: dict[str, str] = {}
    for tok in rest:
        if "=" not in tok:
            raise ConfigError(key, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        opts[k] = _unquote(v)
    try:
        if kind == "point":
            return PointMassKernel(opts.pop("lag"))
        if kind == "uniform":
            return UniformDensityKernel(opts.pop("lag"))
        if kind == "triangular":
            return TriangularDensityKernel(opts.pop("lag"))
        if kind == "mixture":
            atoms = []
            raw = opts.pop("atoms", "")
            if raw:
                for part in raw.split(","):
                    lag, _, w = part.rpartition(":")
                    if not lag:
                        raise ValueError(f"atom needs lag:weight, got {part!r}")
                    atoms.append((lag.strip(), float(w)))
            density = opts.pop("density", None)
            density_lag = opts.pop("density_lag", None)
            return GeneralMixtureKernel(atoms=atoms, density=density, density_lag=density_lag)
    except KeyError as e:
        raise ConfigError(key, f"kernel {kind!r} missing field {e.args[0]!r}") from None
    except (ParseError, ValueError) as e:
        raise ConfigError(key, str(e)) from None
    raise ConfigError(key, f"unknown kernel kind {kind!r}")


def system_from_mapping(system: dict, *, max_lag_bound: float = 1e3,
                        unbounded_delay_ok: bool = False, label: str = "") -> SystemSpec:
    """Build a SystemSpec from raw config strings, naming bad keys."""
    required = ("f1", "f2", "r1", "r2", "kernel1", "kernel2", "phi", "psi")
    for k in required:
        if k not in system or not str(system[k]).strip():
            raise ConfigError(f"[system] {k}", "missing required key")
    known = set(required) | {"g1", "g2", "phi0", "psi0"}
    for k in system:
        if k not in known:
            raise ConfigError(f"[system] {k}", "unknown key")

    def expr_of(k: str, var: str):
        try:
            return parse(_unquote(str(system[k])), var=var)
        except ParseError as e:
            raise ConfigError(f"[system] {k}", str(e)) from None

    def opt_float(k: str):
        if k in system and str(system[k]).strip():
            try:
                return float(system[k])
            except ValueError:
                raise ConfigError(f"[system] {k}", "not a number") from None
        return None

    def initial(k: str) -> InitialFunction:
        body, at_zero = expr_of(k, "t"), opt_float(f"{k}0")
        try:
            return InitialFunction(body, at_zero)
        except EvalDomainError as e:  # the body at 0, where no value stands in
            raise ConfigError(f"[system] {k}", str(e)) from None

    phi, psi = initial("phi"), initial("psi")
    g1 = system.get("g1")
    g2 = system.get("g2")
    f1 = expr_of("f1", "x")
    f2 = expr_of("f2", "x")
    r1 = expr_of("r1", "t")
    r2 = expr_of("r2", "t")
    # equal descriptors give one kernel object, which the integrator's
    # per-step view then finds by identity
    d1, d2 = (_unquote(str(system[k])) for k in ("kernel1", "kernel2"))
    k1 = parse_kernel(d1, "[system] kernel1")
    k2 = k1 if d2 == d1 else parse_kernel(d2, "[system] kernel2")
    return SystemSpec(
        f1=f1,
        f2=f2,
        r1=r1,
        r2=r2,
        k1=k1,
        k2=k2,
        phi=phi,
        psi=psi,
        g1=expr_of("g1", "x") if g1 and str(g1).strip() else None,
        g2=expr_of("g2", "x") if g2 and str(g2).strip() else None,
        max_lag_bound=max_lag_bound,
        unbounded_delay_ok=unbounded_delay_ok,
        label=label,
    )


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(name: str, raw: str, target, section: str):
    raw = raw.strip()
    try:
        if target is bool:
            return _BOOL[raw.lower()]
        if target is int:
            return int(raw)
        return float(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {name}", f"cannot parse {raw!r}") from None


def check_numerics(numerics: Numerics) -> None:
    """Raise ConfigError naming the first [numerics] value out of range."""
    for k in ("dt", "horizon", "x_max"):
        v = getattr(numerics, k)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ConfigError(f"[numerics] {k}", "must be positive and finite")
    # the mixture mass check's Simpson rule needs two panels, the rate
    # divergence check's one panel of three nodes; a scan or sampled check
    # needs two points, and the bound sequences one iteration
    for k, least in (("quad_panels", 2), ("kernel_grid", 1), ("a1_grid", 2), ("scan_grid", 2), ("a5_grid", 3),
                     ("n_max_iteration", 1)):
        if getattr(numerics, k) < least:
            raise ConfigError(f"[numerics] {k}", f"must be at least {least}")
    for k in ("alpha", "slack"):
        if not 0.0 < getattr(numerics, k) < 1.0:
            raise ConfigError(f"[numerics] {k}", "must lie strictly inside (0, 1)")
    # NaN fails every comparison: a NaN tolerance or bound never stops a
    # bisection or a run, or disables its check, and the report would write
    # it as NaN, which is not JSON; a threshold or ratio of 0 or less is a
    # blow-up at t = 0
    for k in ("tol_classify", "tol_iteration", "blowup_threshold", "stage_ratio", "window_spans", "max_lag_bound"):
        v = getattr(numerics, k)
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"[numerics] {k}", "must be finite and positive")
    for k in ("converge_rtol", "extinction_threshold", "a5_tail_threshold"):
        v = getattr(numerics, k)
        if not (math.isfinite(v) and v >= 0.0):
            raise ConfigError(f"[numerics] {k}", "must be finite and non-negative")


def _one_line(e: configparser.Error) -> str:
    """configparser's error on one line, with its line number; the caller
    names the file."""
    if isinstance(e, configparser.MissingSectionHeaderError):
        return f"no section header at line {e.lineno}: {e.line.rstrip()!r}"
    if isinstance(e, configparser.ParsingError):  # the lines come as reprs
        return "; ".join(f"cannot parse line {lineno}: {line}" for lineno, line in e.errors)
    if isinstance(e, configparser.DuplicateOptionError):
        return f"key {e.option!r} of [{e.section}] repeated at line {e.lineno}"
    # what else strict reading raises: a DuplicateSectionError
    return f"section [{e.section}] repeated at line {e.lineno}"


def load_config(path) -> RunConfig:
    """Read and structurally validate a config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "no such config file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(str(path), f"cannot read: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(str(path), f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(str(path), f"malformed config: {_one_line(e)}") from None
    for section in cp.sections():
        if section not in ("system", "numerics", "outputs"):
            raise ConfigError(f"[{section}]", "unknown section")
    if "system" not in cp:
        raise ConfigError("[system]", "missing section")

    system = {k: v for k, v in cp["system"].items()}

    numerics = Numerics()
    if "numerics" in cp:
        valid = {f.name: f for f in fields(Numerics)}
        for k, v in cp["numerics"].items():
            if k not in valid:
                raise ConfigError(f"[numerics] {k}", "unknown key")
            current = getattr(numerics, k)
            target = type(current) if current is not None else float
            setattr(numerics, k, _coerce(k, v, target, "numerics"))
    check_numerics(numerics)

    outputs = Outputs()
    if "outputs" in cp:
        for k, v in cp["outputs"].items():
            if k == "trajectory":
                outputs.trajectory = v.strip()
            elif k == "report":
                outputs.report = v.strip()
            elif k == "stride":
                outputs.stride = _coerce(k, v, int, "outputs")
            else:
                raise ConfigError(f"[outputs] {k}", "unknown key")
    if outputs.stride < 1:
        raise ConfigError("[outputs] stride", "must be at least 1")

    return RunConfig(
        system=system,
        numerics=numerics,
        outputs=outputs,
        label=path.stem,
        path=path,
    )


def config_text(system: dict, numerics: dict | None = None, outputs: dict | None = None) -> str:
    """Serialize a config mapping to the file format (used by preset emit)."""
    lines = ["[system]"]
    for k, v in system.items():
        lines.append(f"{k} = {v}")
    lines.append("")
    lines.append("[numerics]")
    for k, v in (numerics or {"horizon": 60.0}).items():
        lines.append(f"{k} = {v}")
    lines.append("")
    lines.append("[outputs]")
    for k, v in (outputs or {}).items():
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"
