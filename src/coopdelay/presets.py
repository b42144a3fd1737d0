"""Catalog of ready-made application systems.

Each preset normalizes its textbook form into the engine's shape
(production pair, rates, optional state modulation, kernels) and emits a
plain config mapping, so instantiation runs through exactly the same
validation gate as a hand-written config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Preset", "PRESETS", "preset_system_mapping", "PresetParameterError"]


class PresetParameterError(ValueError):
    """A preset parameter violates its documented admissible range."""


def _kernel_line(kind: str, tau: float, span: float) -> str:
    if kind == "point":
        return f'point lag="t - {tau!r}"'
    if kind == "uniform":
        return f'uniform lag="t - {span!r}"'
    if kind == "triangular":
        return f'triangular lag="t - {span!r}"'
    raise PresetParameterError(f"unknown kernel family {kind!r}")


def _in_range(params: dict, names: tuple[str, ...], zero_ok: bool = False) -> None:
    """Each named parameter must be a finite number, positive or, with
    zero_ok, non-negative."""
    for n in names:
        v = params[n]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise PresetParameterError(f"{n} must be a finite number, got {v!r}")
        if v < 0 or (v == 0 and not zero_ok):
            raise PresetParameterError(f"{n} must be {'non-negative' if zero_ok else 'positive'}, got {v!r}")


@dataclass
class Preset:
    name: str
    summary: str
    defaults: dict = field(default_factory=dict)
    build: Callable[[dict], dict] = None

    def mapping(self, overrides: dict | None = None) -> dict:
        params = dict(self.defaults)
        unknown = set(overrides or ()) - set(self.defaults)
        if unknown:
            raise PresetParameterError(
                f"unknown parameter(s) {sorted(unknown)} for preset {self.name!r}; "
                f"known: {sorted(self.defaults)}"
            )
        params.update(overrides or {})
        return self.build(params)


def _tanh_build(p: dict) -> dict:
    _in_range(p, ("c1", "c2", "mu1", "mu2"))
    _in_range(p, ("tau",), zero_ok=True)
    kernel = _kernel_line(p["kernel"], p["tau"], p["span"])
    return {
        "f1": f"({p['c1']!r}/{p['mu1']!r})*tanh(x)",
        "f2": f"({p['c2']!r}/{p['mu2']!r})*tanh(x)",
        "r1": f"{p['mu1']!r}",
        "r2": f"{p['mu2']!r}",
        "kernel1": kernel,
        "kernel2": kernel,
        "phi": str(p["phi"]),
        "psi": str(p["psi"]),
    }


def _lotka_volterra_build(p: dict) -> dict:
    _in_range(p, ("a1", "a2", "b1", "b2"))
    _in_range(p, ("A1", "A2"), zero_ok=True)
    kernel = _kernel_line(p["kernel"], p["tau"], p["span"])
    return {
        "f1": f"({p['A1']!r} + {p['b1']!r}*x)/{p['a1']!r}",
        "f2": f"({p['A2']!r} + {p['b2']!r}*x)/{p['a2']!r}",
        "r1": f"{p['a1']!r}*({p['r1']})",
        "r2": f"{p['a2']!r}*({p['r2']})",
        "g1": "x",
        "g2": "x",
        "kernel1": kernel,
        "kernel2": kernel,
        "phi": str(p["phi"]),
        "psi": str(p["psi"]),
    }


def _gopalsamy_build(p: dict) -> dict:
    _in_range(p, ("K1", "K2", "alpha1", "alpha2"))
    for i in ("1", "2"):
        if not p[f"alpha{i}"] > p[f"K{i}"]:
            raise PresetParameterError(
                f"facilitation requires alpha{i} > K{i} "
                f"(got alpha{i}={p[f'alpha{i}']!r}, K{i}={p[f'K{i}']!r})"
            )
    kernel = _kernel_line(p["kernel"], p["tau"], p["span"])
    return {
        "f1": f"({p['K1']!r} + {p['alpha1']!r}*x)/(1 + x)",
        "f2": f"({p['K2']!r} + {p['alpha2']!r}*x)/(1 + x)",
        "r1": str(p["r1"]),
        "r2": str(p["r2"]),
        "g1": "x",
        "g2": "x",
        "kernel1": kernel,
        "kernel2": kernel,
        "phi": str(p["phi"]),
        "psi": str(p["psi"]),
    }


PRESETS: dict[str, Preset] = {
    "tanh": Preset(
        name="tanh",
        summary="two saturating cross-excitation units with linear decay",
        defaults={
            "c1": 2.0, "c2": 2.0, "mu1": 1.0, "mu2": 1.0,
            "tau": 1.0, "kernel": "point", "span": 1.0,
            "phi": "1", "psi": "1",
        },
        build=_tanh_build,
    ),
    "lotka_volterra": Preset(
        name="lotka_volterra",
        summary="cooperative logistic pair with delayed mutual benefit",
        defaults={
            "A1": 1.0, "A2": 1.0, "a1": 2.0, "a2": 2.0, "b1": 1.0, "b2": 1.0,
            "r1": "1", "r2": "1",
            "tau": 1.0, "kernel": "point", "span": 1.0,
            "phi": "1", "psi": "1",
        },
        build=_lotka_volterra_build,
    ),
    "gopalsamy": Preset(
        name="gopalsamy",
        summary="mutual facilitation with saturating benefit per partner",
        defaults={
            "K1": 1.0, "K2": 1.0, "alpha1": 3.0, "alpha2": 3.0,
            "r1": "1", "r2": "1",
            "tau": 1.0, "kernel": "point", "span": 1.0,
            "phi": "1", "psi": "1",
        },
        build=_gopalsamy_build,
    ),
}


def preset_system_mapping(name: str, overrides: dict | None = None) -> dict:
    if name not in PRESETS:
        raise PresetParameterError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return PRESETS[name].mapping(overrides)
