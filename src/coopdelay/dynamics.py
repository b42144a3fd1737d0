"""System assembly: production pair, rates, kernels, initial data.

The right-hand side of the integrated system is

    dx/dt = r1(t) * G1(x) * [ I1(t) - x ]
    dy/dt = r2(t) * G2(y) * [ I2(t) - y ]

where I1 integrates f1 over the y-history against kernel 1 and I2
integrates f2 over the x-history against kernel 2.  `rhs` takes the two
integrals as numbers, which the integrator computes a block of steps ahead
(`feeds`).  G1 and G2 are expressions in the state, the constant 1 when unset,
which removes the modulated layer without a separate code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import functions
from .expr import EvalDomainError, Expression, parse
from .functions import ProductionFunction
from .kernels import DelayKernel, KernelCertificate, simpson_nodes_weights, validate_kernel

__all__ = [
    "InitialFunction",
    "SystemSpec",
    "rhs",
    "check_rate_divergence",
    "validate_system",
    "ValidationReport",
    "RATE_DIVERGENCE_CAVEAT",
]

# wire name of the report caveat set when the rate-divergence heuristic fails
RATE_DIVERGENCE_CAVEAT = "a5-heuristic-failed"
# validate_system samples the initial data at this many times of the data window
INIT_GRID = 2001


class InitialFunction:
    """Initial data on the non-positive half-line.

    Continuous, bounded and non-negative for t < 0, strictly positive at
    t = 0.  The value at 0 may be overridden, e.g. to start a run off the
    tail of its pre-history.
    """

    __slots__ = ("body", "value_at_zero")

    def __init__(self, body: str | Expression, value_at_zero: float | None = None):
        self.body = body if isinstance(body, Expression) else parse(body, var="t")
        self.value_at_zero = (
            float(value_at_zero) if value_at_zero is not None else self.body.evaluate(0.0)
        )

    def __call__(self, t: float) -> float:
        if t >= 0.0:
            return self.value_at_zero
        return self.body.evaluate(t)

    def evaluate_each(self, ts: list) -> list | None:
        """[self(t) for t in ts] from the body's `evaluate_each`; None where
        that fails."""
        out = self.body.evaluate_each(ts)
        return out and [self.value_at_zero if t >= 0.0 else v for t, v in zip(ts, out)]

    def array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = self.body.evaluate_array(np.minimum(ts, 0.0))
        return np.where(ts >= 0.0, self.value_at_zero, out)

    def bounds(self, t_floor: float, n: int = 4001) -> tuple[float, float]:
        """Sampled (inf, sup) over [t_floor, 0]; exact for constant bodies."""
        if self.body.is_constant:
            c = self.body.evaluate(0.0)
            return min(c, self.value_at_zero), max(c, self.value_at_zero)
        ts = np.linspace(min(t_floor, -1e-9), 0.0, n)
        vals = self.array(ts)
        return float(np.min(vals)), float(np.max(vals))


@dataclass
class SystemSpec:
    """A complete instance of the delayed cooperative system."""

    f1: ProductionFunction
    f2: ProductionFunction
    r1: Expression
    r2: Expression
    k1: DelayKernel
    k2: DelayKernel
    phi: InitialFunction
    psi: InitialFunction
    g1: Expression | None = None
    g2: Expression | None = None
    unbounded_delay_ok: bool = False
    max_lag_bound: float = 1e3
    label: str = ""

    def max_span(self, t: float) -> float:
        return max(self.k1.span(t), self.k2.span(t))

    def data_floor(self) -> float:
        """Start of the initial-data window the analysis reads: the earlier
        kernel support floor at t = 0, and at least one time unit back."""
        return min(self.k1.support_floor(0.0), self.k2.support_floor(0.0), -1.0)


def rhs(
    spec: SystemSpec,
    t: float,
    x: float,
    y: float,
    feed_x: float,
    feed_y: float,
) -> tuple[float, float]:
    """Derivative pair at time t given the current state and the two
    feedbacks: feed_x the integral of f1 over the y-history against kernel
    1, feed_y that of f2 over the x-history against kernel 2."""
    gx = spec.g1(x) if spec.g1 is not None else 1.0
    gy = spec.g2(y) if spec.g2 is not None else 1.0
    dx = spec.r1.evaluate(t) * (gx * (feed_x - x))
    dy = spec.r2.evaluate(t) * (gy * (feed_y - y))
    return dx, dy


def check_rate_divergence(
    spec: SystemSpec,
    horizon: float,
    n_grid: int = 2001,
    tail_threshold: float = 0.1,
) -> dict:
    """Heuristic for whether the rate integrals keep growing.

    Integrates each rate over [0, horizon] and flags a rate as divergent
    when its tail mass over [horizon/2, horizon] exceeds the threshold.
    This is a diagnostic, not a proof: a failing flag means convergence
    claims carry a caveat.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    panels = max(1, (n_grid - 1) // 2)
    out = {}
    for name, rate in (("r1", spec.r1), ("r2", spec.r2)):
        nodes, weights = simpson_nodes_weights(0.0, horizon, panels)
        vals = rate.evaluate_array(nodes)
        total = float(np.dot(weights, vals))
        nodes2, weights2 = simpson_nodes_weights(horizon / 2.0, horizon, panels)
        tail = float(np.dot(weights2, rate.evaluate_array(nodes2)))
        out[name] = {
            "integral": total,
            "tail": tail,
            "divergent": bool(tail > tail_threshold),
        }
    out["all_divergent"] = bool(out["r1"]["divergent"] and out["r2"]["divergent"])
    return out


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    kernel_mass_residual: float = 0.0
    t_floor: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_system(
    spec: SystemSpec,
    horizon: float,
    x_max: float,
    *,
    a1_grid: int = 10_001,
    kernel_grid: int = 101,
    n_quad: int = 64,
) -> ValidationReport:
    """Run every structural check the theory relies on.

    Covers strict monotonicity and positivity of the production pair,
    positivity of the modulations, lag validity and the delay span of each
    kernel (one `validate_kernel` pass over the grid, which also samples a
    mixture's normalization with n_quad Simpson panels; the other kernels have unit mass by
    construction and report a residual of 0), non-negative bounded rates
    on the sampled horizon, and admissible initial data over the window
    [spec.data_floor(), 0] that the analysis reads.  Sampled checks are
    noted as such.
    """
    rep = ValidationReport()

    # looked up on the module at call time, so a wrapper set there sees the call
    for name, f in (("f1", spec.f1), ("f2", spec.f2)):
        res = functions.verify_increasing(f, x_max, a1_grid)
        if isinstance(res, functions.MonotonicityViolation):
            rep.errors.append(
                f"{name}: {res.kind} on [{res.x_left:.6g}, {res.x_right:.6g}] {res.detail}"
            )

    for name, g in (("g1", spec.g1), ("g2", spec.g2)):
        if g is None:
            continue
        res = functions.verify_positive(g, x_max, a1_grid)
        if isinstance(res, functions.PositivityViolation):
            rep.errors.append(f"{name}: not positive near x={res.x:.6g} {res.detail}")

    t_grid = np.linspace(0.0, horizon, kernel_grid)
    for name, k in (("kernel1", spec.k1), ("kernel2", spec.k2)):
        res = validate_kernel(k, t_grid.tolist(), n_quad)
        if not isinstance(res, KernelCertificate):
            rep.errors.append(f"{name}: {res.kind} violation at t={res.t:.6g}: {res.detail}")
            continue
        rep.kernel_mass_residual = max(rep.kernel_mass_residual, res.max_mass_residual)
        if res.max_span > spec.max_lag_bound and not spec.unbounded_delay_ok:
            rep.errors.append(
                f"{name}: delay span {res.max_span:.6g} exceeds max_lag_bound "
                f"{spec.max_lag_bound:.6g}; set unbounded_delay_ok to attest"
            )

    for name, r in (("r1", spec.r1), ("r2", spec.r2)):
        try:
            vals = r.evaluate_array(t_grid)
        except EvalDomainError as e:
            rep.errors.append(f"{name}: {e}")
            continue
        if np.any(vals < 0.0):
            t_bad = float(t_grid[np.argmax(vals < 0.0)])
            rep.errors.append(f"{name}: negative rate at t={t_bad:.6g}")
    rep.notes.append("rates checked non-negative and bounded on the sampled horizon only")

    rep.t_floor = spec.data_floor()
    ts = np.linspace(rep.t_floor, 0.0, INIT_GRID)
    for name, init in (("phi", spec.phi), ("psi", spec.psi)):
        if init.value_at_zero <= 0.0:
            rep.errors.append(f"{name}: value at 0 must be strictly positive")
        try:
            vals = init.array(ts)
        except EvalDomainError as e:
            rep.errors.append(f"{name}: {e}")
            continue
        if np.any(vals < 0.0):
            t_bad = float(ts[np.argmax(vals < 0.0)])
            rep.errors.append(f"{name}: negative initial data at t={t_bad:.6g}")
        if not init.body.is_constant:
            at0 = init.body.evaluate(0.0)
            if abs(at0 - init.value_at_zero) > 1e-9 * max(1.0, abs(at0)):
                rep.notes.append(
                    f"{name}: value at 0 overrides the expression tail "
                    f"({init.value_at_zero!r} vs {at0!r})"
                )

    if spec.k1.sampled_mass or spec.k2.sampled_mass:
        rep.notes.append("mixture normalization verified by quadrature on the sampled grid")
    return rep
