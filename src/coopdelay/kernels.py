"""Delay distributions and the feedback integrals against them.

Each kernel represents a time-indexed probability distribution over past
times with unit total mass: a point mass at a lagged instant, a uniform
or triangular density over a trailing window, or a general mixture of
atoms plus one density piece.  A purely singular-continuous distribution
is out of scope; atoms plus a density cover every supported model.

The feedback integral sum(w_j * f(u(lag_j(t)))) + integral density * f(u(s)) ds
is evaluated with composite Simpson panels for the density part: the kernel
builds its plan at t (nodes, weights, density at the nodes) and the history
component's `feedback` returns the density part of the integral.  Its default
is dot(weights, f(u(nodes)) * density); a history that serves many calls at
the same times, such as the integrator's per-step view, overrides it to keep
the plans and the part of the sum over stored history between calls.  Density
windows compare equal by kind and lag, so equal windows can share that work.
Quadrature nodes that fall before the start of recorded history raise
HistoryUnderflowError instead of extrapolating.

Atoms may sit exactly at the current time (zero lag): the integrand always
reads the opposite component's history, so no implicit equation arises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .expr import EvalDomainError, Expression, parse
from .functions import ProductionFunction

__all__ = [
    "DelayKernel",
    "PointMassKernel",
    "UniformDensityKernel",
    "TriangularDensityKernel",
    "GeneralMixtureKernel",
    "HistoryComponent",
    "HistoryUnderflowError",
    "QuadPlan",
    "KernelCertificate",
    "KernelViolation",
    "stieltjes_integrate",
    "validate_kernel",
    "as_component",
    "simpson_nodes_weights",
]

MASS_TOL = 1e-8
DEFAULT_PANELS = 64


class HistoryUnderflowError(LookupError):
    """A lookup was requested before the start of recorded history."""


class QuadPlan(NamedTuple):
    """Composite Simpson plan of a density over [floor, t]: ascending nodes,
    their weights, and the density at the nodes (kept apart from the weights
    so a feedback integral is dot(weights, f(u(nodes)) * density))."""

    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray


class HistoryComponent:
    """One component of a history, read at a time or at an array of times.

    `feedback` serves density quadrature: it returns the density part of a
    kernel's feedback integral of f at t.  A history that can share plans,
    lookups and evaluations of f between calls overrides it.
    """

    __slots__ = ()

    def __call__(self, s: float) -> float:
        raise NotImplementedError

    def array(self, ss: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def feedback(self, kernel: "DelayKernel", f: ProductionFunction, t: float, n_quad: int) -> float:
        plan = kernel.plan(t, n_quad)
        return float(np.dot(plan.weights, f.eval_array(self.array(plan.nodes)) * plan.density))


class FnComponent(HistoryComponent):
    """A history component backed by a numpy-compatible callable."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, s: float) -> float:
        return float(self._fn(s))

    def array(self, ss: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(ss, dtype=float)), dtype=float)


def as_component(fn: Callable) -> HistoryComponent:
    """Wrap a numpy-compatible callable as a history component."""
    return FnComponent(fn)


@dataclass(frozen=True)
class KernelCertificate:
    t_points: int
    max_mass_residual: float


@dataclass(frozen=True)
class KernelViolation:
    t: float
    kind: str  # "mass" | "advanced-lag" | "domain-error"
    detail: str


# n_panels -> (node indices 0..2*n_panels as floats, Simpson weights on unit spacing)
_SIMPSON_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def simpson_nodes_weights(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson with n_panels parabolic panels
    (2*n_panels subintervals) on [a, b].

    The nodes are those of np.linspace(a, b, 2*n_panels + 1), bit for bit:
    the same operations on a cached index ramp, without linspace's per-call
    overhead."""
    if n_panels < 1:
        raise ValueError("need at least one Simpson panel")
    cached = _SIMPSON_CACHE.get(n_panels)
    if cached is None:
        w = np.ones(2 * n_panels + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w /= 3.0
        cached = _SIMPSON_CACHE[n_panels] = (np.arange(2 * n_panels + 1, dtype=float), w)
    ramp, w = cached
    div = 2 * n_panels
    h = (b - a) / div
    # linspace divides first when the step underflows to zero
    nodes = ramp * h if h else ramp / div * (b - a)
    nodes += a
    nodes[-1] = b
    return nodes, w * h


def _as_lag(lag: str | Expression) -> Expression:
    return lag if isinstance(lag, Expression) else parse(lag, var="t")


def _window(floor: float, t: float, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes and weights on the non-empty window [floor, t]."""
    if t - floor <= 0.0:
        raise ValueError(f"kernel window is empty at t={t!r} (floor {floor!r})")
    return simpson_nodes_weights(floor, t, n_quad)


class DelayKernel:
    """Base class; subclasses define the distribution at each time t.

    A kernel with a density part builds its quadrature `plan(t, n_quad)`;
    the feedback integral and the mass of that part both come from it.
    """

    def support_floor(self, t: float) -> float:
        raise NotImplementedError

    def span(self, t: float) -> float:
        return t - self.support_floor(t)

    def plan(self, t: float, n_quad: int = DEFAULT_PANELS) -> QuadPlan:
        """Quadrature plan of the density part at time t."""
        raise NotImplementedError

    def integrate(
        self, f: ProductionFunction, u: HistoryComponent, t: float, n_quad: int = DEFAULT_PANELS
    ) -> float:
        raise NotImplementedError

    def mass(self, t: float, n_quad: int = DEFAULT_PANELS) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _density_integral(self, f, u: HistoryComponent, t: float, n_quad: int) -> float:
        if n_quad < 2:
            raise ValueError("density quadrature needs n_quad >= 2")
        return u.feedback(self, f, t, n_quad)

    def _density_mass(self, t: float, n_quad: int) -> float:
        plan = self.plan(t, n_quad)
        return float(np.dot(plan.weights, plan.density))


class PointMassKernel(DelayKernel):
    """Unit mass concentrated at s = h(t)."""

    __slots__ = ("lag",)

    def __init__(self, lag: str | Expression):
        self.lag = _as_lag(lag)

    def support_floor(self, t: float) -> float:
        return self.lag.evaluate(t)

    def integrate(self, f, u, t, n_quad=DEFAULT_PANELS):
        return f(u(self.lag.evaluate(t)))

    def mass(self, t, n_quad=DEFAULT_PANELS):
        return 1.0

    def describe(self) -> str:
        return f"point lag={self.lag.serialize()!r}"


class _DensityWindowKernel(DelayKernel):
    """Shared machinery for densities supported on [h(t), t].

    Two windows of the same kind and lag are equal, so a history can share
    their plans.  The hash is taken once: hashing the lag walks its syntax
    tree.
    """

    __slots__ = ("lag", "_hash")

    def __init__(self, lag: str | Expression):
        self.lag = _as_lag(lag)
        self._hash = hash((type(self), self.lag))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.lag == self.lag

    def __hash__(self) -> int:
        return self._hash

    def support_floor(self, t: float) -> float:
        return self.lag.evaluate(t)

    def _density(self, nodes: np.ndarray, floor: float, span: float) -> np.ndarray:
        raise NotImplementedError

    def plan(self, t, n_quad=DEFAULT_PANELS):
        floor = self.lag.evaluate(t)
        nodes, weights = _window(floor, t, n_quad)
        return QuadPlan(nodes, weights, self._density(nodes, floor, t - floor))

    def integrate(self, f, u, t, n_quad=DEFAULT_PANELS):
        return self._density_integral(f, u, t, n_quad)

    def mass(self, t, n_quad=DEFAULT_PANELS):
        return self._density_mass(t, n_quad)


class UniformDensityKernel(_DensityWindowKernel):
    """Constant density 1/(t - h(t)) on [h(t), t]."""

    def _density(self, nodes, floor, span):
        return np.full(nodes.shape, 1.0 / span)

    def describe(self) -> str:
        return f"uniform lag={self.lag.serialize()!r}"


class TriangularDensityKernel(_DensityWindowKernel):
    """Density rising linearly from 0 at h(t) to 2/(t - h(t)) at t."""

    def _density(self, nodes, floor, span):
        return (2.0 / (span * span)) * (nodes - floor)

    def describe(self) -> str:
        return f"triangular lag={self.lag.serialize()!r}"


class GeneralMixtureKernel(DelayKernel):
    """Point masses plus one density piece.

    The density is an expression in the elapsed age a = t - s, supported
    on [lag(t), t]; atom weights plus the density integral must total 1.
    """

    __slots__ = ("atoms", "density", "density_lag")

    def __init__(
        self,
        atoms: Sequence[tuple[str | Expression, float]] = (),
        density: str | Expression | None = None,
        density_lag: str | Expression | None = None,
    ):
        self.atoms = tuple((_as_lag(lag), float(w)) for lag, w in atoms)
        if (density is None) != (density_lag is None):
            raise ValueError("a mixture density requires its lag expression")
        self.density = parse(density, var="u") if isinstance(density, str) else density
        self.density_lag = _as_lag(density_lag) if density_lag is not None else None
        if not self.atoms and self.density is None:
            raise ValueError("mixture kernel needs atoms or a density")
        for _, w in self.atoms:
            if w <= 0.0:
                raise ValueError("atom weights must be positive")

    def support_floor(self, t: float) -> float:
        floors = [lag.evaluate(t) for lag, _ in self.atoms]
        if self.density_lag is not None:
            floors.append(self.density_lag.evaluate(t))
        return min(floors)

    def plan(self, t, n_quad=DEFAULT_PANELS):
        if self.density is None:
            raise ValueError("mixture kernel has no density part")
        nodes, weights = _window(self.density_lag.evaluate(t), t, n_quad)
        return QuadPlan(nodes, weights, self.density.evaluate_array(t - nodes))

    def integrate(self, f, u, t, n_quad=DEFAULT_PANELS):
        total = 0.0
        for lag, w in self.atoms:
            total += w * f(u(lag.evaluate(t)))
        if self.density is not None:
            total += self._density_integral(f, u, t, n_quad)
        return total

    def mass(self, t, n_quad=DEFAULT_PANELS):
        total = sum(w for _, w in self.atoms)
        if self.density is not None:
            total += self._density_mass(t, n_quad)
        return total

    def describe(self) -> str:
        parts = [f"({lag.serialize()}, {w})" for lag, w in self.atoms]
        if self.density is not None:
            parts.append(
                f"density {self.density.serialize()!r} lag={self.density_lag.serialize()!r}"
            )
        return "mixture " + " + ".join(parts)


# ---------------------------------------------------------------------------


def stieltjes_integrate(
    kernel: DelayKernel,
    f: ProductionFunction,
    u: HistoryComponent | Callable,
    t: float,
    n_quad: int = DEFAULT_PANELS,
) -> float:
    """Integrate f(u(s)) against the kernel's distribution at time t."""
    if not isinstance(u, HistoryComponent):
        u = as_component(u)
    return kernel.integrate(f, u, t, n_quad)


def validate_kernel(
    kernel: DelayKernel, t_grid: Sequence[float], n_quad: int = DEFAULT_PANELS
) -> KernelCertificate | KernelViolation:
    """Check unit mass (to 1e-8) and non-advanced lags at every grid point."""
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("validation grid must be non-empty")
    worst = 0.0
    for t in t_grid:
        try:
            floor = kernel.support_floor(t)
            if floor > t + 1e-12:
                return KernelViolation(
                    t, "advanced-lag", f"support floor {floor!r} exceeds t={t!r}"
                )
            if isinstance(kernel, GeneralMixtureKernel):
                for lag, _ in kernel.atoms:
                    lv = lag.evaluate(t)
                    if lv > t + 1e-12:
                        return KernelViolation(
                            t, "advanced-lag", f"atom lag {lv!r} exceeds t={t!r}"
                        )
            m = kernel.mass(t, n_quad)
        except EvalDomainError as e:
            return KernelViolation(t, "domain-error", str(e))
        except ValueError as e:  # a density over an empty window has no mass
            return KernelViolation(t, "mass", str(e))
        residual = abs(m - 1.0)
        worst = max(worst, residual)
        if residual > MASS_TOL:
            return KernelViolation(t, "mass", f"total mass {m!r} at t={t!r}")
    return KernelCertificate(t_points=len(t_grid), max_mass_residual=worst)
