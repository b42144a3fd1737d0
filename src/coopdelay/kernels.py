"""Delay distributions and the feedback integrals against them.

Each kernel represents a time-indexed probability distribution over past
times with unit total mass: a point mass at a lagged instant, a uniform
or triangular density over a trailing window, or a general mixture of
atoms plus one density piece.  A purely singular-continuous distribution
is out of scope; atoms plus a density cover every supported model.

The feedback integral sum(w_j * f(u(lag_j(t)))) + integral density * f(u(s)) ds
is evaluated with composite Simpson panels for the density part: the kernel
builds its plan at t (nodes, weights, density at the nodes), and the history
component u returns the density part, dot(weights, f(u(nodes)) * density),
from `u.feedback(kernel, f, t, n_quad)`.  A point kernel's f(u(lag(t))) comes
from `u.point_feedback(kernel, f, t)`, a mixture's atoms read u(s).  The
integrator's per-step view is that component, and it keeps plans, lagged
times, history values and values of f between the calls of a step.  Density
windows compare equal by kind and lag, so equal windows can share that work;
a point kernel shares it with itself, so a config gives equal point
descriptors one kernel object.  Quadrature nodes and lagged times that fall
before the start of recorded history raise HistoryUnderflowError instead of
extrapolating.

A point mass and the uniform and triangular windows have unit mass by
construction, so `validate_kernel` checks only the user's lags on them
(advanced, empty window, domain error).  A mixture's weights and density come
from the user, so its mass is checked by quadrature on the sampled grid
(`sampled_mass`).

Atoms may sit exactly at the current time (zero lag): the integrand always
reads the opposite component's history, so no implicit equation arises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .expr import EvalDomainError, Expression, parse
from .functions import ProductionFunction

__all__ = [
    "DelayKernel",
    "PointMassKernel",
    "UniformDensityKernel",
    "TriangularDensityKernel",
    "GeneralMixtureKernel",
    "HistoryUnderflowError",
    "QuadPlan",
    "KernelCertificate",
    "KernelViolation",
    "validate_kernel",
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


@dataclass(frozen=True)
class KernelCertificate:
    t_points: int
    max_mass_residual: float
    max_span: float


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


def _check_window(floor: float, t: float) -> None:
    if t - floor <= 0.0:
        raise ValueError(f"kernel window is empty at t={t!r} (floor {floor!r})")


def _window(floor: float, t: float, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes and weights on the non-empty window [floor, t]."""
    if n_quad < 2:
        raise ValueError("density quadrature needs n_quad >= 2")
    _check_window(floor, t)
    return simpson_nodes_weights(floor, t, n_quad)


class DelayKernel:
    """Base class; subclasses define the distribution at each time t.

    A kernel with a density part builds its quadrature `plan(t, n_quad)`,
    and the feedback integral of that part comes from it.
    """

    # unit mass depends on the kernel's parameters and is checked by
    # quadrature (`mass`) on a sampled grid, instead of holding by
    # construction
    sampled_mass = False
    # the support floor is the kernel's one lag, so checking the floor
    # checks its atom too
    floor_is_only_lag = False

    def atom_lags(self) -> tuple[Expression, ...]:
        """The lag expressions of the kernel's point masses."""
        return ()

    def support_floor(self, t: float) -> float:
        raise NotImplementedError

    def span(self, t: float) -> float:
        return t - self.support_floor(t)

    def plan(self, t: float, n_quad: int = DEFAULT_PANELS) -> QuadPlan:
        """Quadrature plan of the density part at time t."""
        raise NotImplementedError

    def integrate(self, f: ProductionFunction, u, t: float, n_quad: int = DEFAULT_PANELS) -> float:
        """Feedback integral of f against the history component u at t."""
        raise NotImplementedError


class _LagKernel(DelayKernel):
    """A kernel fixed by its kind and one lag expression h(t)."""

    __slots__ = ("lag",)
    floor_is_only_lag = True

    def __init__(self, lag: str | Expression):
        self.lag = _as_lag(lag)

    def support_floor(self, t: float) -> float:
        return self.lag.evaluate(t)


class PointMassKernel(_LagKernel):
    """Unit mass concentrated at s = h(t).

    Compared by identity, which keeps the per-step reads of a history cheap
    to find."""

    def atom_lags(self):
        return (self.lag,)

    def integrate(self, f, u, t, n_quad=DEFAULT_PANELS):
        return u.point_feedback(self, f, t)


class _DensityWindowKernel(_LagKernel):
    """Shared machinery for densities supported on [h(t), t].

    Two windows of the same kind and lag are equal, so a history can share
    their plans.  The hash is taken once: hashing the lag walks its syntax
    tree.
    """

    __slots__ = ("_hash",)

    def __init__(self, lag: str | Expression):
        super().__init__(lag)
        self._hash = hash((type(self), self.lag))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.lag == self.lag

    def __hash__(self) -> int:
        return self._hash

    def _density(self, nodes: np.ndarray, floor: float, span: float) -> np.ndarray:
        raise NotImplementedError

    def plan(self, t, n_quad=DEFAULT_PANELS):
        floor = self.lag.evaluate(t)
        nodes, weights = _window(floor, t, n_quad)
        return QuadPlan(nodes, weights, self._density(nodes, floor, t - floor))

    def integrate(self, f, u, t, n_quad=DEFAULT_PANELS):
        return u.feedback(self, f, t, n_quad)


class UniformDensityKernel(_DensityWindowKernel):
    """Constant density 1/(t - h(t)) on [h(t), t]."""

    def _density(self, nodes, floor, span):
        return np.full(nodes.shape, 1.0 / span)


class TriangularDensityKernel(_DensityWindowKernel):
    """Density rising linearly from 0 at h(t) to 2/(t - h(t)) at t."""

    def _density(self, nodes, floor, span):
        return (2.0 / (span * span)) * (nodes - floor)


class GeneralMixtureKernel(DelayKernel):
    """Point masses plus one density piece.

    The density is an expression in the elapsed age a = t - s, supported
    on [lag(t), t]; atom weights plus the density integral must total 1.
    """

    __slots__ = ("atoms", "density", "density_lag")
    sampled_mass = True

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

    def atom_lags(self):
        return tuple(lag for lag, _ in self.atoms)

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
            total += u.feedback(self, f, t, n_quad)
        return total

    def mass(self, t: float, n_quad: int = DEFAULT_PANELS) -> float:
        """Atom weights plus the quadrature mass of the density part at t."""
        total = sum(w for _, w in self.atoms)
        if self.density is not None:
            plan = self.plan(t, n_quad)
            total += float(np.dot(plan.weights, plan.density))
        return total


# ---------------------------------------------------------------------------


def validate_kernel(
    kernel: DelayKernel, t_grid: Sequence[float], n_quad: int = DEFAULT_PANELS
) -> KernelCertificate | KernelViolation:
    """Check non-advanced lags, non-empty windows and unit mass at every
    grid point, and measure the widest span.

    Each grid time evaluates the support floor once and reads it three
    times: the advanced-lag check, the empty-window check of a kernel with
    no atoms, and the span t - floor.  A point mass and the uniform and
    triangular windows have unit mass by construction (Simpson's rule is
    exact on a constant or linear density), so only a kernel with
    `sampled_mass` builds a quadrature plan, and its mass must be 1 to
    within 1e-8; the others certify a residual of 0.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("validation grid must be non-empty")
    worst = 0.0
    widest = -math.inf
    all_density = not kernel.atom_lags()
    atoms = () if kernel.floor_is_only_lag else kernel.atom_lags()
    for t in t_grid:
        try:
            floor = kernel.support_floor(t)
            if floor > t + 1e-12:
                return KernelViolation(
                    t, "advanced-lag", f"support floor {floor!r} exceeds t={t!r}"
                )
            if all_density:
                _check_window(floor, t)
            for lag in atoms:
                lv = lag.evaluate(t)
                if lv > t + 1e-12:
                    return KernelViolation(
                        t, "advanced-lag", f"atom lag {lv!r} exceeds t={t!r}"
                    )
            m = kernel.mass(t, n_quad) if kernel.sampled_mass else 1.0
        except EvalDomainError as e:
            return KernelViolation(t, "domain-error", str(e))
        except ValueError as e:  # a density over an empty window has no mass
            return KernelViolation(t, "mass", str(e))
        widest = max(widest, t - floor)
        residual = abs(m - 1.0)
        worst = max(worst, residual)
        if residual > MASS_TOL:
            return KernelViolation(t, "mass", f"total mass {m!r} at t={t!r}")
    return KernelCertificate(t_points=len(t_grid), max_mass_residual=worst, max_span=widest)
