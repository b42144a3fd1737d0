"""Delay distributions and the feedback integrals against them.

Each kernel represents a time-indexed probability distribution over past
times with unit total mass: a point mass at a lagged instant, a uniform
or triangular density over a trailing window, or a general mixture of
atoms plus one density piece.  A purely singular-continuous distribution
is out of scope; atoms plus a density cover every supported model.

The feedback integral sum(w_j * f(u(lag_j(t)))) + integral density * f(u(s)) ds
is `integrate(f, u, t)`, which names the kernel's parts to the history
component u: `u.point(lag, f, t)` per point mass, `u.window(kernel, f, t)`
for the density, and `u.mix` to weigh a mixture's atoms and add its density.
The component chooses the quadrature: the integrator's (see `feeds`) reads a
block of stage times t on its grid of step ends and midpoints; a plain
component (the tests' reference) reads one time t with the kernel's Simpson
`plan(t, n_quad)`, with which a mixture's mass check also integrates.  A
density kernel names its window's floor lag (`density_lag`), the floor h(t)
(`density_floor`) and the density at given times (`density_at`); a uniform
or triangular density also states how it factors (`density_factors`), so a
block of windows can weigh most of its nodes through shared sums.  Density
windows compare equal by kind and lag, so equal windows share their reads; a
config gives equal point descriptors one kernel object.  Reads before the
start of recorded history raise HistoryUnderflowError.

A point mass and the uniform and triangular windows have unit mass by
construction, so `validate_kernel` checks only the user's lags on them
(advanced, empty window, domain error), with one array evaluation of each
lag over the grid.  A mixture's weights and density come from the user, so
its mass is checked by quadrature at each grid time (`sampled_mass`).

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


class DelayKernel:
    """Base class; subclasses define the distribution at each time t.

    A kernel with a density part names its window's floor
    (`density_floor`) and its density (`density_at`); `plan` is the Simpson
    rule on that window.
    """

    # unit mass depends on the kernel's parameters and is checked by
    # quadrature (`mass`) on a sampled grid, instead of holding by
    # construction
    sampled_mass = False
    # the lag h(t) of the density part's window [h(t), t]; None without one
    density_lag = None
    # density_factors(t, floor, ref): the density of [floor, t] at the nodes
    # s >= ref >= floor as sum_m c_m (s - ref)^m, m < 2, each c_m >= 0: the
    # tuple of the c_m.  None when the density does not factor so
    density_factors = None

    def atom_lags(self) -> tuple[Expression, ...]:
        """The lag expressions of the kernel's point masses."""
        return ()

    def support_lags(self) -> tuple[Expression, ...]:
        """Every lag expression of the kernel; the support floor is their
        minimum."""
        raise NotImplementedError

    def support_floor(self, t: float) -> float:
        raise NotImplementedError

    def span(self, t: float) -> float:
        return t - self.support_floor(t)

    def density_floor(self, t: float) -> float:
        """Start h(t) of the density part's window [h(t), t]; ValueError when
        the window is empty."""
        raise NotImplementedError

    def density_at(self, t: float, floor: float, nodes: np.ndarray) -> np.ndarray:
        """The density of the window [floor, t] at the times nodes."""
        raise NotImplementedError

    def plan(self, t: float, n_quad: int = DEFAULT_PANELS) -> QuadPlan:
        """Composite Simpson plan of the density part at time t."""
        if n_quad < 2:
            raise ValueError("density quadrature needs n_quad >= 2")
        floor = self.density_floor(t)
        nodes, weights = simpson_nodes_weights(floor, t, n_quad)
        return QuadPlan(nodes, weights, self.density_at(t, floor, nodes))

    def integrate(self, f: ProductionFunction, u, t):
        """The feedback integral of f against the history component u at t,
        one time or a block's stage times (see `feeds`)."""
        raise NotImplementedError


class _LagKernel(DelayKernel):
    """A kernel fixed by its kind and one lag expression h(t)."""

    __slots__ = ("lag",)

    def __init__(self, lag: str | Expression):
        self.lag = _as_lag(lag)

    def support_lags(self):
        return (self.lag,)

    def support_floor(self, t: float) -> float:
        return self.lag.evaluate(t)


class PointMassKernel(_LagKernel):
    """Unit mass concentrated at s = h(t).  Compared by identity: a config
    gives equal point descriptors one kernel object."""

    def atom_lags(self):
        return (self.lag,)

    def integrate(self, f, u, t):
        return u.point(self.lag, f, t)


class _DensityWindowKernel(_LagKernel):
    """Shared machinery for densities supported on [h(t), t].

    Two windows of the same kind and lag are equal, so a history can share
    their reads.  The hash is taken once: hashing the lag walks its syntax
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

    @property
    def density_lag(self):
        return self.lag

    def density_floor(self, t):
        floor = self.lag.evaluate(t)
        _check_window(floor, t)
        return floor

    def integrate(self, f, u, t):
        return u.window(self, f, t)


class UniformDensityKernel(_DensityWindowKernel):
    """Constant density 1/(t - h(t)) on [h(t), t]."""

    def density_at(self, t, floor, nodes):
        return np.full(nodes.shape, 1.0 / (t - floor))

    def density_factors(self, t, floor, ref):
        return (1.0 / (t - floor),)


class TriangularDensityKernel(_DensityWindowKernel):
    """Density rising linearly from 0 at h(t) to 2/(t - h(t)) at t."""

    def density_at(self, t, floor, nodes):
        span = t - floor
        # scaled in place: a block's (stage times x nodes) array is then the
        # one large temporary
        out = nodes - floor
        out *= 2.0 / (span * span)
        return out

    def density_factors(self, t, floor, ref):
        # s - floor = (s - ref) + (ref - floor), both parts non-negative
        span = t - floor
        q = 2.0 / (span * span)
        return (q * (ref - floor), q)


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

    def support_lags(self):
        return self.atom_lags() + ((self.density_lag,) if self.density_lag is not None else ())

    def support_floor(self, t: float) -> float:
        return min(lag.evaluate(t) for lag in self.support_lags())

    def density_floor(self, t):
        if self.density is None:
            raise ValueError("mixture kernel has no density part")
        floor = self.density_lag.evaluate(t)
        _check_window(floor, t)
        return floor

    def density_at(self, t, floor, nodes):
        return self.density.evaluate_array(t - nodes)

    def integrate(self, f, u, t):
        return u.mix([(w, u.point(lag, f, t)) for lag, w in self.atoms],
                     u.window(self, f, t) if self.density is not None else None)

    def mass(self, t: float, n_quad: int = DEFAULT_PANELS) -> float:
        """Atom weights plus the quadrature mass of the density part at t."""
        total = sum(w for _, w in self.atoms)
        if self.density is not None:
            plan = self.plan(t, n_quad)
            total += float(np.dot(plan.weights, plan.density))
        return total


# ---------------------------------------------------------------------------


def _check_at(kernel: DelayKernel, t: float, n_quad: int) -> KernelViolation | tuple[float, float]:
    """Every check at the grid time t: the violation, or the span t - floor
    and the mass residual."""
    try:
        floor = kernel.support_floor(t)
        if floor > t + 1e-12:
            return KernelViolation(t, "advanced-lag", f"support floor {floor!r} exceeds t={t!r}")
        if not kernel.atom_lags():
            _check_window(floor, t)
        for lag in kernel.atom_lags():
            lv = lag.evaluate(t)
            if lv > t + 1e-12:
                return KernelViolation(t, "advanced-lag", f"atom lag {lv!r} exceeds t={t!r}")
        m = kernel.mass(t, n_quad) if kernel.sampled_mass else 1.0
    except EvalDomainError as e:
        return KernelViolation(t, "domain-error", str(e))
    except ValueError as e:  # a density over an empty window has no mass
        return KernelViolation(t, "mass", str(e))
    residual = abs(m - 1.0)
    if residual > MASS_TOL:
        return KernelViolation(t, "mass", f"total mass {m!r} at t={t!r}")
    return t - floor, residual


def validate_kernel(
    kernel: DelayKernel, t_grid: Sequence[float], n_quad: int = DEFAULT_PANELS
) -> KernelCertificate | KernelViolation:
    """Check non-advanced lags, non-empty windows and unit mass at every
    grid point, and measure the widest span.

    Each lag is evaluated once over the whole grid, as an array.  The grid
    times where a lag is advanced or a density window is empty are then
    checked one by one, in order, so the first violation keeps its kind,
    detail and time; when an array evaluation raises a domain error, every
    grid time is checked that way, which locates it.  A point mass and the
    uniform and triangular windows have unit mass by construction (Simpson's
    rule is exact on a constant or linear density), so only a kernel with
    `sampled_mass` builds a quadrature plan, at every grid time, and its mass
    must be 1 to within 1e-8; the others certify a residual of 0.
    """
    times = [float(t) for t in t_grid]
    if not times:
        raise ValueError("validation grid must be non-empty")
    ts = np.array(times)
    widest = -math.inf
    try:
        lags = [lag.evaluate_array(ts) for lag in kernel.support_lags()]
    except EvalDomainError:
        suspects = range(len(times))
    else:
        floors = np.minimum.reduce(lags)
        widest = float(np.max(ts - floors))
        if kernel.sampled_mass:
            suspects = range(len(times))
        else:
            bad = ts - floors <= 0.0 if not kernel.atom_lags() else np.zeros(ts.shape, dtype=bool)
            for values in lags:
                bad |= values > ts + 1e-12
            suspects = np.flatnonzero(bad).tolist()
    worst = 0.0
    for i in suspects:
        res = _check_at(kernel, times[i], n_quad)
        if isinstance(res, KernelViolation):
            return res
        widest = max(widest, res[0])
        worst = max(worst, res[1])
    return KernelCertificate(t_points=len(times), max_mass_residual=worst, max_span=widest)
