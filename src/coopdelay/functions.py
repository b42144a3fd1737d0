"""Strictly increasing production functions with reliable numeric inversion.

A ProductionFunction wraps either a parsed expression or an arbitrary
scalar callable.  Monotonicity of an expression is proved symbolically
when its syntax tree is built from increasing pieces (the variable; exp,
ln, sqrt and tanh of a monotone argument; sums with constants or terms of
the same direction; scaling by a nonzero constant).  Other expressions and
opaque callables are certified by grid sampling.  Either way the verified
interval, the grid size and the method are recorded on the certificate so
downstream consumers know exactly what was checked.  `verify_positive`
samples a growth modulation G (an expression) for positivity on the same
kind of grid.

Inverses are computed by one scalar bisection, which monotonicity makes
bracketing-safe.  Values below the function's range invert to 0 by
convention; this convention is applied globally and surfaced in run
reports.  Nothing is inverted on arrays: the relation scan samples along
u = f1^-1(x) instead (see analysis.scan_relation).

The separator g = alpha*f1^-1 + (1-alpha)*f2 of the bound sequences is its
own class, not a ProductionFunction: it is evaluated and inverted only
along u = f1^-1(x), and nothing hands it to `inverse_auto`.  Its inverse
needs no inverse of f1: f1^-1 is 0 on [0, f1(0)], so there g^-1 is an
inverse of f2, and above it g(f1(u)) = alpha*u + (1-alpha)*f2(f1(u)) is
solved for u by one bisection and g^-1 = f1(u), returned with its u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import Call, EvalDomainError, Expression, Neg, Node, Num, Var, parse

__all__ = [
    "ProductionFunction",
    "MonotonicityCertificate",
    "MonotonicityViolation",
    "PositivityCertificate",
    "PositivityViolation",
    "InverseRangeError",
    "verify_increasing",
    "verify_positive",
    "inverse",
    "inverse_auto",
    "Separator",
]

DEFAULT_INVERSE_TOL = 1e-12
DEFAULT_GRID = 10_001
BRACKET_CAP = 2.0**50


@dataclass(frozen=True)
class MonotonicityCertificate:
    x_max: float
    n_grid: int
    plateau_fraction: float = 0.0  # share of adjacent grid values that tie in doubles
    method: str = "grid"  # "symbolic" (proved from the expression) | "grid" (sampled)


@dataclass(frozen=True)
class MonotonicityViolation:
    kind: str  # "not-increasing" | "not-positive" | "domain-error"
    x_left: float
    x_right: float
    f_left: float | None = None
    f_right: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class PositivityCertificate:
    x_max: float
    n_grid: int


@dataclass(frozen=True)
class PositivityViolation:
    x: float
    value: float | None
    detail: str = ""


class InverseRangeError(ValueError):
    """Requested value lies above the function's value at the bracket top;
    the caller must enlarge the working interval."""

    def __init__(self, y: float, bracket_hi: float, f_hi: float):
        self.y = y
        self.bracket_hi = bracket_hi
        self.f_hi = f_hi
        super().__init__(
            f"target {y!r} exceeds f({bracket_hi!r}) = {f_hi!r}; enlarge the bracket"
        )


def _vectorize(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    def array_fn(vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=float)
        out = np.empty(vs.shape, dtype=float)
        flat = vs.ravel()
        dst = out.ravel()
        for i in range(flat.size):
            dst[i] = fn(float(flat[i]))
        return out

    return array_fn


class ProductionFunction:
    """A strictly increasing scalar map on the non-negative reals."""

    __slots__ = ("_fn", "_array_fn", "name", "expression", "_inverse_fn")

    def __init__(
        self,
        fn: Callable[[float], float],
        array_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        *,
        name: str | None = None,
        inverse_fn: Callable[[float], float] | None = None,
        expression: Expression | None = None,
    ):
        self._fn = fn
        self._array_fn = array_fn if array_fn is not None else _vectorize(fn)
        self.name = name or getattr(fn, "__name__", "f")
        self.expression = expression
        self._inverse_fn = inverse_fn

    @classmethod
    def from_expression(cls, body: str | Expression, var: str = "x") -> "ProductionFunction":
        e = body if isinstance(body, Expression) else parse(body, var=var)
        return cls(e.evaluate, e.evaluate_array, name=e.serialize(), expression=e)

    def __call__(self, v: float) -> float:
        return self._fn(v)

    def eval_array(self, vs: np.ndarray) -> np.ndarray:
        return self._array_fn(np.asarray(vs, dtype=float))

    def evaluate_each(self, vs: list) -> list | None:
        """The expression's `evaluate_each`; None for a function that is not
        an expression, which is then called value by value."""
        return None if self.expression is None else self.expression.evaluate_each(vs)

    def __repr__(self) -> str:
        return f"ProductionFunction({self.name!r})"

    # -- inversion ----------------------------------------------------

    @property
    def bisects(self) -> bool:
        """Whether `inverse` bisects over the bracket it is given; a closed-form
        inverse does not read the bracket."""
        return self._inverse_fn is None

    def inverse(self, y: float, bracket_hi: float, tol: float = DEFAULT_INVERSE_TOL) -> float:
        if self._inverse_fn is not None:
            return max(0.0, self._inverse_fn(y))
        return inverse(self, y, bracket_hi, tol)


# ---------------------------------------------------------------------------


_MONOTONE_CALLS = frozenset({"exp", "ln", "sqrt", "tanh"})


def _constant_sign(node: Node) -> int:
    """Sign of a variable-free subtree; 0 when it is zero or undefined."""
    try:
        v = Expression(node, "x").evaluate(0.0)
    except EvalDomainError:
        return 0
    return (v > 0.0) - (v < 0.0)


def _direction(node: Node) -> int | None:
    """Monotone direction of node on the interval where it is defined:
    0 constant, +1 strictly increasing, -1 strictly decreasing, None when
    the rules cannot decide."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        d = _direction(node.operand)
        return None if d is None else -d
    if isinstance(node, Call):
        dirs = [_direction(a) for a in node.args]
        if all(d == 0 for d in dirs):
            return 0
        return dirs[0] if node.fn in _MONOTONE_CALLS else None
    left, right = _direction(node.left), _direction(node.right)
    if left is None or right is None:
        return None
    if left == 0 and right == 0:
        return 0
    if node.op in "+-":
        if node.op == "-":
            right = -right
        if left == 0 or left == right:
            return right
        return left if right == 0 else None
    if node.op == "*" and left == 0:
        return _constant_sign(node.left) * right or None
    if node.op in "*/" and right == 0:
        return _constant_sign(node.right) * left or None
    return None


def verify_increasing(
    f: ProductionFunction, x_max: float, n_grid: int = DEFAULT_GRID
) -> MonotonicityCertificate | MonotonicityViolation:
    """Certify that f is strictly increasing and positive for positive
    arguments on [0, x_max].  Returns the first offending adjacent pair
    of the grid, or a certificate recording what was verified and how.

    f is sampled on a uniform grid in every case: a decreasing adjacent
    pair, a domain error or a non-positive value rejects it.  Equal
    adjacent values are where the two methods differ.  When f carries an
    expression that the symbolic rules prove increasing (method
    "symbolic"), ties are float resolution of a saturating function
    (tanh rounds to 1.0 from x ~ 19) and are not held against it.  A
    monotone argument takes its extreme values at the interval's ends,
    which the grid contains, so a clean sample also rules out a domain
    error in between.  Otherwise (method "grid") ties covering more than
    20% of the grid mean the function is genuinely flat somewhere, and it
    is rejected."""
    if x_max <= 0 or n_grid < 2:
        raise ValueError("x_max must be positive and n_grid at least 2")
    xs = np.linspace(0.0, x_max, n_grid)
    try:
        vals = f.eval_array(xs)
    except EvalDomainError as e:
        return MonotonicityViolation("domain-error", 0.0, x_max, detail=str(e))
    diffs = np.diff(vals)
    bad = np.nonzero(diffs < 0.0)[0]
    if bad.size:
        i = int(bad[0])
        return MonotonicityViolation(
            "not-increasing", float(xs[i]), float(xs[i + 1]), float(vals[i]), float(vals[i + 1])
        )
    flat = np.nonzero(diffs == 0.0)[0]
    plateau = flat.size / diffs.size
    proved = f.expression is not None and _direction(f.expression.root) == 1
    if plateau > 0.2 and not proved:
        i = int(flat[0])
        return MonotonicityViolation(
            "not-increasing",
            float(xs[i]),
            float(xs[i + 1]),
            float(vals[i]),
            float(vals[i + 1]),
            detail=f"flat over {100.0 * plateau:.1f}% of [0, {x_max:g}]",
        )
    nonpos = np.nonzero((xs > 0.0) & (vals <= 0.0))[0]
    if nonpos.size:
        i = int(nonpos[0])
        return MonotonicityViolation(
            "not-positive", float(xs[i]), float(xs[i]), float(vals[i]), float(vals[i])
        )
    return MonotonicityCertificate(
        x_max=float(x_max), n_grid=int(n_grid), plateau_fraction=float(plateau),
        method="symbolic" if proved else "grid",
    )


def verify_positive(
    g: Expression, x_max: float, n_grid: int = DEFAULT_GRID
) -> PositivityCertificate | PositivityViolation:
    """Check on a uniform grid of [0, x_max] that the modulation g is
    positive for positive arguments; returns the first grid point where it
    is not, or a certificate recording the grid."""
    xs = np.linspace(0.0, x_max, n_grid)
    try:
        vals = g.evaluate_array(xs)
    except EvalDomainError as e:
        return PositivityViolation(x=float("nan"), value=None, detail=str(e))
    bad = np.nonzero((xs > 0.0) & (vals <= 0.0))[0]
    if bad.size:
        i = int(bad[0])
        return PositivityViolation(x=float(xs[i]), value=float(vals[i]))
    return PositivityCertificate(x_max=x_max, n_grid=n_grid)


def inverse(
    f: ProductionFunction | Callable[[float], float],
    y: float,
    bracket_hi: float,
    tol: float = DEFAULT_INVERSE_TOL,
) -> float:
    """Invert a verified-increasing f on [0, bracket_hi] by bisection.

    Values below f(0) return 0 by convention; values above f(bracket_hi)
    raise InverseRangeError so the caller can enlarge the interval.  The
    result x satisfies |f(x) - y| <= tol * max(1, |y|).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    fn = f if callable(f) and not isinstance(f, ProductionFunction) else f.__call__
    f_lo = fn(0.0)
    if y <= f_lo:
        return 0.0
    f_hi = fn(bracket_hi)
    if y > f_hi:
        raise InverseRangeError(y, bracket_hi, f_hi)
    lo, hi = 0.0, float(bracket_hi)
    budget = tol * max(1.0, abs(y))
    best_x, best_err = lo, abs(f_lo - y)
    if abs(f_hi - y) < best_err:
        best_x, best_err = hi, abs(f_hi - y)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        err = abs(fm - y)
        if err < best_err:
            best_x, best_err = mid, err
        if err <= budget:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(hi):
            break
    return best_x


def inverse_auto(
    f: ProductionFunction,
    y: float,
    bracket_hi: float,
    tol: float = DEFAULT_INVERSE_TOL,
) -> float:
    """Inverse with geometric bracket enlargement (x2) up to BRACKET_CAP.

    The bracket grows by evaluating f alone, and f is inverted once, over
    the first bracket whose top reaches y: the same bracket, result and
    InverseRangeError as inverting over each doubled bracket in turn.  A
    function whose inverse does not read the bracket is inverted at once."""
    hi = float(bracket_hi)
    if f.bisects and y > f(0.0):  # at or below f(0) the inverse is 0
        while y > (f_hi := f(hi)):
            if hi >= BRACKET_CAP:
                raise InverseRangeError(y, hi, f_hi)
            hi = min(BRACKET_CAP, 2.0 * hi)
    return f.inverse(y, hi, tol)


class Separator:
    """The strictly increasing blend g = alpha * f1^-1 + (1 - alpha) * f2.

    Lies strictly between f1^-1 and f2 wherever they differ, which is what
    synchronizes the two components of the bound sequences.

    g(x) bisects f1^-1 from [0, bracket_hi], growing the bracket as needed
    (`f1_inverse`).  Every other use goes along u = f1^-1(x), which needs
    no inverse of f1: `at(x, u)` is g(x) for a known u, and at(f1(u), u) =
    alpha * u + (1 - alpha) * f2(f1(u)) = h(u) is g(f1(u)).
    `inverse_xu(y)` returns x = g^-1(y) together with its u, from one
    bisection of h (or of f2 where x <= f1(0), there u = 0).  A bounded f1
    needs no special case: h is unbounded even where f1 is not.
    """

    __slots__ = ("f1", "f2", "alpha", "_bracket_hi", "_f1_0", "_f2_f1_0", "_g_0", "_g_f1_0")

    def __init__(
        self, f1: ProductionFunction, f2: ProductionFunction, alpha: float, bracket_hi: float
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        self.f1, self.f2, self.alpha = f1, f2, alpha
        self._bracket_hi = bracket_hi
        self._f1_0 = f1(0.0)
        self._f2_f1_0 = f2(self._f1_0)
        self._g_0 = (1.0 - alpha) * f2(0.0)  # f1^-1(0) = 0
        self._g_f1_0 = (1.0 - alpha) * self._f2_f1_0

    def __call__(self, x: float) -> float:
        return self.at(x, self.f1_inverse(x))

    def f1_inverse(self, x: float) -> float:
        """u = f1^-1(x) by bisection; 0 where x <= f1(0)."""
        return inverse_auto(self.f1, x, self._bracket_hi)

    def at(self, x: float, u: float) -> float:
        """g(x) given u = f1^-1(x); at(f1(u), u) is h(u) = g(f1(u))."""
        return self.alpha * u + (1.0 - self.alpha) * self.f2(x)

    def inverse_xu(self, y: float) -> tuple[float, float]:
        """(x, u) with g(x) = y and u = f1^-1(x).

        Values up to g(0) give (0, 0).  Up to g(f1(0)) = (1 - alpha) *
        f2(f1(0)), plus the tolerance, x inverts f2 on [0, f1(0)] and u is
        0.  Above that, u solves h(u) = y by one bisection and x = f1(u)."""
        if y <= self._g_0:
            return 0.0, 0.0
        if y <= self._g_f1_0 + DEFAULT_INVERSE_TOL * max(1.0, abs(y)):
            # within the tolerance of g(f1(0)) the h bisection could only
            # return u ~ tol; the clamp keeps x in [0, f1(0)] instead
            target = min(y / (1.0 - self.alpha), self._f2_f1_0)
            return self.f2.inverse(target, self._f1_0), 0.0
        f1 = self.f1

        def h(u: float) -> float:
            return self.at(f1(u), u)

        hi = 1.0
        while h(hi) < y:  # h grows at least like alpha * u: this stops
            hi *= 2.0
        u = inverse(h, y, hi)
        return f1(u), u
