"""Constructive global-asymptotics analysis of the production pair.

Everything here works off the comparison curve

    delta(x) = f2(x) - f1^-1(x)

on a bounded inspection window (0, x_max], read along u = f1^-1(x): at
x = f1(u), delta(x) is the number f2(f1(u)) - u, which needs no inverse,
and a zero of it is an equilibrium (f1(u), u).  A single
orientation-correct sign change pins the positive equilibrium (K, f2(K))
and predicts convergence to it; delta negative everywhere predicts
extinction; positive everywhere predicts unbounded growth; a tangency
splits the fate by which side of the equilibrium the initial data sits on.
The predictions come with machine-checkable certificates:
forward-invariant permanence boxes and monotone bound sequences that
squeeze the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemSpec
from .expr import Expression
from .functions import InverseRangeError, Separator, inverse_auto
from .integrator import RunOutcome, Trajectory, detect_nonoscillation_violation

__all__ = [
    "RelationClass",
    "Classification",
    "BoundSequences",
    "PermanenceBox",
    "StallError",
    "BoxConstructionError",
    "scan_relation",
    "find_equilibrium",
    "classify",
    "choose_separator",
    "monotone_iteration",
    "contraction_start",
    "contraction_iteration",
    "initial_side",
    "permanence_bounds",
    "certify_run",
    "CertificationReport",
]

SCAN_GRID = 4097
SCAN_TOL = 1e-9
TOUCH_CANDIDATES = 8  # |delta| minima refined per scan
BOX_MARGIN = 1e-12
CERT_TOL = 1e-9  # slack of the certification's box and side-of-(K, f2(K)) checks
FATE_TOL = 1e-3  # slack of certify_run's fate check
CONTRACTION_FLOOR = 1e-12  # contraction sequences below it in both components read to-zero
REPORT_HEAD = 8  # bound pairs a report lists from the front of each sequence


class StallError(RuntimeError):
    """Monotonicity of the bound sequences failed numerically."""


class BoxConstructionError(RuntimeError):
    """The strict box inequalities could not be met."""


@dataclass
class RelationClass:
    kind: str  # single-crossing | below-everywhere | above-everywhere | tangent | unresolved
    K: float | None = None
    f2K: float | None = None
    crossings: list[float] = field(default_factory=list)
    tangents: list[float] = field(default_factory=list)
    sign_pattern: str = ""
    x_max: float = 0.0
    n_grid: int = 0
    witnesses: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "K": self.K,
            "f2K": self.f2K,
            "crossings": self.crossings,
            "tangents": self.tangents,
            "sign_pattern": self.sign_pattern,
            "x_max": self.x_max,
            "n_grid": self.n_grid,
        }


@dataclass
class Classification:
    relation: RelationClass
    fate: str  # to-equilibrium | to-zero | to-infinity | bistable | inconclusive
    fate_above: str | None = None
    fate_below: str | None = None
    caveats: list[str] = field(default_factory=list)

    @property
    def equilibrium(self) -> tuple[float, float] | None:
        if self.relation.K is None:
            return None
        return (self.relation.K, self.relation.f2K)

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.to_dict(),
            "fate": self.fate,
            "fate_above": self.fate_above,
            "fate_below": self.fate_below,
            "K": self.relation.K,
            "equilibrium": list(self.equilibrium) if self.equilibrium else None,
            "caveats": self.caveats,
        }


@dataclass
class BoundSequences:
    lower: list[tuple[float, float]]
    upper: list[tuple[float, float]]
    alpha: float | None
    terminal_gap: float
    terminal_gap_y: float
    converged: bool
    verdict: str | None = None  # contraction runs: to-zero | to-infinity | stalled

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "iterations": max(len(self.lower), len(self.upper)),
            "terminal_gap": self.terminal_gap,
            "terminal_gap_y": self.terminal_gap_y,
            "converged": self.converged,
            "verdict": self.verdict,
            "lower_head": [list(p) for p in self.lower[:REPORT_HEAD]],
            "upper_head": [list(p) for p in self.upper[:REPORT_HEAD]],
            "lower_end": list(self.lower[-1]) if self.lower else None,
            "upper_end": list(self.upper[-1]) if self.upper else None,
        }


@dataclass
class PermanenceBox:
    m1: float
    m2: float
    M1: float
    M2: float
    trace: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"m1": self.m1, "m2": self.m2, "M1": self.M1, "M2": self.M2, "trace": self.trace}


# ---------------------------------------------------------------------------
# Relation scan


def _refine_crossing(delta, a, b, tol) -> float:
    da, db = delta(a), delta(b)
    if da == 0.0:
        return a
    if db == 0.0:
        return b
    for _ in range(200):
        mid = 0.5 * (a + b)
        dm = delta(mid)
        if abs(dm) <= tol and (b - a) <= tol * max(1.0, abs(mid)):
            return mid
        if (dm > 0.0) == (da > 0.0):
            a, da = mid, dm
        else:
            b, db = mid, dm
    return 0.5 * (a + b)


def _refine_touch(delta, a, b, tol) -> tuple[float, float]:
    """Golden-section minimum of |delta| on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1v, f2v = abs(delta(x1)), abs(delta(x2))
    for _ in range(160):
        if (b - a) <= tol * max(1.0, abs(b)):
            break
        if f1v <= f2v:
            b, x2, f2v = x2, x1, f1v
            x1 = b - inv_phi * (b - a)
            f1v = abs(delta(x1))
        else:
            a, x1, f1v = x1, x2, f2v
            x2 = a + inv_phi * (b - a)
            f2v = abs(delta(x2))
    xm = 0.5 * (a + b)
    return xm, abs(delta(xm))


def _grid_events(signs: np.ndarray, absd: np.ndarray) -> tuple[list, np.ndarray, str]:
    """What the relation scan reads off its grid, given the deadbanded signs
    of delta and |delta|: the index pairs of consecutive nonzero signs that
    differ (one crossing each); the indices of the first TOUCH_CANDIDATES
    interior minima of |delta| (tangency candidates), skipping minima
    between opposite nonzero signs, which are crossings; and the run-length
    sign pattern, e.g. "+-" for one orientation-correct crossing."""
    nz = np.nonzero(signs != 0.0)[0]
    flips = np.nonzero(signs[nz[1:]] != signs[nz[:-1]])[0]
    pairs = list(zip(nz[flips], nz[flips + 1]))
    s_left, s_right = signs[:-2], signs[2:]
    crossed = (s_left != 0.0) & (s_right != 0.0) & (s_left != s_right)
    minima = (absd[1:-1] < absd[:-2]) & (absd[1:-1] <= absd[2:]) & ~crossed
    candidates = np.nonzero(minima)[0][:TOUCH_CANDIDATES] + 1
    codes = np.where(signs > 0.0, 1, np.where(signs < 0.0, -1, 0))
    runs = codes[np.r_[True, codes[1:] != codes[:-1]]]
    return pairs, candidates, "".join("+" if c > 0 else ("-" if c < 0 else "0") for c in runs)


def scan_relation(
    f1: Expression,
    f2: Expression,
    x_max: float,
    tol: float = SCAN_TOL,
    n_grid: int = SCAN_GRID,
) -> RelationClass:
    """Sign scan of delta = f2 - f1^-1 on the window (0, x_max], sampled
    log-spaced along u = f1^-1(x) on [tol, u_max].

    At x = f1(u), delta(x) = f2(f1(u)) - u, so no inverse is evaluated.
    The stretch below f1(0) is not sampled: f1^-1 is 0 there, so delta = f2
    is positive, with no crossing and no interior minimum.  u_max is
    f1^-1(x_max).  Where f1 does not reach x_max (a bounded f1, or one that
    gets there only beyond the inverse's bracket cap), every crossing and
    touch in the window has u = f2(x) <= f2(x_max), so the grid ends at
    u_max = 2*f2(x_max), where delta is negative, as it is on the stretch
    above f1's reach.  Crossings, touches and the side probes are refined
    in u; crossings, tangents, K and witnesses are reported as x = f1(u).
    """
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    lo = max(tol, 1e-12)
    try:
        u_max = inverse_auto(f1, x_max, max(x_max, 1.0))
    except InverseRangeError:
        u_max = 2.0 * f2(x_max)
    u_hi = max(u_max, lo)
    us = np.geomspace(lo, u_hi, n_grid)
    xs = f1.evaluate_array(us)
    ds = f2.evaluate_array(xs) - us

    def delta(u: float) -> float:
        return f2(f1(u)) - u

    # values this close to zero are sign-indeterminate at the precision of
    # f1 and f2; without the deadband rounding fabricates crossings in
    # regions where delta genuinely approaches zero (e.g. near the origin)
    zero_eps = 32.0 * 1e-12 * np.maximum(1.0, xs)
    absd = np.abs(ds)
    signs = np.where(absd <= zero_eps, 0.0, np.sign(ds))
    pairs, candidates, pattern_str = _grid_events(signs, absd)

    def u_tol(i: int, j: int) -> float:
        # the accuracy in u that keeps x = f1(u) within tol * max(1, x): tol
        # itself, tightened by the grid slope of f1 on [u_i, u_j] where it is steep
        want = max(1.0, xs[j]) * (us[j] - us[i])
        return float(tol * want / max(want, (xs[j] - xs[i]) * max(1.0, us[j])))

    crossings_u = [
        _refine_crossing(delta, float(us[i]), float(us[j]), u_tol(i, j)) for i, j in pairs
    ]
    crossings = [f1(u) for u in crossings_u]

    # a genuine touch dips well below its neighbors, which filters out
    # rounding noise in regions where delta is merely small
    tangents_u: list[float] = []
    for i in candidates:
        um, dm = _refine_touch(delta, float(us[i - 1]), float(us[i + 1]), u_tol(i - 1, i + 1))
        xm = f1(um)
        neighbors = min(absd[i - 1], absd[i + 1])
        if dm <= tol * max(1.0, xm) and neighbors >= max(8.0 * dm, 2.0 * tol * max(1.0, xm)):
            if not any(abs(xm - c) <= 1e-6 * max(1.0, xm) for c in crossings):
                tangents_u.append(um)
    tangents = [f1(u) for u in tangents_u]

    rel = RelationClass(
        kind="unresolved",
        crossings=crossings,
        tangents=tangents,
        sign_pattern=pattern_str,
        x_max=float(x_max),
        n_grid=int(n_grid),
    )

    if len(crossings) == 1 and not tangents:
        u = crossings_u[0]
        left = delta(u * 0.98) if u * 0.98 >= lo else delta(0.5 * (lo + u))
        right = delta(min(u * 1.02, u_hi))
        if left > 0.0 > right:
            rel.kind = "single-crossing"
            rel.K = crossings[0]
            rel.f2K = f2(rel.K)
        else:
            rel.witnesses = [crossings[0]]
    elif not crossings and len(tangents) == 1:
        u = tangents_u[0]
        probes = [p for p in (u * 0.5, u * 2.0, u_hi) if lo < p <= u_hi and abs(p - u) > 1e-6]
        vals = [delta(p) for p in probes]
        below = all(v < 0.0 for v in vals)
        if below or all(v > 0.0 for v in vals):
            rel.kind = "tangent"
            rel.K = tangents[0]
            rel.f2K = f2(rel.K)
            rel.sign_pattern = "-tangent-" if below else "+tangent+"
        else:
            rel.witnesses = [tangents[0]]
    elif not crossings and not tangents:
        nzs = signs[signs != 0.0]
        if nzs.size and np.all(nzs < 0.0):
            rel.kind = "below-everywhere"
        elif nzs.size and np.all(nzs > 0.0):
            rel.kind = "above-everywhere"
        else:
            rel.witnesses = [float(xs[int(np.argmin(absd))])]
    else:
        rel.witnesses = crossings + tangents
    return rel


def find_equilibrium(
    f1: Expression,
    f2: Expression,
    x_max: float,
    tol: float = SCAN_TOL,
) -> float | None:
    """K with f1^-1(K) = f2(K) when the relation pins exactly one, else None.

    An unresolved multi-crossing relation raises rather than guessing.
    """
    rel = scan_relation(f1, f2, x_max, tol)
    if rel.kind in ("single-crossing", "tangent"):
        return rel.K
    if rel.kind == "unresolved":
        raise BoxConstructionError(
            f"relation unresolved on (0, {x_max}]: witnesses {rel.witnesses}"
        )
    return None


def classify(
    f1: Expression,
    f2: Expression,
    x_max: float,
    tol: float = SCAN_TOL,
    n_grid: int = SCAN_GRID,
    *,
    relation: RelationClass | None = None,
) -> Classification:
    """Map the relation of (f1, f2) to the predicted global fate.

    The scan is repeated on a twice-finer grid; a fate that does not
    survive grid doubling is reported inconclusive with a caveat.
    `relation`, when given, is the result of the first scan, already made
    with these same arguments; only the finer scan then runs.
    """
    rel = relation if relation is not None else scan_relation(f1, f2, x_max, tol, n_grid)
    rel2 = scan_relation(f1, f2, x_max, tol, 2 * n_grid - 1)
    cls = _fate_of(rel)
    cls2 = _fate_of(rel2)
    if cls.fate != cls2.fate:
        return Classification(
            relation=rel2,
            fate="inconclusive",
            caveats=["grid-resolution"],
        )
    return cls


def _fate_of(rel: RelationClass) -> Classification:
    if rel.kind == "single-crossing":
        return Classification(relation=rel, fate="to-equilibrium")
    if rel.kind == "below-everywhere":
        return Classification(relation=rel, fate="to-zero")
    if rel.kind == "above-everywhere":
        return Classification(relation=rel, fate="to-infinity")
    if rel.kind == "tangent":
        if rel.sign_pattern == "-tangent-":
            return Classification(
                relation=rel,
                fate="bistable",
                fate_above="to-equilibrium",
                fate_below="to-zero",
            )
        return Classification(
            relation=rel,
            fate="bistable",
            fate_above="to-infinity",
            fate_below="to-equilibrium",
        )
    return Classification(relation=rel, fate="inconclusive")


# ---------------------------------------------------------------------------
# Separator and bound sequences


def choose_separator(
    f1: Expression,
    f2: Expression,
    b_floor: float,
    alpha0: float = 0.5,
    bracket_hi: float = 1e6,
) -> Separator:
    """Blend g = alpha*f1^-1 + (1-alpha)*f2 with g(0) <= b_floor.

    Since f1^-1(0) = 0, pushing alpha toward 1 scales g(0) = (1-alpha)*f2(0)
    down to zero, so the walk terminates for any positive floor.
    """
    if b_floor <= 0:
        raise ValueError("separator floor must be positive")
    alpha = alpha0
    for _ in range(60):
        g = Separator(f1, f2, alpha, bracket_hi)
        if g(0.0) <= b_floor:
            return g
        alpha = 0.5 * (1.0 + alpha)
    raise BoxConstructionError(
        f"no alpha in (0,1) reached g(0) <= {b_floor!r}; f2(0) = {f2(0.0)!r}"
    )


def monotone_iteration(
    f1: Expression,
    f2: Expression,
    g: Separator,
    K: float,
    box: tuple[float, float, float, float],
    n_max: int = 500,
    tol: float = 1e-8,
) -> BoundSequences:
    """Squeeze [a_n, A_n] x [b_n, B_n] toward the equilibrium, from the
    corners of the box (m1, m2, M1, M2).

    The start is aligned with the separator: a0 = min(m1, g^-1(m2)) and A0 =
    max(M1, g^-1(M2)), with b0 = g(a0) and B0 = g(A0), so [a0, A0] x [b0,
    B0] holds the box.  The recursion is a' = min(g^-1(f2(a)), f1(b)), b' =
    min(f2(a), g(f1(b))) below and the same with max above; b = g(a) and B
    = g(A) throughout.  Each bound carries u = f1^-1(a) (U with A), so no
    step inverts f1: g(f1(b)) is h(b) = alpha*b + (1-alpha)*f2(f1(b)), and
    g(a) is alpha*u + (1-alpha)*f2(a).  g is strictly increasing, so
    g^-1(f2(a)) <= f1(b) exactly when f2(a) <= h(b): one comparison picks
    the branch of both mins.  When h(b) wins, (a', u', b') = (f1(b), b,
    h(b)) with no inverse; only otherwise does g.inverse_xu(f2(a)) run,
    giving a' with its u'.  Only the start inverts f1 by bisection, once per
    side.

    Every step checks the sandwich a <= a' <= K <= A' <= A up to a
    tolerance: a bound may move back by eps = 1e-12 * max(1, |A0|, |B0|),
    and may pass K by max(eps, tol), so a lower bound can end above K (or
    an upper one below it) by that much.  b' = g(a'), B' = g(A') are
    checked from the carried u (exact on the h(b) branch, the bisection's
    accuracy on the other).  A failed check raises StallError.
    """
    m1, m2, M1, M2 = box
    a = min(m1, g.inverse_xu(m2)[0])
    u = g.f1_inverse(a)
    A = max(M1, g.inverse_xu(M2)[0])
    U = g.f1_inverse(A)
    b, B = g.at(a, u), g.at(A, U)
    if not (a <= K <= A):
        raise ValueError(f"need a0 <= K <= A0, got a0={a!r} K={K!r} A0={A!r}")
    scale = max(1.0, abs(A), abs(B))

    def step(a: float, b: float, pick) -> tuple[float, float, float]:
        # pick is min (lower) or max (upper); h(b) wins ties: no inverse
        y, x = f2(a), f1(b)
        hb = g.at(x, b)
        if pick(hb, y) == hb:
            return x, b, hb
        x, u = g.inverse_xu(y)
        return x, u, y

    def aligned(x: float, u: float, y: float) -> bool:
        return abs(g.at(x, u) - y) <= 1e-10 * max(1.0, abs(y))

    eps = 1e-12 * scale
    lower = [(a, b)]
    upper = [(A, B)]
    converged = False
    for n in range(n_max):
        a_next, u, b_next = step(a, b, min)
        A_next, U, B_next = step(A, B, max)
        if a_next < a - eps or A_next > A + eps:
            raise StallError(f"bound sequences lost monotonicity at step {n}")
        if a_next > K + max(eps, tol) or A_next < K - max(eps, tol):
            raise StallError(f"bound sequences crossed the equilibrium at step {n}")
        if not (aligned(a_next, u, b_next) and aligned(A_next, U, B_next)):
            raise StallError(f"separator alignment lost at step {n}")
        a, b, A, B = a_next, b_next, A_next, B_next
        lower.append((a, b))
        upper.append((A, B))
        if A - a <= tol:
            converged = True
            break
    return BoundSequences(
        lower=lower,
        upper=upper,
        alpha=g.alpha,
        terminal_gap=upper[-1][0] - lower[-1][0],
        terminal_gap_y=upper[-1][1] - lower[-1][1],
        converged=converged,
    )


def contraction_start(
    f1: Expression,
    f2: Expression,
    data_inf: tuple[float, float],
    data_sup: tuple[float, float],
    relation_kind: str,
    slack: float = 1e-3,
) -> tuple[float, float]:
    """A consistent starting pair for the crossed recursion.

    below-everywhere: (A0, B0) above the data with f1(B0) <= A0 and
    f2(A0) <= B0, so the sequence decreases; above-everywhere: a pair
    below the data with the opposite inequalities, so it increases.
    """
    if relation_kind == "below-everywhere":
        A = max(data_sup[0], 1.0) * (1.0 + slack)
        for _ in range(64):
            B = max(data_sup[1] * (1.0 + slack), f2(A) * (1.0 + slack))
            if f1(B) <= A:
                return A, B
            A = max(A * 2.0, f1(B) * (1.0 + slack))
        raise BoxConstructionError("could not bracket the state from above")
    if relation_kind == "above-everywhere":
        a = min(data_inf[0], 1.0) * (1.0 - slack)
        for _ in range(64):
            floor = inverse_auto(f1, a, max(1.0, data_sup[0]))
            b = min(data_inf[1] * (1.0 - slack), f2(a) * (1.0 - slack))
            if b >= floor and f1(b) >= a:
                return a, b
            a *= 0.5
        raise BoxConstructionError("could not bracket the state from below")
    raise ValueError(f"contraction start undefined for relation {relation_kind!r}")


def contraction_iteration(
    f1: Expression,
    f2: Expression,
    start: tuple[float, float],
    n_max: int = 500,
    cap: float = 1e12,
) -> BoundSequences:
    """Iterate A' = f1(B), B' = f2(A); verdict to-zero once both bounds
    drop below CONTRACTION_FLOOR, to-infinity once both exceed cap, stalled
    otherwise."""
    A, B = start
    seq = [(A, B)]
    verdict = "stalled"
    for _ in range(n_max):
        A, B = f1(B), f2(A)
        seq.append((A, B))
        if max(A, B) < CONTRACTION_FLOOR:
            verdict = "to-zero"
            break
        if min(A, B) > cap:
            verdict = "to-infinity"
            break
    return BoundSequences(
        lower=[],
        upper=seq,
        alpha=None,
        terminal_gap=seq[-1][0],
        terminal_gap_y=seq[-1][1],
        converged=verdict != "stalled",
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Permanence box


def permanence_bounds(
    f1: Expression,
    f2: Expression,
    K: float,
    init_inf: tuple[float, float],
    init_sup: tuple[float, float],
    slack: float = 1e-3,
    alpha0: float = 0.5,
) -> PermanenceBox:
    """A forward-invariant box [m1, M1] x [m2, M2] containing the data.

    Floor: below the data and strictly between the comparison curves, so
    the feedback pushes up at the floor (f1(m2) > m1, f2(m1) > m2).
    Ceiling: above the data and strictly between the curves right of the
    equilibrium (f2(M1) < M2 < f1^-1(M1)), built by the three-way case
    split on which data bound binds.
    """
    mu1, mu2 = init_inf
    nu1_s, nu2_s = init_sup
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("initial data infima must be positive")
    if not (0.0 < slack < 1.0):
        raise ValueError("slack must be in (0, 1)")
    f2K = f2(K)
    hi = 4.0 * max(K, nu1_s, nu2_s, 1.0)

    def inv_or_inf(f: Expression, y: float) -> float:
        try:
            return inverse_auto(f, y, hi)
        except InverseRangeError:
            return math.inf

    # floor: inverse caps only bind when the target sits in the range
    c1_terms = [mu1, K]
    if mu2 > f2(0.0):
        c1_terms.append(inv_or_inf(f2, mu2))
    c2_terms = [mu2, K]
    if mu1 > f1(0.0):
        c2_terms.append(inv_or_inf(f1, mu1))
    c1 = min(c1_terms)
    c2 = min(c2_terms)
    g = choose_separator(f1, f2, b_floor=0.99 * (1.0 - slack) * c2, alpha0=alpha0, bracket_hi=hi)
    m1 = (1.0 - slack) * c1
    inward = 0
    m2 = min((1.0 - slack) * c2, g(m1))
    while not (f1(m2) > m1 + BOX_MARGIN and f2(m1) > m2 + BOX_MARGIN):
        inward += 1
        if inward > 64:
            raise BoxConstructionError(
                f"floor inequalities unreachable after 64 inward steps "
                f"(m1={m1!r}, m2={m2!r})"
            )
        m1 *= 0.5
        m2 = min((1.0 - slack) * c2, g(m1))

    # ceiling: case split on which data bound binds, compared in forward
    # form (nu2 vs f2(nu1), nu1 vs f1(nu2)) so ties resolve exactly.  On a
    # tie rounding may still pick a case whose strict inequalities fail;
    # then the other two cases are tried, keeping the data inside the box
    scale = max(1.0, K, f2K, nu1_s, nu2_s)
    eps = slack * scale
    top1, top2 = max(K, nu1_s), max(f2K, nu2_s)
    nu1, nu2 = top1 + eps, top2 + eps

    def ceiling(case: str) -> tuple[float, float]:
        if case == "data-binds-x":
            gap = inv_or_inf(f1, nu1) - f2(nu1)
            if not math.isfinite(gap):
                gap = 2.0 * (nu2 + f2(nu1) + 1.0)
            return nu1, f2(nu1) + 0.5 * gap
        if case == "data-binds-y":
            gap = inv_or_inf(f2, nu2) - f1(nu2)
            if not math.isfinite(gap):
                gap = 2.0 * (nu1 + f1(nu2) + 1.0)
            return f1(nu2) + 0.5 * gap, nu2
        return nu1, nu2

    cases = ("data-binds-x", "data-binds-y", "data-inside-band")
    if nu2 <= f2(nu1):
        chosen = cases[0]
    elif nu1 <= f1(nu2):
        chosen = cases[1]
    else:
        chosen = cases[2]
    for case in (chosen, *(c for c in cases if c != chosen)):
        M1, M2 = ceiling(case)
        if (
            M1 > top1
            and M2 > top2
            and f2(M1) < M2 - BOX_MARGIN
            and M2 < inv_or_inf(f1, M1) - BOX_MARGIN
            and f1(M2) < M1 - BOX_MARGIN
        ):
            break
    else:
        raise BoxConstructionError(
            f"ceiling inequalities failed in case {chosen} and in the other two "
            f"(nu1={nu1!r}, nu2={nu2!r})"
        )
    return PermanenceBox(
        m1=m1,
        m2=m2,
        M1=M1,
        M2=M2,
        trace={
            "case": case,
            "alpha": g.alpha,
            "nu1": nu1,
            "nu2": nu2,
            "slack": slack,
            "floor_inward_steps": inward,
        },
    )


# ---------------------------------------------------------------------------
# Run certification


def initial_side(spec: SystemSpec, K: float, f2K: float, t_floor: float) -> str:
    """above | below | mixed, from the initial data's sampled bounds."""
    lo1, hi1 = spec.phi.bounds(t_floor)
    lo2, hi2 = spec.psi.bounds(t_floor)
    if lo1 >= K - CERT_TOL and lo2 >= f2K - CERT_TOL:
        return "above"
    if hi1 <= K + CERT_TOL and hi2 <= f2K + CERT_TOL:
        return "below"
    return "mixed"


@dataclass
class CertificationReport:
    status: str  # pass | mismatch | mismatch-explained | skipped
    checks: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"status": self.status, "checks": self.checks}


def certify_run(
    spec: SystemSpec,
    traj: Trajectory,
    outcome: RunOutcome,
    cls: Classification,
    box: PermanenceBox | None = None,
    bounds: BoundSequences | None = None,
    caveats: tuple[str, ...] | list[str] = (),
) -> CertificationReport:
    """Cross-check a finished simulation against its prediction.

    Checks: (i) the trajectory stays in the permanence box once both
    kernel supports have entered forward time; (ii) the run matches the
    predicted fate: for to-equilibrium the terminal state lies within the
    certified bound gap of the equilibrium; for to-zero the limit of the
    norm max(|x|, |y|), extrapolated by Aitken's delta^2 from three equally
    spaced samples over the second half of the run, lies within the bound
    envelope, so the verdict does not depend on how long the run was (a
    norm that is not decaying at a slowing rate is taken as its own
    limit); (iii) the one-sided invariance holds when the initial data,
    sampled over the whole window [spec.data_floor(), 0] that the analysis
    reads, is one-sided.
    Failures with an explaining caveat downgrade to mismatch-explained.
    """
    checks: list[dict] = []
    ts = traj.step_times()
    xs = traj.step_values(0)
    ys = traj.step_values(1)

    if box is not None:
        # the first stored time at which both kernel supports lie in forward
        # time, from one array evaluation of each support lag
        entered = np.ones(ts.shape, dtype=bool)
        for lag in spec.k1.support_lags() + spec.k2.support_lags():
            entered &= lag.evaluate_array(ts) >= 0.0
        t_enter = float(ts[np.argmax(entered)]) if entered.any() else ts[-1]
        mask = ts >= t_enter
        inside = (
            (xs[mask] >= box.m1 - CERT_TOL)
            & (xs[mask] <= box.M1 + CERT_TOL)
            & (ys[mask] >= box.m2 - CERT_TOL)
            & (ys[mask] <= box.M2 + CERT_TOL)
        )
        if np.all(inside):
            checks.append({"name": "permanence-box", "status": "pass",
                           "detail": f"inside from t={t_enter:.6g}"})
        else:
            i = int(np.argmin(inside))
            t_bad = float(ts[mask][i])
            checks.append({"name": "permanence-box", "status": "fail",
                           "detail": f"left the box at t={t_bad:.6g}"})
    else:
        checks.append({"name": "permanence-box", "status": "skip", "detail": "no box"})

    K, f2K = cls.relation.K, cls.relation.f2K
    side = initial_side(spec, K, f2K, spec.data_floor()) if K is not None else None
    expected = cls.fate
    if cls.fate == "bistable":
        if side in ("above", "below"):
            expected = cls.fate_above if side == "above" else cls.fate_below
        else:
            checks.append({"name": "fate", "status": "skip",
                           "detail": "mixed-side initial data: fate not predicted"})
            expected = None

    fx, fy = outcome.final_state
    if expected == "to-equilibrium":
        gap_x = bounds.terminal_gap if bounds is not None else 0.0
        gap_y = bounds.terminal_gap_y if bounds is not None else 0.0
        dev_x, dev_y = abs(fx - K), abs(fy - f2K)
        ok = dev_x <= gap_x + FATE_TOL and dev_y <= gap_y + FATE_TOL
        checks.append({
            "name": "fate", "status": "pass" if ok else "fail",
            "detail": (
                f"terminal ({fx:.6g}, {fy:.6g}) vs equilibrium ({K:.6g}, {f2K:.6g}): "
                f"|x - K| {dev_x:.6g} vs bound {gap_x + FATE_TOL:.6g}, "
                f"|y - f2(K)| {dev_y:.6g} vs bound {gap_y + FATE_TOL:.6g} (gap + {FATE_TOL:g})"
            ),
        })
    elif expected == "to-zero":
        envelope = max(bounds.terminal_gap, bounds.terminal_gap_y) if bounds is not None else 0.0
        # the bound envelope describes the limit as t -> oo, so compare it
        # with the limit extrapolated from the run's own decay (Aitken
        # delta^2 over three equally spaced norms spanning the second half of
        # the run), not with the norm at whatever horizon the run stopped
        t2 = outcome.t_final
        h = 0.25 * t2
        norms = [max(abs(v) for v in traj.value_scalar(t)) for t in (t2 - 2.0 * h, t2 - h)]
        norms.append(max(abs(fx), abs(fy)))
        d1, d2 = norms[1] - norms[0], norms[2] - norms[1]
        if d1 < d2 <= 0.0:  # decaying, and the decay slows down
            limit = norms[2] - d2 * d2 / (d2 - d1)
            rate = f"{-math.log(d2 / d1) / h:.6g}" if d2 < 0.0 else "inf"
        else:  # not a settling decay: nothing to extrapolate
            limit, rate = norms[2], "none"
        ok = limit <= envelope + FATE_TOL
        checks.append({
            "name": "fate", "status": "pass" if ok else "fail",
            "detail": (
                f"extrapolated limit {limit:.6g} vs envelope {envelope + FATE_TOL:.6g} "
                f"(norms {norms[0]:.6g}, {norms[1]:.6g}, {norms[2]:.6g} at "
                f"t={t2 - 2.0 * h:.6g}, {t2 - h:.6g}, {t2:.6g}; decay rate {rate})"
            ),
        })
    elif expected == "to-infinity":
        ok = outcome.status == "blow-up" or max(abs(fx), abs(fy)) >= 1e6
        checks.append({
            "name": "fate", "status": "pass" if ok else "fail",
            "detail": f"outcome {outcome.status}, terminal norm {max(abs(fx), abs(fy)):.6g}",
        })
    elif expected == "inconclusive" or expected is None:
        if cls.fate != "bistable":
            checks.append({"name": "fate", "status": "skip", "detail": "no prediction"})

    if K is not None:
        if side in ("above", "below"):
            hit = detect_nonoscillation_violation(traj, K, f2K, side, tol=CERT_TOL)
            if hit is None:
                checks.append({"name": "nonoscillation", "status": "pass",
                               "detail": f"{side}-side data stayed {side}"})
            else:
                checks.append({"name": "nonoscillation", "status": "fail",
                               "detail": f"{hit[1]} crossed at t={hit[0]:.6g}"})
        else:
            checks.append({"name": "nonoscillation", "status": "skip",
                           "detail": "initial data not one-sided"})
    else:
        checks.append({"name": "nonoscillation", "status": "skip", "detail": "no equilibrium"})

    failed = [c for c in checks if c["status"] == "fail"]
    if not failed:
        status = "pass"
    elif all(c["name"] == "fate" for c in failed) and any(c for c in caveats):
        status = "mismatch-explained"
    else:
        status = "mismatch"
    return CertificationReport(status=status, checks=checks)
