"""Per-layer tracing from outside the package.

Each function is wrapped under the name its caller looks up at call time:
``integrator.rhs`` rather than ``dynamics.rhs`` (the integrator imported it
by name), the names ``cli`` imported from ``analysis``, ``dynamics`` and
``integrator``, the module globals ``analysis.scan_relation`` and
``functions.inverse``, and the class attributes of ``Expression``,
``Trajectory`` and the kernels.  ``Expression.evaluate`` must be wrapped
before any system is built, because a ProductionFunction keeps the bound
method it was given; ``Expression.__call__`` is a separate alias and is
wrapped too.

Calls are aggregated per name (count, busy time, self time) instead of
being kept as one span each: the hottest names run millions of times in a
pass.  Self time is a call's duration minus the time covered by traced
calls made inside it.  Busy time counts only the outermost call of a
recursive name, so nested inverses are not counted twice.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from program import analysis, cli, config, dynamics, expr, functions, integrator, kernels, presets


@dataclass
class Stat:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    depth: int = 0
    amount: int = 0  # name-specific work: elements, nodes, steps
    peak: int = 0  # name-specific high-water mark
    inside: int = 0  # calls of another name made while this one is active
    _mark: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._open = [0]  # traced time inside the innermost active call
        self._undo: list[tuple] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, owner, attr: str, name: str, observe=None, count_inside: str | None = None):
        """Replace owner.attr with a wrapper that records into stat `name`.

        `observe(stat, args, kwargs, result)` adds name-specific work after
        a call returns.  `count_inside` names another stat whose calls made
        during this one are added to `stat.inside`.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        stat = self.stat(name)
        inner = self.stat(count_inside) if count_inside else None
        opened = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inner is not None and not stat.depth:
                stat._mark = inner.calls
            stat.calls += 1
            stat.depth += 1
            opened.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.self_ns += elapsed - opened.pop()
                opened[-1] += elapsed
                stat.depth -= 1
                if not stat.depth:
                    stat.busy_ns += elapsed
                    if inner is not None:
                        stat.inside += inner.calls - stat._mark
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()


_ABSENT = object()


def _count_elements(stat, args, kwargs, result):
    stat.amount += getattr(args[1], "size", 1)


def _window_nodes(stat, args, kwargs, result):
    # integrate(self, f, u, t, n_quad): composite Simpson on 2*n_quad + 1 nodes
    n_quad = args[4] if len(args) > 4 else kwargs.get("n_quad", kernels.DEFAULT_PANELS)
    stat.amount += 2 * n_quad + 1


def _integration(stat, args, kwargs, result):
    traj, outcome = result
    stat.amount += outcome.diagnostics["steps"]
    stat.peak = max(stat.peak, traj.n)


def _bound_steps(stat, args, kwargs, result):
    stat.amount += len(result.upper) - 1


def install(tracer: Tracer) -> None:
    """Wrap every traced name; call before building any system."""
    w = tracer.wrap
    for attr in ("evaluate", "__call__"):
        w(expr.Expression, attr, "expr.evaluate")
    w(expr.Expression, "evaluate_array", "expr.evaluate_array", _count_elements)
    w(functions, "inverse", "functions.inverse", count_inside="expr.evaluate")
    w(functions, "verify_increasing", "functions.verify_increasing")
    w(kernels.PointMassKernel, "integrate", "kernels.point")
    for cls in (kernels.UniformDensityKernel, kernels.TriangularDensityKernel):
        w(cls, "integrate", "kernels.window", _window_nodes)
    w(dynamics, "validate_kernel", "kernels.validate_kernel")
    w(integrator.Trajectory, "value_scalar", "integrator.lookup_scalar")
    w(integrator.Trajectory, "value_array", "integrator.lookup_array", _count_elements)
    w(integrator.Trajectory, "to_csv", "integrator.to_csv")
    w(integrator, "rhs", "dynamics.rhs")
    w(cli, "integrate", "integrator.integrate", _integration)
    w(cli, "validate_system", "dynamics.validate_system")
    w(cli, "check_rate_divergence", "dynamics.check_rate_divergence")
    w(analysis, "scan_relation", "analysis.scan_relation")
    w(cli, "classify", "analysis.classify")
    w(cli, "permanence_bounds", "analysis.permanence_bounds")
    w(cli, "monotone_iteration", "analysis.monotone_iteration", _bound_steps)
    w(cli, "contraction_iteration", "analysis.contraction_iteration")
    w(cli, "certify_run", "analysis.certify_run")
    w(config, "load_config", "config.load_config")
    for owner in (config, cli):
        w(owner, "system_from_mapping", "config.system_from_mapping")
    w(presets, "preset_system_mapping", "presets.preset_system_mapping")
    w(cli, "execute_run", "cli.execute_run")
    w(cli, "resolve_x_max", "cli.resolve_x_max")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values named as in BENCHMARK.json, except the two that
    need runs of their own (integrator.order_min, trace.overhead_s)."""
    s = tracer.stat

    def self_us(name):
        st = s(name)
        return st.self_ns / st.calls / 1e3 if st.calls else 0.0

    def busy_s(name):
        return s(name).busy_ns / 1e9

    integ = s("integrator.integrate")
    steps = integ.amount
    inv = s("functions.inverse")
    out = {}
    for name in ("expr.evaluate", "expr.evaluate_array", "kernels.point", "kernels.window",
                 "integrator.lookup_scalar", "integrator.lookup_array", "dynamics.rhs"):
        out[f"{name}.calls"] = s(name).calls
        out[f"{name}.self_us"] = self_us(name)
    out["expr.evaluate_array.elems"] = s("expr.evaluate_array").amount
    out["kernels.window.nodes"] = s("kernels.window").amount
    out["integrator.lookup_array.nodes"] = s("integrator.lookup_array").amount
    out["functions.inverse.calls"] = inv.calls
    out["functions.inverse.s"] = busy_s("functions.inverse")
    out["functions.inverse.evals_per_call"] = inv.inside / inv.calls if inv.calls else 0.0
    out["integrator.steps"] = steps
    out["integrator.step_us"] = integ.busy_ns / steps / 1e3 if steps else 0.0
    out["integrator.rhs_per_step"] = s("dynamics.rhs").calls / steps if steps else 0.0
    out["integrator.history_segments"] = integ.peak
    out["analysis.scan_relation.calls"] = s("analysis.scan_relation").calls
    out["analysis.monotone_iteration.steps"] = s("analysis.monotone_iteration").amount
    for name in ("functions.verify_increasing", "kernels.validate_kernel", "integrator.to_csv",
                 "dynamics.validate_system", "dynamics.check_rate_divergence",
                 "analysis.scan_relation", "analysis.classify", "analysis.permanence_bounds",
                 "analysis.monotone_iteration", "analysis.contraction_iteration",
                 "analysis.certify_run", "config.load_config", "config.system_from_mapping",
                 "presets.preset_system_mapping", "cli.execute_run", "cli.resolve_x_max"):
        out[f"{name}.s"] = busy_s(name)
    return out
