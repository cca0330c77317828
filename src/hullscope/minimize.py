"""Unconstrained subgradient minimization with best-iterate tracking.

One step rule: ``PolyakWithTarget(t)`` steps ``(f(x_k) - t) / ||g_k||^2``
along ``-g_k``, stopping once ``f(x_k) <= t + tol``. It is fast when the
target value is attainable (e.g. 0 for a feasible merit function); an
unattainable target is detected by stalling above it.

Subgradient methods are not descent methods, so the best iterate seen so far
is tracked and returned. A run is deterministic: identical inputs give
identical outputs.

``refine_minimum`` sits on top: it bisects over Polyak target values to pin
the optimal value down to a requested gap. Each probe is a plain
``PolyakWithTarget`` run, so the rule above is the only step rule in the
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexfn import ConvexFn
from .errors import DimensionMismatch, NonFiniteValue


@dataclass(frozen=True)
class PolyakWithTarget:
    """Polyak step rule for a known (or hoped-for) target value."""

    target: float = 0.0

    def __post_init__(self):
        if not math.isfinite(float(self.target)):
            raise ValueError("target must be finite")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, tolerance, step rule and stall window."""

    max_iters: int = 50_000
    tol: float = 1e-8
    step_rule: PolyakWithTarget = PolyakWithTarget(0.0)
    stall_iters: int = 2_000

    def __post_init__(self):
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(float(self.tol)) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")
        if int(self.stall_iters) < 1:
            raise ValueError("stall_iters must be >= 1")
        if not isinstance(self.step_rule, PolyakWithTarget):
            raise TypeError(f"unknown step rule {self.step_rule!r}")


@dataclass
class MinimizeResult:
    """Best iterate, its value, and run counters.

    ``converged`` is True when the step-rule stop test fired, a zero
    subgradient certified global optimality, or the best value stopped
    improving by ``tol`` over a full stall window.
    """

    x_best: np.ndarray
    f_best: float
    iters: int
    converged: bool
    evals: int


def minimize(fn: ConvexFn, x0, cfg: SolverConfig | None = None) -> MinimizeResult:
    """Minimize a convex function by subgradient iteration.

    Parameters
    ----------
    fn : ConvexFn
        Function to minimize; must report a valid subgradient everywhere.
    x0 : array_like
        Start point, dimension must match ``fn.dim``.
    cfg : SolverConfig, optional
        Budget, tolerance and step rule; defaults to ``SolverConfig()``.

    Raises
    ------
    NonFiniteValue
        If an evaluation returns NaN or infinity.
    """
    if cfg is None:
        cfg = SolverConfig()
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != fn.dim:
        raise DimensionMismatch(f"start point has shape {x.shape}, function expects dimension {fn.dim}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("start point has non-finite coordinates")

    target = cfg.step_rule.target
    tol = cfg.tol
    stall = cfg.stall_iters
    fn_eval = fn.eval

    best_f = math.inf
    best_x = x.copy()
    baseline = math.inf
    last_progress = 0
    evals = 0
    converged = False
    k = 0

    for k in range(cfg.max_iters):
        f, g = fn_eval(x)
        evals += 1
        if not math.isfinite(f):
            raise NonFiniteValue(f"non-finite value {f!r} at iteration {k} (x = {x!r})")
        if f < best_f:
            best_f = f
            best_x = x.copy()
        if baseline - best_f >= tol:
            baseline = best_f
            last_progress = k
        if f <= target + tol:
            converged = True
            break
        gg = float(g @ g)
        if gg == 0.0:
            # zero subgradient: x is a global minimizer of a convex function
            converged = True
            break
        if k - last_progress >= stall:
            converged = True
            break
        x = x - ((f - target) / gg) * g

    return MinimizeResult(x_best=best_x, f_best=best_f, iters=k + 1, converged=converged, evals=evals)


def refine_minimum(
    fn: ConvexFn,
    x0,
    *,
    lower_bound: float | None = None,
    value_gap: float = 1e-9,
    probe_iters: int = 4_000,
    probe_stall: int = 400,
    max_probes: int = 80,
    max_iters: int | None = None,
) -> MinimizeResult:
    """Estimate the minimum value of ``fn`` by bisecting over Polyak targets.

    Maintains an upper bound (the best value observed, always valid) and a
    lower bound (either ``lower_bound`` when the caller knows one, or a
    target a probe failed to reach -- a heuristic). Each probe warm-starts
    from the incumbent. ``max_iters``, when given, caps the subgradient
    iterations summed over all probes. Returns a result whose ``converged``
    flag means the bracket closed to ``value_gap``; ``f_best`` is always an
    upper bound on the true minimum.
    """
    if not (math.isfinite(value_gap) and value_gap > 0):
        raise ValueError("value_gap must be a finite positive number")
    if max_iters is not None and max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    budget = math.inf if max_iters is None else int(max_iters)
    probe_tol = max(value_gap / 8.0, 1e-13)
    x = np.asarray(x0, dtype=np.float64)
    f0, _ = fn.eval(x)
    if not math.isfinite(f0):
        raise NonFiniteValue("non-finite value at the refinement start point")
    ub = f0
    xb = x.copy()
    total_iters = 0
    total_evals = 1
    probes = 0

    def probe(t: float) -> MinimizeResult:
        nonlocal total_iters, total_evals
        cfg = SolverConfig(max_iters=min(probe_iters, budget - total_iters), tol=probe_tol,
                           step_rule=PolyakWithTarget(t), stall_iters=probe_stall)
        r = minimize(fn, xb, cfg)
        total_iters += r.iters
        total_evals += r.evals
        return r

    lb = lower_bound
    if lb is None:
        # no certified lower bound: probe downward with doubling offsets
        delta = max(0.25 * abs(ub), 8.0 * value_gap, 1e-3)
        for _ in range(max_probes // 2):
            if total_iters >= budget:
                break
            probes += 1
            t = ub - delta
            r = probe(t)
            if r.f_best < ub:
                ub, xb = r.f_best, r.x_best
            if r.f_best <= t + probe_tol:
                delta *= 2.0
            elif total_iters < budget:
                lb = t
                break
        if lb is None:
            return MinimizeResult(x_best=xb, f_best=ub, iters=total_iters,
                                  converged=False, evals=total_evals)

    while ub - lb > value_gap and probes < max_probes and total_iters < budget:
        probes += 1
        t = 0.5 * (ub + lb)
        r = probe(t)
        if r.f_best < ub:
            ub, xb = r.f_best, r.x_best
        # a failed probe that ran out of budget says nothing about the minimum
        if r.f_best > t + probe_tol and total_iters < budget:
            lb = t

    return MinimizeResult(x_best=xb, f_best=ub, iters=total_iters,
                          converged=ub - lb <= value_gap, evals=total_evals)
