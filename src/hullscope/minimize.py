"""Unconstrained subgradient minimization with best-iterate tracking.

One step rule: the Polyak step toward ``minimize``'s ``target`` ``t`` (0 by
default) steps ``(f(x_k) - t) / ||g_k||^2`` along ``-g_k``, stopping once
``f(x_k) <= t + tol``. It is fast when the target value is attainable (e.g.
0 for a feasible merit function); an unattainable target is detected by
stalling above it. Every run has the same stall window: ``STALL_ITERS``
iterations without a ``tol`` improvement.

Subgradient methods are not descent methods, so the best iterate seen so far
is tracked and returned. A run is deterministic: identical inputs give
identical outputs.

``refine_minimum`` sits on top: it bisects over Polyak target values to pin
the optimal value down to a requested gap. Every caller knows a lower bound
on the minimum (the merit function is at least 0, ``G`` at least its exact
dual bound, itself at least ``-R^2``), so the lower end of the bracket
starts at that bound. It rises to each
target a probe fails to reach, a heuristic: a stalled probe does not prove
its target unattainable. Each probe is a plain ``minimize`` run toward its
target, so the rule above is the only step rule in the library.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .convexfn import ConvexFn
from .errors import NonFiniteValue
from .geometry import as_point

# iterations without a ``tol`` improvement of the best value that end a run
STALL_ITERS = 400


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and tolerance; the stall window is ``STALL_ITERS``."""

    max_iters: int = 50_000
    tol: float = 1e-8

    def __post_init__(self):
        if operator.index(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(float(self.tol)) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")


@dataclass
class MinimizeResult:
    """Best iterate, its value, and run counters.

    ``converged`` is True when the run reached its target within ``tol``, a
    zero subgradient certified global optimality, or the best value stopped
    improving by ``tol`` over ``STALL_ITERS`` iterations.
    """

    x_best: np.ndarray
    f_best: float
    iters: int
    converged: bool


def minimize(fn: ConvexFn, x0, cfg: SolverConfig = SolverConfig(), *,
             target: float = 0.0) -> MinimizeResult:
    """Minimize a convex function by Polyak steps toward ``target``.

    Parameters
    ----------
    fn : ConvexFn
        Function to minimize; must report a valid subgradient everywhere.
    x0 : array_like
        Start point, dimension must match ``fn.dim``.
    cfg : SolverConfig
        Budget and tolerance; ``SolverConfig()`` by default.
    target : float
        The value the Polyak steps aim at; the run stops once it is reached
        within ``tol``. 0, the default, is the minimum of a feasible merit
        function.

    Raises
    ------
    DimensionMismatch
        If ``x0`` does not have shape ``(fn.dim,)``, before any evaluation.
    ValueError
        If ``target`` or a coordinate of ``x0`` is not finite, before any
        evaluation.
    NonFiniteValue
        If an evaluation returns NaN or infinity.
    """
    if not math.isfinite(float(target)):
        raise ValueError("target must be finite")
    x = as_point(x0, fn.dim, "x0")

    tol = cfg.tol
    fn_eval = fn.eval

    best_f = math.inf
    best_x = x.copy()
    baseline = math.inf
    last_progress = 0
    converged = False
    k = 0

    for k in range(cfg.max_iters):
        f, g = fn_eval(x)
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
        if k - last_progress >= STALL_ITERS:
            converged = True
            break
        x = x - ((f - target) / gg) * g

    return MinimizeResult(x_best=best_x, f_best=best_f, iters=k + 1, converged=converged)


# refine_minimum's iteration budget per probe
PROBE_ITERS = 4_000


def refine_minimum(
    fn: ConvexFn,
    x0,
    *,
    lower_bound: float,
    value_gap: float,
    max_iters: int,
) -> MinimizeResult:
    """Estimate the minimum value of ``fn`` by bisecting over Polyak targets.

    Maintains an upper bound (the best value observed, always valid) and a
    lower end that starts at the caller's ``lower_bound`` and rises to each
    target a probe fails to reach. A failed probe does not prove its target
    unattainable, so once a probe has failed the lower end is a heuristic.
    Each probe warm-starts from the incumbent. ``max_iters`` caps the
    subgradient iterations summed over all probes; every probe spends at
    least one, so it also bounds the number of probes. Returns a result
    whose ``converged`` flag means the bracket closed to ``value_gap``;
    ``f_best`` is always an upper bound on the true minimum. Its two callers
    are ``check_feasibility``, on its merit fallback when the dual ascent
    has neither proved the set empty nor found a point of it, and the
    inclusion check, which starts it from the witness dual's point and bound
    and so runs no probe when the dual has closed the gap. A finite
    ``lower_bound`` above ``fn(x0)`` is accepted and closes the bracket with
    no probe: the inclusion caller passes the exact dual bound, which ``G``
    evaluated in floats at the dual point can read below by rounding. Raises
    ``DimensionMismatch`` unless ``x0`` has shape ``(fn.dim,)``, and
    ``ValueError`` if ``lower_bound`` or a coordinate of ``x0`` is not
    finite, before any evaluation.
    """
    if not (math.isfinite(value_gap) and value_gap > 0):
        raise ValueError("value_gap must be a finite positive number")
    if not math.isfinite(lower_bound):
        raise ValueError("lower_bound must be finite")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    probe_tol = max(value_gap / 8.0, 1e-13)
    x = as_point(x0, fn.dim, "x0")
    f0, _ = fn.eval(x)
    if not math.isfinite(f0):
        raise NonFiniteValue("non-finite value at the refinement start point")
    ub = f0
    xb = x.copy()
    lb = lower_bound
    total_iters = 0

    while ub - lb > value_gap and total_iters < max_iters:
        t = 0.5 * (ub + lb)
        cfg = SolverConfig(min(PROBE_ITERS, max_iters - total_iters), probe_tol)
        r = minimize(fn, xb, cfg, target=t)
        total_iters += r.iters
        if r.f_best < ub:
            ub, xb = r.f_best, r.x_best
        # a failed probe that ran out of budget says nothing about the minimum
        if r.f_best > t + probe_tol and total_iters < max_iters:
            lb = t

    return MinimizeResult(x_best=xb, f_best=ub, iters=total_iters,
                          converged=ub - lb <= value_gap)
