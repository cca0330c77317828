"""Inclusion test for an intersection of equal-radius balls in another ball.

Writing ``C1`` for the intersection of closed balls ``B(c_k, R)`` and ``C0``
for the closed outer ball ``B(c, r)``, the question is whether
``C1 \\ int(C0)`` is empty, i.e. whether ``C1`` is included in the open outer
ball. A convex piecewise function ``G`` is positive off ``C1`` and at most
zero on ``C1 \\ int(C0)``, and provided the outer center keeps its distance,
``d(c, C1) > R``, it is positive everywhere when that set is empty. So the
sign of ``min G`` answers the non-convex question, and one convex
minimization decides it.

The witness is ``G = max_k G_k`` with ``f_k = ||x - c_k||^2 - R^2``,
``f = ||x - c||^2 - r^2`` and, since ``f_k = max(f_k, 0) + min(f_k, 0)``,

    G_k = f_k - min(f, 0) + sum_{i != k} max(f_i, 0)
        = -min(f, 0) + sum_i max(f_i, 0) + min(f_k, 0).

Only the last term depends on k, and ``min(., 0)`` is nondecreasing, so

    G = -min(f, 0) + sum_i max(f_i, 0) + min(max_k f_k, 0),

which ``build_G`` evaluates in one pass over the m + 1 centres. ``G`` is
convex as a maximum of the convex ``G_k = (f_k - f) + max(f, 0) +
sum_{i != k} max(f_i, 0)``, where ``f_k - f`` is affine because both
quadratics have the Hessian ``2 I``. The literal formula survives only in
test oracles.

``G`` is minimised through its Lagrange dual (``dual.witness_dual``):
weights ``w`` in ``[0, 1]^m`` with ``sum w >= 1`` and ``t`` in ``[0, 1]``
give ``G >= sum w_i f_i - t f`` everywhere, whose minimum over ``x`` has a
closed form and a closed-form minimiser ``x(w, t)``. The best weights attain
``min G`` (Sion's minimax theorem), so Newton steps on them give a point
and an exact lower bound ``g_lower``; when ``G(x) - g_lower`` is within the
value gap, the refinement of the paper (``refine_minimum``) is closed
before any probe, and otherwise it runs from that point and that bound.

The verdict is the sign of the exact bracket ``g_lower <= min G <=
g_at_xstar``, where ``g_at_xstar`` is ``G(x*)`` evaluated exactly and rounded
up:

- Included when ``g_lower > 0``, a proof with no precondition: on the
  difference ``f >= 0`` and every ``f_k <= 0``, so ``G = max_k f_k <= 0``
  there, and ``min G > 0`` leaves no point of it.
- Nonempty difference when ``g_at_xstar <= 0``, a proof given ``d(c, C1) >
  R``. Were the difference empty, ``C1`` would lie in ``int(C0)``. Off
  ``C1``, ``G > 0``; on its boundary ``G = -f > 0``; inside it ``G = max_k
  f_k - f``, a maximum of affine functions with gradients ``2 (c - c_k)``,
  so a minimiser there would need ``c`` in ``conv{c_k}``, which puts ``c``
  within ``R`` of every point of ``C1`` against the precondition. Then
  ``min G > 0``, so ``min G <= 0`` exactly when the difference is nonempty.
- Included as evidence, the paper's fallback, when the dual leaves a gap and
  the refinement ran, closed its bracket and left ``G`` above the value gap.
- Undetermined otherwise.

``C1`` is a ``BallIntersection``, a ``ConstraintSet`` of the ``f_k``: the
witness search, the residuals, the dual and the distance precondition read
it as it is. The precondition rests on a proof too: ``dual.distance_margin``
bounds ``d(c, C1)`` from below through the dual of projecting ``c`` onto
``C1``, checked in exact arithmetic, and the gate passes only when that bound
exceeds ``R`` by more than the tolerance. So a Nonempty verdict is a proof,
and no projection runs on the inclusion path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .convexfn import BallQuad, ConvexFn
from .dual import distance_margin, witness_dual, witness_value
from .errors import DimensionMismatch, EmptyIntersection, PreconditionFailed
from .feasibility import ConstraintSet, FeasibilityVerdict, ProjectionResult, check_feasibility
from .geometry import Ball
from .minimize import SolverConfig, refine_minimum


@dataclass(frozen=True)
class BallIntersection(ConstraintSet):
    """Intersection of m closed balls with a common radius R > 0.

    The ``ConstraintSet`` of ``f_k(x) = ||x - c_k||^2 - R^2`` in center order;
    ``centers`` is the read-only ``(m, n)`` array of the ``c_k``.
    """

    radius: float

    def __init__(self, centers, radius: float):
        r = float(radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError("radius must be a finite positive number")
        super().__init__([BallQuad(c, -(r * r)) for c in centers])
        object.__setattr__(self, "radius", r)

    @property
    def centers(self) -> np.ndarray:
        return self.rows.centers

    def __repr__(self) -> str:
        return f"BallIntersection(centers={self.centers.tolist()}, radius={self.radius!r})"

    def constraint_set(self) -> ConstraintSet:
        """The intersection itself, which is already a ``ConstraintSet``."""
        return self


OuterBall = Ball  # the outer ball B(c, r): a centre and a finite radius > 0


class InclusionVerdict(enum.Enum):
    NONEMPTY_DIFFERENCE = "nonempty_difference"
    INCLUDED = "included"
    UNDETERMINED = "undetermined"


@dataclass
class InclusionReport:
    """Minimizer of G, its membership residuals, the dual bound, and the verdict.

    The verdict is read from the exact bracket ``g_lower <= min G <=
    g_at_xstar`` (module docstring): Included when ``g_lower > 0``, Nonempty
    difference when ``g_at_xstar <= 0``. ``residuals_fk`` and
    ``dist_xstar_to_c`` describe ``x_star`` and decide nothing.
    ``precondition_margin`` is a proven lower bound on ``d(c, C1) - R``,
    rounded down (``dual.distance_margin``): for one ball the margin itself
    to rounding; for more, the bound at equal multipliers when that is above
    ``tol``, which can sit well below the margin, and otherwise the bound at
    the Newton solve's multipliers, which the margin exceeds only as far as
    the solve stopped short of its optimum.
    ``inclusion_checker`` raises ``PreconditionFailed`` unless it is above
    the solver's ``tol``, so it is above ``tol`` on every report.
    ``g_at_xstar`` is ``G(x_star)`` evaluated exactly and rounded up, so it
    is a proven upper bound on ``min G``, while the refinement's float value
    of ``G`` decides when it stops.
    ``g_lower`` is a proven lower bound on ``min G``, the larger of ``-R^2``
    and the dual bound at ``multipliers`` (``w`` in centre order, then
    ``t``); ``iters`` is 0 when ``g_at_xstar - g_lower`` was already within
    the value gap.
    """

    verdict: InclusionVerdict
    x_star: np.ndarray
    g_at_xstar: float
    residuals_fk: list[float]
    dist_xstar_to_c: float
    precondition_margin: float
    iters: int
    g_lower: float
    multipliers: tuple[float, ...]


def dykstra_project_full(cs: ConstraintSet, y) -> ProjectionResult:
    """Project ``y`` onto the intersection of ``cs``, with diagnostics.

    No code of the package calls it any more: the distance precondition
    reads ``dual.distance_margin``. It stays only because
    ``bench/tracing.py`` wraps it by name.
    """
    return cs.project(y)


class _WitnessG(ConvexFn):
    """``G`` in closed form, evaluating ``f`` and every ``f_k`` once.

    The subgradient is that of ``G_{k*}``, which equals ``G`` at ``x``: ``k*``
    is the first index with ``f_k > 0``, else the first maximizer of ``f_k``.
    It is ``-2 (x - c)`` if ``f <= 0``, plus ``2 (x - c_i)`` for each
    ``f_i > 0``, plus ``2 (x - c_{k*})`` when ``max_k f_k <= 0``.
    """

    __slots__ = ("points", "ones", "r2", "R2")

    def __init__(self, bi: BallIntersection, ob: OuterBall):
        super().__init__(bi.dimension)
        points = np.vstack((ob.center, bi.centers))  # row 0 is c, row k is c_k
        points.setflags(write=False)
        self.points = points
        self.ones = np.ones(bi.dimension)
        self.r2 = ob.radius * ob.radius
        self.R2 = bi.radius * bi.radius

    def eval(self, x):
        D = x - self.points
        # row sums by a matrix product: at n = 2 it costs less than np.einsum
        sq = ((D * D) @ self.ones).tolist()
        R2 = self.R2
        w = [0.0] * len(sq)
        value = 0.0
        f = sq[0] - self.r2
        if f <= 0.0:
            value = -f
            w[0] = -2.0
        top, k_top = -math.inf, 1
        for i in range(1, len(sq)):
            fi = sq[i] - R2
            if fi > 0.0:
                value += fi
                w[i] = 2.0
            if fi > top:
                top, k_top = fi, i
        if top <= 0.0:
            value += top
            w[k_top] += 2.0
        return value, np.dot(w, D)


def build_G(bi: BallIntersection, ob: OuterBall) -> ConvexFn:
    """The convex witness ``G = max_k G_k`` of ``bi`` against the outer ball ``ob``."""
    if ob.center.shape[0] != bi.dimension:
        raise DimensionMismatch("outer ball and intersection must share the ambient dimension")
    return _WitnessG(bi, ob)


def _inclusion_at(bi: BallIntersection, ob: OuterBall, cfg: SolverConfig,
                  margin: float) -> InclusionReport:
    G = build_G(bi, ob)
    gap = max(cfg.tol / 100.0, 1e-12)
    dual = witness_dual(bi, ob.center, ob.radius, gap)
    g_lower = max(-(bi.radius * bi.radius), dual.g_lower)
    res = refine_minimum(G, dual.x, lower_bound=g_lower, value_gap=gap, max_iters=cfg.max_iters)
    x_star = res.x_best
    g_at_xstar = witness_value(bi, ob.center, ob.radius, x_star)
    if g_lower > 0.0:
        verdict = InclusionVerdict.INCLUDED
    elif g_at_xstar <= 0.0:
        verdict = InclusionVerdict.NONEMPTY_DIFFERENCE
    elif res.iters > 0 and res.converged and res.f_best > gap:
        # the paper's evidence, read only after probes: when the dual closes
        # the gap, the exact bracket alone decides
        verdict = InclusionVerdict.INCLUDED
    else:
        verdict = InclusionVerdict.UNDETERMINED
    return InclusionReport(
        verdict=verdict,
        x_star=x_star,
        g_at_xstar=g_at_xstar,
        residuals_fk=bi.residuals(x_star).tolist(),
        dist_xstar_to_c=float(np.linalg.norm(x_star - ob.center)),
        precondition_margin=float(margin),
        iters=res.iters,
        g_lower=g_lower,
        multipliers=dual.multipliers,
    )


def inclusion_checker(bi: BallIntersection, c, cfg: SolverConfig):
    """Certify the preconditions for center ``c`` once; return a witness and a checker.

    Finds a point of ``C1`` with ``check_feasibility`` and proves the
    distance precondition ``d(c, C1) > R + tol`` with
    ``dual.distance_margin``, an exact lower bound. Returns ``(witness,
    check)``: ``check(r)`` runs the inclusion test against ``B(c, r)``.

    Raises
    ------
    DimensionMismatch, ValueError
        If ``c`` is not a finite point of the intersection's dimension.
    EmptyIntersection
        If the intersection cannot be certified nonempty.
    PreconditionFailed
        If ``d(c, C1) - R`` is not proven above the configured tolerance;
        no sound verdict exists in that regime.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (bi.dimension,):
        raise DimensionMismatch("outer ball and intersection must share the ambient dimension")
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError(f"outer center must be finite, got {c.tolist()}")
    report = check_feasibility(bi, cfg=cfg)
    if report.verdict is not FeasibilityVerdict.FEASIBLE:
        raise EmptyIntersection(
            f"ball intersection not certified nonempty (verdict {report.verdict.value}, "
            f"merit minimum {report.g_tilde_min:.3e})")
    margin = distance_margin(bi, c, bi.radius, cfg.tol)
    if not margin > cfg.tol:
        raise PreconditionFailed(
            f"outer center too close to the intersection: d(c, C1) - R = {margin:.6e}")

    def check(r: float) -> InclusionReport:
        return _inclusion_at(bi, OuterBall(c, r), cfg, margin)

    return np.asarray(report.witness, dtype=np.float64), check


def check_inclusion(bi: BallIntersection, ob: OuterBall,
                    cfg: SolverConfig | None = None) -> InclusionReport:
    """Decide whether the ball intersection minus the open outer ball is empty.

    Pipeline: certify the intersection nonempty, prove the distance
    precondition ``d(c, C1) > R`` by an exact dual bound, minimize ``G``
    through its dual (module docstring), refine the minimum only while the
    dual bound leaves a gap, and read the verdict from the sign of the exact
    bracket on ``min G``. ``cfg.max_iters`` caps the subgradient iterations
    of the witness search, and separately those of the refinement; the
    dual's Newton steps have the fixed cap ``dual.DUAL_STEPS``. A refinement
    that stops before its bracket closes can report Included only from
    ``g_lower > 0``.

    Raises
    ------
    EmptyIntersection
        If the intersection cannot be certified nonempty.
    PreconditionFailed
        If ``d(c, C1) - R`` is not proven above the configured tolerance;
        no sound verdict exists in that regime.
    """
    if cfg is None:
        cfg = SolverConfig()
    _, check = inclusion_checker(bi, ob.center, cfg)
    return check(ob.radius)
