"""Inclusion test for an intersection of equal-radius balls in another ball.

Writing ``C1`` for the intersection of closed balls ``B(c_k, R)`` and ``C0``
for the closed outer ball ``B(c, r)``, the question is whether
``C1 \\ int(C0)`` is empty, i.e. whether ``C1`` is included in the open outer
ball. Provided the outer center keeps its distance, ``d(c, C1) > R``, the
global minimizer of a convex piecewise function ``G`` lands inside
``C1 \\ int(C0)`` exactly when that set is nonempty, which turns the
non-convex membership question into one convex minimization plus a
membership check.

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

``C1`` is a ``BallIntersection``, a ``ConstraintSet`` of the ``f_k``: the
witness search, the residuals, the dual and the distance precondition read
it as it is. The precondition is checked by Dykstra's projection onto
``C1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .convexfn import BallQuad, ConvexFn
from .dual import witness_dual, witness_value
from .errors import DimensionMismatch, EmptyIntersection, PreconditionFailed
from .feasibility import ConstraintSet, FeasibilityVerdict, ProjectionResult, check_feasibility
from .geometry import Ball
from .minimize import MinimizeResult, SolverConfig, refine_minimum

# The minimizer of G generically sits on the boundary sphere of the outer
# ball, so the boundary-side tolerance must absorb solver noise; verdicts are
# discriminated by the ball residuals, not by the boundary slack.
_BOUNDARY_TOL_FLOOR = 1e-6


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

    ``precondition_margin`` is ``d(c, C1) - R``; it is strictly positive on
    every report (otherwise ``PreconditionFailed`` is raised instead).
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

    The distance precondition projects through this name, so a tracer that
    wraps it (as ``bench/tracing.py`` does) counts those projections apart
    from the covering check's, which call ``ConstraintSet.project``.
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


def _classify(fk: np.ndarray, ob: OuterBall, x: np.ndarray, tol: float) -> InclusionVerdict:
    a = float(np.max(fk))
    b = ob.radius * ob.radius - float((x - ob.center) @ (x - ob.center))
    tol_bnd = max(_BOUNDARY_TOL_FLOOR, 10.0 * tol)
    if a <= tol and b <= tol_bnd:
        # the minimizer certifies membership; boundary contact counts as
        # membership because the set difference keeps the boundary sphere
        return InclusionVerdict.NONEMPTY_DIFFERENCE
    if a > 10.0 * tol or b > 10.0 * tol_bnd:
        # definitely not a member, so by the localization result the
        # difference is empty
        return InclusionVerdict.INCLUDED
    return InclusionVerdict.UNDETERMINED


def _inclusion_at(bi: BallIntersection, ob: OuterBall, cfg: SolverConfig,
                  margin: float) -> InclusionReport:
    G = build_G(bi, ob)
    gap = max(cfg.tol / 100.0, 1e-12)
    dual = witness_dual(bi, ob.center, ob.radius, gap)
    g_lower = max(-(bi.radius * bi.radius), dual.g_lower)
    res: MinimizeResult = refine_minimum(
        G, dual.x, lower_bound=g_lower, value_gap=gap, max_iters=cfg.max_iters)
    x_star = res.x_best
    fk = bi.residuals(x_star)
    verdict = _classify(fk, ob, x_star, cfg.tol)
    if verdict is InclusionVerdict.INCLUDED and not res.converged:
        # only the minimizer of G localizes the difference; a point that is
        # not a member proves nothing while the bracket is still open
        verdict = InclusionVerdict.UNDETERMINED
    return InclusionReport(
        verdict=verdict,
        x_star=x_star,
        g_at_xstar=witness_value(bi, ob.center, ob.radius, x_star),
        residuals_fk=[float(v) for v in fk],
        dist_xstar_to_c=float(np.linalg.norm(x_star - ob.center)),
        precondition_margin=float(margin),
        iters=res.iters,
        g_lower=g_lower,
        multipliers=dual.multipliers,
    )


def inclusion_checker(bi: BallIntersection, c, cfg: SolverConfig):
    """Certify the preconditions for center ``c`` once; return a witness and a checker.

    Finds a point of ``C1`` with ``check_feasibility`` and verifies the
    distance precondition ``d(c, C1) > R`` by Dykstra projection. Returns
    ``(witness, check)``: ``check(r)`` runs the inclusion test against
    ``B(c, r)``.

    Raises
    ------
    DimensionMismatch, ValueError
        If ``c`` is not a finite point of the intersection's dimension.
    EmptyIntersection
        If the intersection cannot be certified nonempty.
    PreconditionFailed
        If ``d(c, C1) - R`` is not above the configured tolerance; no sound
        verdict exists in that regime.
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
    proj = dykstra_project_full(bi, c)
    margin = float(np.linalg.norm(c - proj.point)) - bi.radius
    if not margin > cfg.tol:
        raise PreconditionFailed(
            f"outer center too close to the intersection: d(c, C1) - R = {margin:.6e}")

    def check(r: float) -> InclusionReport:
        return _inclusion_at(bi, OuterBall(c, r), cfg, margin)

    return np.asarray(report.witness, dtype=np.float64), check


def check_inclusion(bi: BallIntersection, ob: OuterBall,
                    cfg: SolverConfig | None = None) -> InclusionReport:
    """Decide whether the ball intersection minus the open outer ball is empty.

    Pipeline: certify the intersection nonempty, verify the distance
    precondition ``d(c, C1) > R`` via Dykstra projection, minimize ``G``
    through its dual (module docstring), refine the minimum only while the
    dual bound leaves a gap, and classify the minimizer by membership.
    ``cfg.max_iters`` caps the subgradient iterations of the witness search,
    and separately those of the refinement; the dual's Newton steps have the
    fixed cap ``dual.DUAL_STEPS``. A refinement that stops before its bracket
    closes cannot report Included.

    Raises
    ------
    EmptyIntersection
        If the intersection cannot be certified nonempty.
    PreconditionFailed
        If ``d(c, C1) - R`` is not above the configured tolerance; no sound
        verdict exists in that regime.
    """
    if cfg is None:
        cfg = SolverConfig()
    _, check = inclusion_checker(bi, ob.center, cfg)
    return check(ob.radius)
