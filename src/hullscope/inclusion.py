"""Inclusion test for an intersection of equal-radius balls in another ball.

Writing ``C1`` for the intersection of closed balls ``B(c_k, R)`` and ``C0``
for the closed outer ball ``B(c, r)``, the question is whether
``C1 \\ int(C0)`` is empty, i.e. whether ``C1`` is included in the open outer
ball. Provided the outer center keeps its distance, ``d(c, C1) > R``, the
global minimizer of a convex piecewise function ``G`` lands inside
``C1 \\ int(C0)`` exactly when that set is nonempty, which turns the
non-convex membership question into one convex minimization plus a
membership check.

Each ``G_k`` is assembled from certified-convex nodes via the decomposition

    G_k = (f_k - f) + max(f, 0) + sum_{i != k} max(f_i, 0)

with ``f_k = ||x - c_k||^2 - R^2`` and ``f = ||x - c||^2 - r^2``; the first
term is affine and built in closed form. ``G`` is their pointwise maximum.
The literal formula ``f_k - min(f, 0) + sum max(f_i, 0)`` survives only in
test oracles.

The distance precondition is checked with Dykstra's projection algorithm,
which computes exact Euclidean projections onto the ball intersection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .convexfn import Affine, BallQuad, ConvexFn, Max, PositivePart, Sum
from .errors import DimensionMismatch, EmptyIntersection, PreconditionFailed
from .feasibility import ConstraintSet, FeasibilityVerdict, ProjectionResult, check_feasibility
from .geometry import Vector, as_vector
from .minimize import MinimizeResult, SolverConfig, refine_minimum

# The minimizer of G generically sits on the boundary sphere of the outer
# ball, so the boundary-side tolerance must absorb solver noise; verdicts are
# discriminated by the ball residuals, not by the boundary slack.
_BOUNDARY_TOL_FLOOR = 1e-6


@dataclass(frozen=True)
class BallIntersection:
    """Intersection of m closed balls with a common radius R > 0."""

    centers: tuple[Vector, ...]
    radius: float

    def __init__(self, centers, radius: float):
        centers = tuple(as_vector(c) for c in centers)
        if not centers:
            raise ValueError("need at least one center")
        dim = centers[0].shape[0]
        for c in centers:
            if c.shape[0] != dim:
                raise DimensionMismatch("all centers must share the ambient dimension")
        r = float(radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError("radius must be a finite positive number")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.centers[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.centers)

    def constraint_set(self) -> ConstraintSet:
        """The balls as constraints f_k(x) = ||x - c_k||^2 - R^2, in center order."""
        r2 = self.radius * self.radius
        return ConstraintSet([BallQuad(c, -r2) for c in self.centers])


@dataclass(frozen=True)
class OuterBall:
    """The outer ball B(c, r) the intersection is tested against."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError("radius must be a finite positive number")
        object.__setattr__(self, "radius", r)


class InclusionVerdict(enum.Enum):
    NONEMPTY_DIFFERENCE = "nonempty_difference"
    INCLUDED = "included"
    UNDETERMINED = "undetermined"


@dataclass
class InclusionReport:
    """Minimizer of G, its membership residuals, and the verdict.

    ``precondition_margin`` is ``d(c, C1) - R``; it is strictly positive on
    every report (otherwise ``PreconditionFailed`` is raised instead).
    """

    verdict: InclusionVerdict
    x_star: np.ndarray
    g_at_xstar: float
    residuals_fk: list[float]
    dist_xstar_to_c: float
    precondition_margin: float
    iters: int


def dykstra_project_full(cs: ConstraintSet, y, iters: int = 1000, tol: float = 1e-11) -> ProjectionResult:
    """Project ``y`` onto the intersection of ``cs``, with diagnostics.

    The distance precondition projects through this name, so a tracer that
    wraps it (as ``bench/tracing.py`` does) counts those projections apart
    from the covering check's, which call ``ConstraintSet.project``.
    """
    return cs.project(y, iters=iters, tol=tol)


def build_Gk(bi: BallIntersection, ob: OuterBall, k: int) -> ConvexFn:
    """Convex witness G_k for constraint index ``k`` (zero-based).

    Tree shape: affine(f_k - f) + max(f, 0) + sum_{i != k} max(f_i, 0).
    Every node is convex by construction.
    """
    m = bi.m
    if not (0 <= k < m):
        raise IndexError(f"constraint index {k} out of range for m = {m}")
    if ob.center.shape[0] != bi.dim:
        raise DimensionMismatch("outer ball and intersection must share the ambient dimension")
    ck = bi.centers[k]
    c = ob.center
    R2 = bi.radius * bi.radius
    r2 = ob.radius * ob.radius
    # f_k - f collapses to the affine function -2 (c_k - c).x + |c_k|^2 - |c|^2 - R^2 + r^2
    a = -2.0 * (ck - c)
    b = float(ck @ ck) - float(c @ c) - R2 + r2
    terms: list[ConvexFn] = [Affine(a, b), PositivePart(BallQuad(c, -r2))]
    terms.extend(PositivePart(BallQuad(bi.centers[i], -R2)) for i in range(m) if i != k)
    return Sum(terms)


def build_G(bi: BallIntersection, ob: OuterBall) -> Max:
    """Pointwise maximum of the G_k; the achieving index is exposed at eval."""
    return Max([build_Gk(bi, ob, k) for k in range(bi.m)])


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
                  start: np.ndarray, margin: float) -> InclusionReport:
    G = build_G(bi, ob)
    gap = max(cfg.tol / 100.0, 1e-12)
    res: MinimizeResult = refine_minimum(
        G, start, lower_bound=-(bi.radius * bi.radius), value_gap=gap, max_iters=cfg.max_iters)
    x_star = res.x_best
    fk = bi.constraint_set().residuals(x_star)
    verdict = _classify(fk, ob, x_star, cfg.tol)
    if verdict is InclusionVerdict.INCLUDED and not res.converged:
        # only the minimizer of G localizes the difference; a point that is
        # not a member proves nothing while the bracket is still open
        verdict = InclusionVerdict.UNDETERMINED
    return InclusionReport(
        verdict=verdict,
        x_star=x_star,
        g_at_xstar=float(res.f_best),
        residuals_fk=[float(v) for v in fk],
        dist_xstar_to_c=float(np.linalg.norm(x_star - ob.center)),
        precondition_margin=float(margin),
        iters=res.iters,
    )


def inclusion_checker(bi: BallIntersection, c, cfg: SolverConfig):
    """Certify the preconditions for center ``c`` once; return a witness and a checker.

    Finds a point of ``C1`` with ``check_feasibility`` and verifies the
    distance precondition ``d(c, C1) > R`` by Dykstra projection. Returns
    ``(witness, check)``: ``check(r, start)`` runs the inclusion test against
    ``B(c, r)``, minimizing ``G`` from ``start``.

    Raises
    ------
    EmptyIntersection
        If the intersection cannot be certified nonempty.
    PreconditionFailed
        If ``d(c, C1) - R`` is not above the configured tolerance; no sound
        verdict exists in that regime.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (bi.dim,):
        raise DimensionMismatch("outer ball and intersection must share the ambient dimension")
    cs = bi.constraint_set()
    report = check_feasibility(cs, cfg=cfg)
    if report.verdict is not FeasibilityVerdict.FEASIBLE:
        raise EmptyIntersection(
            f"ball intersection not certified nonempty (verdict {report.verdict.value}, "
            f"merit minimum {report.g_tilde_min:.3e})")
    proj = dykstra_project_full(cs, c)
    margin = float(np.linalg.norm(c - proj.point)) - bi.radius
    if margin <= cfg.tol:
        raise PreconditionFailed(
            f"outer center too close to the intersection: d(c, C1) - R = {margin:.6e}")

    def check(r: float, start: np.ndarray) -> InclusionReport:
        return _inclusion_at(bi, OuterBall(c, r), cfg, start, margin)

    return np.asarray(report.witness, dtype=np.float64), check


def check_inclusion(bi: BallIntersection, ob: OuterBall,
                    cfg: SolverConfig | None = None) -> InclusionReport:
    """Decide whether the ball intersection minus the open outer ball is empty.

    Pipeline: certify the intersection nonempty (its witness is the start
    point), verify the distance precondition ``d(c, C1) > R`` via Dykstra
    projection, minimize ``G`` and classify the minimizer by membership.
    ``cfg.max_iters`` caps the iterations of the witness search, and
    separately those of the minimization of ``G``; a minimization that stops
    before its bracket closes cannot report Included.

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
    witness, check = inclusion_checker(bi, ob.center, cfg)
    return check(ob.radius, witness)
