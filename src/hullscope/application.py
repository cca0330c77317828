"""Bounding the maximum distance over a convex region via an inner ball intersection.

Given a bounded convex region ``S`` (a ``ConstraintSet`` of ball and
halfspace constraints; boundedness is the caller's responsibility, and
sampling raises ``UnboundedRegion`` when it detects a free direction), an inner
intersection ``C1`` of equal-radius balls with ``C1`` inside ``S``, and a
covering constant ``delta`` such that every point of ``S`` is within
``delta`` of ``C1``, the maximum distance ``V_s`` from a center ``c`` over
``S`` is sandwiched by the computable maximum ``V_c`` over ``C1``:

    V_c <= V_s <= V_c + delta.

A boundary point ``x_hat`` of ``S`` with ``V_c <= ||x_hat - c|| <= V_c +
delta`` is extracted by maximizing the linear functional with direction
``x_star_c - c`` over ``S``. Projected ascent with Dykstra projections is
used instead of a simplex-style solver because ``S`` may have ball
constraints. The objective is linear, so constant steps raise it until it
stops rising; any maximizer satisfies the sandwich, and face ties resolve
to whatever point the iteration reaches.

The two covering hypotheses are spot-checked along rays; this is a
heuristic guard against misuse, not a proof. The rays start from one deep
point ``x0``: the primal point of the optimal multipliers found by the
certificate's dual ascent over the balls of ``C1``; the guard reads its
true depth. It lies strictly inside ``C1``, and the interior of ``C1`` lies
inside the interior of ``S`` whenever ``C1`` is inside ``S``, so it is
strictly inside ``S`` too; when it is not, it is itself a counterexample to
the containment hypothesis. From such a point, ``C1`` lies inside ``S``
exactly when no ray leaves ``C1`` later than it leaves ``S``. The check
compares these lengths, not the region's residual at the exit of ``C1``: on
a ball shared by both sets that residual, ``||x - c||^2 - R^2``, is
rounding of the size of ``R^2`` times the machine epsilon, while the two
lengths agree to a relative rounding at any scale. The distance to ``C1``
over ``S`` is convex, and for a convex ``f``, a point ``x`` and the exit
``e`` of the ray from ``x0`` through ``x``, ``f(x) <= max(f(x0), f(e))``,
so a covering violation anywhere on a ray shows at its exit. The
directions are drawn symmetrically, so the exits also stand for the other
end of each chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import deep_point
from .errors import DimensionMismatch, HypothesisViolation, UnboundedRegion
from .farthest import BisectionConfig, solve_farthest
from .feasibility import ConstraintSet
from .inclusion import BallIntersection


@dataclass
class AppBoundReport:
    """Computed inner maximum, the boundary point, and the covering constant."""

    v_c: float
    x_star_c: np.ndarray
    x_hat: np.ndarray
    dist_x_hat: float
    delta: float


def project_region(region: ConstraintSet, y) -> np.ndarray:
    """Euclidean projection onto the region (Dykstra over all constraints)."""
    return region.project(y).point


def _balls(region: ConstraintSet):
    """``(center, offset)`` of each ball ``||x - center||^2 + offset <= 0``, in order."""
    rows = region.region_rows
    return () if rows.centers is None else zip(rows.centers, rows.offsets)


def _halfspaces(region: ConstraintSet):
    """``(a, b)`` of each halfspace ``a.x + b <= 0``, in order."""
    rows = region.region_rows
    return () if rows.normals is None else zip(rows.normals, rows.shifts)


def _exits(region: ConstraintSet, x0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """How far the rays from the strictly interior ``x0`` along the unit rows of ``d`` run.

    Returns ``t`` with ``x0 + t d`` where each ray leaves the region: the
    least exit over the region's rows. A halfspace row with ``a.d`` at most
    ``1e-14`` bounds nothing along ``d``; a ray that no row bounds gets
    ``inf``.
    """
    rows = region.region_rows
    t = np.full(len(d), np.inf)
    if rows.normals is not None:
        ad = d @ rows.normals.T
        slack = -(rows.normals @ x0 + rows.shifts)
        t = np.divide(slack, ad, out=np.full(ad.shape, np.inf), where=ad > 1e-14).min(axis=1)
    if rows.centers is not None:
        # ||w + t d||^2 + offset = 0 with ||d|| = 1
        w = x0 - rows.centers
        beta = d @ w.T
        gamma = np.einsum("ij,ij->i", w, w) + rows.offsets
        t = np.minimum(t, (np.sqrt(np.maximum(beta * beta - gamma, 0.0)) - beta).min(axis=1))
    return t


def extract_boundary_point(region: ConstraintSet, x_star_c, c) -> np.ndarray:
    """Maximize the linear functional (x_star_c - c).x over the region.

    Projected ascent along ``d = x_star_c - c`` with a constant step, a
    diameter estimate, each followed by a Dykstra projection. The objective
    is linear, so each step raises ``d.x`` until ``x`` maximizes it (by the
    projection's variational inequality); the ascent returns ``x`` at the
    first step that does not raise ``d.x``, or after 4,000 steps. Raises
    ``DimensionMismatch`` unless ``x_star_c`` and ``c`` both have shape
    ``(region.dimension,)``, and ``ValueError`` if either is not finite.
    """
    x_star_c = np.asarray(x_star_c, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = region.dimension
    if x_star_c.shape != (n,) or c.shape != (n,):
        raise DimensionMismatch(f"region has dimension {n}, x_star_c has shape {x_star_c.shape} "
                                f"and c has shape {c.shape}")
    if not (np.isfinite(x_star_c).all() and np.isfinite(c).all()):
        raise ValueError(f"x_star_c and c must be finite, got {x_star_c.tolist()} and {c.tolist()}")
    d = x_star_c - c
    nd = float(np.linalg.norm(d))
    if nd < 1e-14:
        raise ValueError("ascent direction is undefined: x_star_c coincides with c")
    d_hat = d / nd

    scale_points = [x_star_c]
    for center, offset in _balls(region):
        radius = math.sqrt(-offset)
        scale_points += (center + radius, center - radius)
    scale_points += [(-b / float(a @ a)) * a for a, b in _halfspaces(region)]
    stacked = np.stack(scale_points)
    spread = float(np.linalg.norm(stacked.max(axis=0) - stacked.min(axis=0)))
    step_scale = max(spread, 1e-3)

    x = project_region(region, x_star_c)
    for _ in range(4000):
        x_next = project_region(region, x + step_scale * d_hat)
        if float(d_hat @ x_next) <= float(d_hat @ x):
            break
        x = x_next
    return x


def bound_max_distance(region: ConstraintSet, bi: BallIntersection, c, delta: float,
                       cfg: BisectionConfig | None = None, *, seed: int = 0) -> AppBoundReport:
    """Sandwich the maximum distance over the region between V_c and V_c + delta.

    Spot-checks the two hypotheses first (the deep point inside the region,
    and 200 random rays from it that leave the inner intersection no later
    than the region, to within a relative ``1e-7``; then where 1,000 more
    random rays, the rays along the halfspace normals and those towards the
    ball centers leave the region, each within ``delta`` of the intersection),
    then computes the inner maximum with ``solve_farthest`` (the dual
    bracket, bisected only when the dual leaves it wider than ``2 eps``)
    and extracts a boundary point realizing the sandwich.

    Raises
    ------
    DimensionMismatch
        When the region, the inner intersection and ``c`` do not share one
        dimension.
    TypeError, ValueError
        When ``c`` or ``delta`` is not finite, ``delta`` is negative, or a
        region constraint is not a ball or a halfspace with a nonzero normal.
    HypothesisViolation
        With the offending sample attached, when a spot check fails.
    UnboundedRegion
        When a ray never leaves the region.
    EmptyIntersection, PreconditionFailed, InnerUndetermined
        Propagated from the farthest-point solve.
    """
    if cfg is None:
        cfg = BisectionConfig()
    c = np.asarray(c, dtype=np.float64)
    if region.dimension != bi.dimension or c.shape != (bi.dimension,):
        raise DimensionMismatch(f"region has dimension {region.dimension}, the inner intersection "
                                f"{bi.dimension} and c has shape {c.shape}")
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError(f"outer center must be finite, got {c.tolist()}")
    region.region_rows  # refuse a constraint that is not a ball or a halfspace before sampling
    delta = float(delta)
    if delta < 0 or not math.isfinite(delta):
        raise ValueError("delta must be finite and >= 0")
    rng = np.random.default_rng(seed)
    cover_slack = 1e-7

    # the rays of both checks start from one strictly interior point of C1
    deep = deep_point(bi)
    depth = bi.worst_residual(deep)
    if depth >= -1e-9:
        raise HypothesisViolation(
            f"ball intersection has no usable interior (best depth {depth:.3e})",
            counterexample=deep)

    # inner intersection inside the region
    depth = region.worst_residual(deep)
    if depth >= -1e-9:
        raise HypothesisViolation("inner intersection is not contained in the region",
                                  counterexample=deep, distance=depth)

    # 200 random rays check the containment; 1,000 more and the rays along
    # each halfspace normal and towards each ball center check the covering
    d = np.vstack([rng.standard_normal((1200, region.dimension)),
                   *(center - deep for center, _ in _balls(region) if (center != deep).any()),
                   *(a for a, _ in _halfspaces(region))])
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    reach = _exits(region, deep, d)
    t = _exits(bi, deep, d[:200])
    late = np.flatnonzero(t > (1 + 1e-7) * reach[:200])
    if late.size:
        x = deep + t[late[0]] * d[late[0]]
        raise HypothesisViolation("inner intersection is not contained in the region",
                                  counterexample=x, distance=region.worst_residual(x))
    free = np.flatnonzero(np.isinf(reach))
    if free.size:
        raise UnboundedRegion(f"region is unbounded along direction {d[free[0]].tolist()}")

    # delta-covering of the region by the inner intersection; an exit on a
    # ball shared with C1 lies off it by the rounding of its coordinates
    for x in deep + reach[200:, None] * d[200:]:
        p = bi.project(x).point
        d_to_c1 = float(np.linalg.norm(x - p))
        if d_to_c1 > delta + cover_slack * max(1.0, float(np.linalg.norm(x))):
            raise HypothesisViolation(
                f"region point at distance {d_to_c1:.6f} from the inner intersection "
                f"exceeds the covering constant {delta}",
                counterexample=x, distance=d_to_c1)

    far = solve_farthest(bi, c, cfg)
    x_hat = extract_boundary_point(region, far.x_witness, c)
    return AppBoundReport(
        v_c=float(far.r_star),
        x_star_c=np.asarray(far.x_witness, dtype=np.float64),
        x_hat=x_hat,
        dist_x_hat=float(np.linalg.norm(x_hat - c)),
        delta=delta,
    )
