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
delta`` is where the ray from the inner farthest point ``x_star_c`` along
``x_star_c - c`` leaves ``S``. With ``t >= 0`` its exit length, ``||x_hat -
c|| = ||x_star_c - c|| + t``, and ``x_hat`` lies in ``S``, so the sandwich
holds with no iteration. That point is not in general the maximiser of the
linear functional ``(x_star_c - c).x`` over ``S``, which satisfies the
sandwich too but needs projections onto ``S`` to find: on the three unit
disks about ``(0, 0)``, ``(1, 0)`` and ``(0.5, 0.8)`` inside the same disks
at radius 1.3, with ``c = (5, 0.3)``, ``||x_hat - c||`` reads 5.311216 where
the maximiser gives 5.311233.

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

The covering check projects nothing. Where a ray leaves ``C1``, at ``x0 +
t d``, is a point of ``C1``, so the gap ``reach - t`` to where it leaves
``S`` bounds the distance from that exit to ``C1`` from above, and an exit
whose gap is within the threshold ``delta + 1e-7 max(1, ||x||)`` passes.
For one ball the gap is the distance itself. An exit whose gap exceeds the
threshold is refused only on a proof: the exact lower bound on its distance
from ``dual.distance_margin``, which becomes the violation's ``distance``,
must clear the threshold. Otherwise ``dual.distance_above`` reads an upper
bound from a member of ``C1``; within the threshold the exit passes, and an
exit left between the two bounds lies within the Newton solve's gap of the
threshold and passes with a warning that names both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dual import deep_point, distance_above, distance_margin
from .errors import DimensionMismatch, HypothesisViolation, UnboundedRegion
from .farthest import BisectionConfig, solve_farthest
from .feasibility import ConstraintSet
from .inclusion import BallIntersection

log = logging.getLogger("hullscope.application")


@dataclass
class AppBoundReport:
    """Computed inner maximum, the boundary point, and the covering constant."""

    v_c: float
    x_star_c: np.ndarray
    x_hat: np.ndarray
    dist_x_hat: float
    delta: float


def project_region(region: ConstraintSet, y) -> np.ndarray:
    """Euclidean projection onto the region (Dykstra over all constraints).

    No code of the package calls it any more: the covering check and the
    boundary point read ray exits. It stays only because ``bench/tracing.py``
    wraps it by name.
    """
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
    """How far the rays from ``x0`` in the region along the unit rows of ``d`` run.

    Returns ``t`` with ``x0 + t d`` where each ray leaves the region: the
    least exit over the region's rows. A halfspace row with ``a.d`` at most
    ``1e-14`` bounds nothing along ``d``; a ray that no row bounds gets
    ``inf``. From an ``x0`` on the boundary a ray pointing out reads an exit
    of about 0, slightly negative when rounding puts ``x0`` just past a row.
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


def _off_region(region: ConstraintSet, x: np.ndarray) -> bool:
    """``x`` lies past a row of the region by more than the rounding of its coordinates, ``1e-7 max(1, |x|)``.

    How far past is the signed distance ``(a.x + b) / |a|`` for a halfspace
    and ``|x - center| - r`` for a ball.
    """
    rows = region.region_rows
    past = []
    if rows.normals is not None:
        past += ((rows.normals @ x + rows.shifts) / np.linalg.norm(rows.normals, axis=1)).tolist()
    if rows.centers is not None:
        past += (np.linalg.norm(x - rows.centers, axis=1) - np.sqrt(np.negative(rows.offsets))).tolist()
    return max(past) > 1e-7 * max(1.0, float(np.linalg.norm(x)))


def extract_boundary_point(region: ConstraintSet, x_star_c, c) -> np.ndarray:
    """Where the ray from ``x_star_c`` along ``x_star_c - c`` leaves the region.

    ``x_hat = x_star_c + t d_hat`` with ``d_hat`` the unit direction and
    ``t >= 0`` the ray's exit length (``_exits``), clamped at 0 so that an
    ``x_star_c`` on the boundary, whose exit can read slightly negative in
    floats, is returned as it is. ``|x_hat - c| = |x_star_c - c| + t``, so
    ``x_hat`` lies no nearer ``c`` than ``x_star_c``. Raises
    ``DimensionMismatch`` unless ``x_star_c`` and ``c`` both have shape
    ``(region.dimension,)``, ``ValueError`` if either is not finite, if they
    coincide, or if ``x_star_c`` lies beyond a region row by more than ``1e-7
    max(1, |x_star_c|)``, and ``UnboundedRegion`` when the ray never leaves.
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
        raise ValueError("ray direction is undefined: x_star_c coincides with c")
    if _off_region(region, x_star_c):
        raise ValueError(f"x_star_c {x_star_c.tolist()} is not in the region")
    d_hat = d / nd
    t = float(_exits(region, x_star_c, d_hat[None])[0])
    if math.isinf(t):
        raise UnboundedRegion(f"region is unbounded along direction {d_hat.tolist()}")
    return x_star_c + max(t, 0.0) * d_hat


def bound_max_distance(region: ConstraintSet, bi: BallIntersection, c, delta: float,
                       cfg: BisectionConfig | None = None, *, seed: int = 0) -> AppBoundReport:
    """Sandwich the maximum distance over the region between V_c and V_c + delta.

    Spot-checks the two hypotheses first (the deep point inside the region,
    and 200 random rays from it that leave the inner intersection no later
    than the region, to within a relative ``1e-7``; then where 1,000 more
    random rays, the rays along the halfspace normals and those towards the
    ball centers leave the region, each within ``delta`` of the intersection
    by its ray gap or, past that, by the exact dual bounds of the module
    docstring, scanned in ray order), then computes the inner maximum with
    ``solve_farthest`` (the dual bracket, bisected only when the dual leaves
    it wider than ``2 eps``), refuses a farthest point ``x_star_c`` that lies
    past a region row by more than ``1e-7 max(1, ||x_star_c||)`` as a
    containment counterexample, and takes the boundary point from the one
    ray exit of ``extract_boundary_point``.

    Raises
    ------
    DimensionMismatch
        When the region, the inner intersection and ``c`` do not share one
        dimension.
    TypeError, ValueError
        When ``c`` or ``delta`` is not finite, ``delta`` is negative, or a
        region constraint is not a ball or a halfspace with a nonzero normal.
    HypothesisViolation
        With the offending sample attached, when a spot check fails; for the
        covering check its ``distance`` is a proven lower bound, above the
        threshold, on the sample's distance to the inner intersection.
    UnboundedRegion
        When a ray never leaves the region, the ray from ``x_star_c``
        included.
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
    t = _exits(bi, deep, d)
    late = np.flatnonzero(t[:200] > (1 + 1e-7) * reach[:200])
    if late.size:
        x = deep + t[late[0]] * d[late[0]]
        raise HypothesisViolation("inner intersection is not contained in the region",
                                  counterexample=x, distance=region.worst_residual(x))
    free = np.flatnonzero(np.isinf(reach))
    if free.size:
        raise UnboundedRegion(f"region is unbounded along direction {d[free[0]].tolist()}")

    # delta-covering of the region by the inner intersection, from the ray
    # gaps and, past them, the exact dual bounds (module docstring); an exit
    # on a ball shared with C1 lies off it by the rounding of its coordinates
    gap = reach[200:] - t[200:]
    for i in np.flatnonzero(gap > delta):
        x = deep + reach[200 + i] * d[200 + i]
        limit = delta + cover_slack * max(1.0, float(np.linalg.norm(x)))
        if gap[i] <= limit:
            continue
        lower = distance_margin(bi, x, 0.0, limit)
        if lower > limit:
            raise HypothesisViolation(
                f"region point at distance {lower:.6f} from the inner intersection "
                f"exceeds the covering constant {delta}",
                counterexample=x, distance=lower)
        upper = distance_above(bi, x, deep)
        if upper > limit:
            log.warning("region point %s lies between %.17g and %.17g from the inner intersection, "
                        "across the covering threshold %.17g: passed", x.tolist(), lower, upper, limit)

    far = solve_farthest(bi, c, cfg)
    if _off_region(region, far.x_witness):
        raise HypothesisViolation("inner intersection is not contained in the region",
                                  counterexample=far.x_witness,
                                  distance=region.worst_residual(far.x_witness))
    x_hat = extract_boundary_point(region, far.x_witness, c)
    return AppBoundReport(
        v_c=float(far.r_star),
        x_star_c=np.asarray(far.x_witness, dtype=np.float64),
        x_hat=x_hat,
        dist_x_hat=float(np.linalg.norm(x_hat - c)),
        delta=delta,
    )
