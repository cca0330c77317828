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
constraints; the objective is linear, so any maximizer satisfies the
sandwich and face ties resolve to whatever point the iteration reaches.

The two covering hypotheses are spot-checked by sampling (hit-and-run from a
deep interior point, plus deterministic candidates); this is a heuristic
guard against misuse, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexfn import Max, ball_constraint
from .errors import HypothesisViolation, UnboundedRegion
from .farthest import BisectionConfig, solve_farthest
from .feasibility import ConstraintSet
from .geometry import Ball
from .inclusion import BallIntersection
from .minimize import refine_minimum


@dataclass
class AppBoundReport:
    """Computed inner maximum, the boundary point, and the covering constant."""

    v_c: float
    x_star_c: np.ndarray
    x_hat: np.ndarray
    dist_x_hat: float
    delta: float


def project_region(region: ConstraintSet, y, iters: int = 300, tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection onto the region (Dykstra over all constraints)."""
    return region.project(y, iters=iters, tol=tol).point


def _deep_point(cs: ConstraintSet, start, label: str) -> np.ndarray:
    """A strictly interior point, found by pushing down the worst residual."""
    worst = Max(cs.constraints)
    res = refine_minimum(worst, start, value_gap=1e-6, probe_iters=2000, max_probes=40)
    if res.f_best >= -1e-9:
        raise HypothesisViolation(
            f"{label} has no usable interior (best depth {res.f_best:.3e})",
            counterexample=res.x_best)
    return res.x_best


def _chord(region: ConstraintSet, x: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Parameter range of {x + t d} inside the region; d is a unit vector."""
    t_lo, t_hi = -math.inf, math.inf
    for h in region.halfspaces:
        ad = float(h.a @ d)
        slack = -h.b - float(h.a @ x)
        if abs(ad) < 1e-14:
            continue
        t = slack / ad
        if ad > 0:
            t_hi = min(t_hi, t)
        else:
            t_lo = max(t_lo, t)
    for b in region.balls:
        w = x - b.center
        # ||w + t d||^2 = r^2 with ||d|| = 1
        beta = float(w @ d)
        gamma = float(w @ w) + b.offset
        disc = beta * beta - gamma
        if disc < 0.0:
            disc = 0.0
        root = math.sqrt(disc)
        t_lo = max(t_lo, -beta - root)
        t_hi = min(t_hi, -beta + root)
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise UnboundedRegion(f"region is unbounded along direction {d!r}")
    return t_lo, t_hi


def _hit_and_run(region: ConstraintSet, x0: np.ndarray, count: int, rng) -> list[np.ndarray]:
    """Uniform-ish interior samples by hit-and-run from a strictly interior point."""
    x = np.array(x0, dtype=np.float64)
    n = region.dimension
    out = []
    for _ in range(count):
        d = rng.standard_normal(n)
        d /= float(np.linalg.norm(d))
        t_lo, t_hi = _chord(region, x, d)
        if t_hi < t_lo:
            t_lo = t_hi = 0.0
        x = x + rng.uniform(t_lo, t_hi) * d
        out.append(x.copy())
    return out


def _covering_candidates(region: ConstraintSet, interior: np.ndarray) -> list[np.ndarray]:
    """Deterministic spot-check points: ball centers and halfspace feet."""
    cands = [np.asarray(b.center, dtype=np.float64) for b in region.balls]
    for h in region.halfspaces:
        na2 = float(h.a @ h.a)
        foot = interior + ((-h.b - float(h.a @ interior)) / na2) * h.a
        cands.append(foot)
    return [c for c in cands if region.worst_residual(c) <= 1e-9]


def extract_boundary_point(region: ConstraintSet, x_star_c, c, *, iters: int = 4000) -> np.ndarray:
    """Maximize the linear functional (x_star_c - c).x over the region.

    Projected ascent with a fixed direction: diminishing steps scaled by a
    diameter estimate, each followed by a Dykstra projection back into the
    region. Returns the best iterate by objective value.
    """
    x_star_c = np.asarray(x_star_c, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = x_star_c - c
    nd = float(np.linalg.norm(d))
    if nd < 1e-14:
        raise ValueError("ascent direction is undefined: x_star_c coincides with c")
    d_hat = d / nd

    scale_points = [x_star_c]
    for b in region.balls:
        radius = math.sqrt(-b.offset)
        scale_points.append(b.center + radius)
        scale_points.append(b.center - radius)
    for h in region.halfspaces:
        na2 = float(h.a @ h.a)
        scale_points.append((-h.b / na2) * h.a)
    stacked = np.stack(scale_points)
    spread = float(np.linalg.norm(stacked.max(axis=0) - stacked.min(axis=0)))
    step_scale = max(spread, 1e-3)

    x = project_region(region, x_star_c)
    best = x
    best_obj = float(d_hat @ x)
    for k in range(iters):
        y = x + (step_scale / math.sqrt(k + 1.0)) * d_hat
        x = project_region(region, y)
        obj = float(d_hat @ x)
        if obj > best_obj:
            best_obj = obj
            best = x
    return best


def bound_max_distance(region: ConstraintSet, bi: BallIntersection, c, delta: float,
                       cfg: BisectionConfig | None = None, *,
                       samples: int = 1000, seed: int = 0) -> AppBoundReport:
    """Sandwich the maximum distance over the region between V_c and V_c + delta.

    Spot-checks the two hypotheses first (inner intersection inside the
    region; every sampled region point within ``delta`` of the intersection),
    then computes the inner maximum by bisection and extracts a boundary
    point realizing the sandwich.

    Raises
    ------
    TypeError, ValueError
        When a region constraint is not a ball or a halfspace with a nonzero
        normal.
    HypothesisViolation
        With the offending sample attached, when a spot check fails.
    EmptyIntersection, PreconditionFailed, InnerUndetermined
        Propagated from the farthest-point solve.
    """
    if cfg is None:
        cfg = BisectionConfig()
    c = np.asarray(c, dtype=np.float64)
    delta = float(delta)
    if delta < 0 or not math.isfinite(delta):
        raise ValueError("delta must be finite and >= 0")
    rng = np.random.default_rng(seed)
    cover_slack = 1e-7
    # squared as ball_constraint squares (radius ** 2), which can differ in
    # the last bit from the R * R of bi.constraint_set()
    c1 = ConstraintSet([ball_constraint(Ball(ck, bi.radius)) for ck in bi.centers])
    anchor = np.mean(bi.centers, axis=0)

    # inner intersection inside the region
    deep_c1 = _deep_point(c1, anchor, "ball intersection")
    for x in _hit_and_run(c1, deep_c1, max(200, samples // 5), rng):
        if region.worst_residual(x) > 1e-7:
            raise HypothesisViolation(
                "inner intersection is not contained in the region",
                counterexample=x, distance=region.worst_residual(x))

    # delta-covering of the region by the inner intersection
    deep_s = _deep_point(region, anchor, "region")
    check_points = _hit_and_run(region, deep_s, samples, rng)
    check_points.extend(_covering_candidates(region, deep_s))
    for x in check_points:
        p = c1.project(x, iters=500, tol=1e-11).point
        d_to_c1 = float(np.linalg.norm(x - p))
        if d_to_c1 > delta + cover_slack:
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
