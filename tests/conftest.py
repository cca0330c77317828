"""Shared fixtures and seeded instance generators for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hullscope import Ball, BallIntersection, ConstraintSet, ball_constraint, halfspace_constraint
from hullscope import dual

settings.register_profile("suite", max_examples=200, deadline=None)
# a longer run of the same properties, chosen with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=2_000, deadline=None)
settings.load_profile("suite")

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return PROBLEMS_DIR


def problem_path(name: str) -> Path:
    return PROBLEMS_DIR / f"{name}.json"


def value(fn, x) -> float:
    """The value of a ``ConvexFn`` at ``x``: the first component of ``fn.eval``."""
    return fn.eval(np.asarray(x, dtype=np.float64))[0]


def random_disk_instance(rng: np.random.Generator, m: int) -> list[Ball]:
    """Random 2-D disks with radii in [0.5, 1.5] and centers in [-2, 2]^2."""
    return [Ball(rng.uniform(-2.0, 2.0, 2), rng.uniform(0.5, 1.5)) for _ in range(m)]


def disks_to_constraints(disks: list[Ball]) -> ConstraintSet:
    return ConstraintSet([ball_constraint(b) for b in disks])


def disk_grid_bounds(disks: list[Ball], pad: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    lo = np.min([b.center - b.radius for b in disks], axis=0) - pad
    hi = np.max([b.center + b.radius for b in disks], axis=0) + pad
    return lo, hi


def random_ball_intersection(rng: np.random.Generator, m: int,
                             n: int = 2) -> tuple[BallIntersection, np.ndarray]:
    """A nonempty ``n``-D ball intersection; the returned anchor is a deep point.

    Centers sit within 0.5 R of the anchor, so the anchor is at least 0.5 R
    interior and pairwise center distances stay below R (healthy wedge
    angles between the boundary spheres).
    """
    R = rng.uniform(0.6, 1.2)
    z0 = rng.uniform(-1.0, 1.0, n)
    centers = []
    for _ in range(m):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        centers.append(z0 + (0.5 * R * rng.uniform(0.0, 1.0)) * d)
    return BallIntersection(centers, R), z0


def far_center(rng: np.random.Generator, bi: BallIntersection, z0: np.ndarray,
               margin_min: float = 0.12) -> np.ndarray:
    """A center whose distance to the intersection exceeds R by > margin_min.

    Placing c at ||c - z0|| = 2 R + max_offset + u guarantees
    d(c, C1) - R >= u since C1 is within max_offset + R of the anchor.
    """
    max_off = max(float(np.linalg.norm(c - z0)) for c in bi.centers)
    u = rng.uniform(margin_min + 0.03, 1.5)
    d = rng.standard_normal(len(z0))
    d /= np.linalg.norm(d)
    return z0 + (2.0 * bi.radius + max_off + u) * d


def without_newton(solve):
    """``solve`` run with no Newton step (``dual.DUAL_STEPS = 0``), while every other solve keeps its steps.

    Patching ``DUAL_STEPS`` itself would also starve the distance gate's
    solve, which then refuses instances near its threshold.
    """
    def starved(*args, **kwargs):
        steps, dual.DUAL_STEPS = dual.DUAL_STEPS, 0
        try:
            return solve(*args, **kwargs)
        finally:
            dual.DUAL_STEPS = steps
    return starved


def dual_sweep():
    """120 labelled ``(label, bi, c)``: seed 77, ``n`` in {2, 3, 5, 8}, ``m`` = 1-6."""
    rng = np.random.default_rng(77)
    for i in range(120):
        bi, z0 = random_ball_intersection(rng, 1 + (i // 4) % 6, (2, 3, 5, 8)[i % 4])
        yield f"instance {i}", bi, far_center(rng, bi, z0)


def wide_dual_sweep():
    """40 labelled ``(label, bi, c)`` at the wide workload's inclusion shapes.

    Seed 78; ``(n, m)`` alternates between (10, 8) and (16, 6), so ``m > 1``
    and both duals run their Newton solve.
    """
    rng = np.random.default_rng(78)
    for i in range(40):
        n, m = ((10, 8), (16, 6))[i % 2]
        bi, z0 = random_ball_intersection(rng, m, n)
        yield f"wide instance {i} (n = {n}, m = {m})", bi, far_center(rng, bi, z0)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def mixed_instance(rng: np.random.Generator, n: int, mb: int, mh: int,
                   feasible: bool) -> tuple[list, np.ndarray]:
    """Balls and halfspaces whose feasibility is certain by construction.

    Every constraint holds at the returned anchor with a distance slack of at
    least 0.2. An infeasible instance has one halfspace replaced by one that
    leaves a whole ball on its far side with a gap in [0.3, 0.6]. Returns the
    constraint list (balls first) and the anchor.
    """
    z = rng.uniform(-1.0, 1.0, n)
    radii = rng.uniform(1.0, 2.0, mb)
    slack = rng.uniform(0.2, 1.0, mb)
    centers = [z + (radii[k] - slack[k]) * rng.uniform(0.0, 1.0) * _unit(rng, n) for k in range(mb)]
    A = [_unit(rng, n) for _ in range(mh)]
    b = [float(a @ z) + rng.uniform(0.2, 1.0) for a in A]
    if not feasible:
        k = int(rng.integers(mb))
        h = int(rng.integers(mh))
        # the ball lies in a.x >= a.c_k - r_k, the new halfspace is a.x <= that - gap
        b[h] = float(A[h] @ centers[k]) - radii[k] - rng.uniform(0.3, 0.6)
    constraints = [ball_constraint(Ball(c, r)) for c, r in zip(centers, radii)]
    constraints += [halfspace_constraint(a, bh) for a, bh in zip(A, b)]
    return constraints, z
