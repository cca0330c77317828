"""Farthest point of a ball intersection from an outside center, by bisection.

With ``r_star`` the maximum of ``||x - c||`` over the intersection ``C1``,
the set ``C1 \\ B(c, r)`` (open ball removed) is nonempty for ``r < r_star``
and empty for ``r > r_star``, so ``r_star`` is found by bisecting on ``r``
with one inclusion check per step. Under the distance precondition
``d(c, C1) > R`` the bracket

    r_lo = R,   r_hi = 2 R + ||x0 - c||      (x0 any point of C1)

is valid: every point of ``C1`` is farther than ``R`` from ``c``, and ``C1``
has diameter at most ``2 R`` so it sits inside ``B(x0, 2R)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InnerUndetermined
from .inclusion import BallIntersection, InclusionVerdict, inclusion_checker
from .minimize import SolverConfig


@dataclass(frozen=True)
class BisectionConfig:
    """Bracket precision and the inner solver configuration."""

    eps: float = 1e-4
    inner: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (math.isfinite(float(self.eps)) and self.eps > 0):
            raise ValueError("eps must be a finite positive number")


@dataclass
class FarthestReport:
    """Final bracket, its midpoint, and the best witness point found.

    ``x_witness`` lies in the intersection and realizes a distance of at
    least ``r_star - 2 eps``; ``r_star`` is the final bracket midpoint.
    """

    r_star: float
    x_witness: np.ndarray
    bisection_steps: int
    r_lo: float
    r_hi: float
    total_inner_iters: int


def solve_farthest(bi: BallIntersection, c, cfg: BisectionConfig | None = None) -> FarthestReport:
    """Maximum distance from ``c`` attained on the ball intersection.

    Bisects the bracket, running one inclusion check per midpoint (the
    inclusion minimizer warm-starts from the previous step's witness);
    ``cfg.inner.max_iters`` caps the iterations of each step. An inner
    Undetermined verdict, including a step that ran out of budget, is
    surfaced as ``InnerUndetermined`` rather than silently resolved;
    callers may loosen ``eps`` or tighten the inner solver.

    Raises
    ------
    EmptyIntersection, PreconditionFailed, InnerUndetermined
    """
    if cfg is None:
        cfg = BisectionConfig()
    c = np.asarray(c, dtype=np.float64)
    witness, check = inclusion_checker(bi, c, cfg.inner)
    r_lo = bi.radius
    r_hi = 2.0 * bi.radius + float(np.linalg.norm(witness - c))
    steps = 0
    total_inner = 0
    warm = witness

    while r_hi - r_lo > 2.0 * cfg.eps:
        mid = 0.5 * (r_lo + r_hi)
        report = check(mid, warm)
        steps += 1
        total_inner += report.iters
        if report.verdict is InclusionVerdict.NONEMPTY_DIFFERENCE:
            r_lo = mid
            witness = report.x_star
            warm = report.x_star
        elif report.verdict is InclusionVerdict.INCLUDED:
            r_hi = mid
        else:
            raise InnerUndetermined(
                f"inclusion check at r = {mid!r} was undetermined "
                f"(G minimum {report.g_at_xstar:.3e}); loosen eps or tighten the inner solver")

    return FarthestReport(
        r_star=0.5 * (r_lo + r_hi),
        x_witness=np.asarray(witness, dtype=np.float64),
        bisection_steps=steps,
        r_lo=r_lo,
        r_hi=r_hi,
        total_inner_iters=total_inner,
    )
