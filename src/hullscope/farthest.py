"""Farthest point of a ball intersection from an outside center.

``r_star`` is the maximum of ``||x - c||`` over the intersection ``C1`` of the
rows ``g_k(x) = ||x - c_k||^2 + o_k`` (``o_k = -R^2``). The S-lemma dual of
the ``dual`` module (the anchor row ``||x - c||^2`` at weight ``-1``) brackets
it first, both ends proven over the float inputs: each is read exactly in
integers, from the rows of the balls about ``c`` that the inclusion checker
builds once and shares with every check.

Under the distance precondition ``d(c, C1) > R`` that relaxation is exact
(the argument is in the ``dual`` module docstring). For any ``r > r_star``,
``C1`` lies in the open ball ``B(c, r)``, so the witness dual of that ball
has weights ``(w, t)`` with a positive bound; ``t = 0`` would prove ``C1``
empty, so ``t > 0``, and ``lambda = w / t`` bounds ``r_star^2`` below ``r^2``.
When the infimum is attained, the primal point of the optimal multipliers
is the farthest point itself, so it lies in ``C1``, the bracket is as narrow
as rounding allows and no bisection step runs.

The bisection is therefore the fallback for a Newton solve that stops short,
at ``dual.DUAL_STEPS`` steps or at a step that would leave the interior in
floats. It closes the bracket the paper's way: ``C1 \\ B(c, r)`` (open ball
removed) is nonempty for ``r < r_star`` and empty for ``r > r_star``, so one
inclusion check per midpoint halves it; each check starts from the witness
dual's minimiser of ``G`` and its exact lower bound, which usually close the
step with no subgradient iteration. If no member of ``C1`` is found,
``r_lo`` is ``R``, which the distance precondition ``d(c, C1) > R`` makes a
lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import farthest_bracket
from .errors import InnerUndetermined
from .inclusion import BallIntersection, InclusionVerdict, inclusion_checker
from .minimize import SolverConfig


@dataclass(frozen=True)
class BisectionConfig:
    """Bracket precision and the inner solver configuration."""

    eps: float = 1e-4
    inner: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not (math.isfinite(float(self.eps)) and self.eps > 0):
            raise ValueError("eps must be a finite positive number")


@dataclass
class FarthestReport:
    """Final bracket, its midpoint, the best witness point and the dual multipliers.

    ``x_witness`` lies in the intersection and realizes a distance of at
    least ``r_star - 2 eps``; ``r_star`` is the final bracket midpoint.
    ``multipliers`` are the dual's ``lambda`` in centre order: before any
    bisection step, ``r_hi^2 >= phi(multipliers)`` holds exactly.
    """

    r_star: float
    x_witness: np.ndarray
    bisection_steps: int
    r_lo: float
    r_hi: float
    total_inner_iters: int
    multipliers: tuple[float, ...]


def solve_farthest(bi: BallIntersection, c, cfg: BisectionConfig = BisectionConfig()) -> FarthestReport:
    """Maximum distance from ``c`` attained on the ball intersection.

    Brackets ``r_star`` with the dual (module docstring) and returns at once
    when the bracket is at most ``2 eps`` wide, with no bisection step and
    no inner iteration. Otherwise bisects the bracket, running one inclusion
    check per midpoint; ``cfg`` is ``BisectionConfig()`` by default, and
    ``cfg.inner.max_iters`` caps the subgradient iterations of each step. An
    inner Undetermined verdict, including a step that ran out of budget, is
    surfaced as ``InnerUndetermined`` rather than silently resolved; callers
    may loosen ``eps`` or tighten the inner solver.

    Raises
    ------
    DimensionMismatch
        If ``c`` does not have shape ``(bi.dimension,)``, before any solve.
    ValueError
        If a coordinate of ``c`` is not finite, before any solve.
    EmptyIntersection, PreconditionFailed, InnerUndetermined
    """
    witness, about, check = inclusion_checker(bi, c, cfg.inner)
    r_lo, r_hi, witness, lam = farthest_bracket(about, witness, bi.radius)
    steps = 0
    total_inner = 0

    while r_hi - r_lo > 2.0 * cfg.eps:
        mid = 0.5 * (r_lo + r_hi)
        report = check(mid)
        steps += 1
        total_inner += report.iters
        if report.verdict is InclusionVerdict.NONEMPTY_DIFFERENCE:
            r_lo = mid
            witness = report.x_star
        elif report.verdict is InclusionVerdict.INCLUDED:
            r_hi = mid
        else:
            raise InnerUndetermined(
                f"inclusion check at r = {mid!r} was undetermined "
                f"(min G in [{report.g_lower:.3e}, {report.g_at_xstar:.3e}]); "
                "loosen eps or tighten the inner solver")

    return FarthestReport(
        r_star=0.5 * (r_lo + r_hi),
        x_witness=np.asarray(witness, dtype=np.float64),
        bisection_steps=steps,
        r_lo=r_lo,
        r_hi=r_hi,
        total_inner_iters=total_inner,
        multipliers=tuple(lam.tolist()),
    )
