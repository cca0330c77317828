"""Farthest point of a ball intersection from an outside center.

With ``r_star`` the maximum of ``||x - c||`` over the intersection ``C1`` of
the rows ``g_k(x) = ||x - c_k||^2 + o_k <= 0`` (``o_k = -R^2``), the bracket
comes from the S-lemma dual. For ``lambda >= 0`` with ``s = sum lambda_k > 1``,

    phi(lambda) = max_x ||x - c||^2 - sum_k lambda_k g_k(x)

bounds ``r_star^2`` from above, because every term of the sum is at most zero
on ``C1``. The maximand is concave (Hessian ``2 (1 - s) I``), so the maximum
sits at ``x(lambda) = c + v / (s - 1)`` with ``v = sum lambda_k (c_k - c)``,
and ``phi = |v|^2 / (s - 1) - sum lambda_k g_k(c)``. It is convex in
``lambda``, with gradient ``-g_k(x(lambda))`` and Hessian ``2 W W^T / (s - 1)``,
where the rows of ``W`` are ``x(lambda) - c_k``. Damped (Levenberg) Newton
steps over ``lambda >= 0`` minimise it from uniform multipliers with
``s = 2``. Both ends of the bracket are then read in exact integer
arithmetic over the float inputs:

    r_hi = the least float with r_hi^2 >= phi(lambda),
    r_lo = |x_witness - c| rounded down,

where ``x_witness`` is ``x(lambda)`` when it lies exactly in ``C1``, and
otherwise ``x(lambda)`` pulled toward the feasibility witness by the first
of ``2^-60, 2^-59, ..., 1`` that lands exactly in ``C1``. The dual is tight
whenever ``x(lambda*)`` lies in ``C1``, since complementary slackness leaves
``phi(lambda*) = |x(lambda*) - c|^2`` there; for one ball the S-lemma makes
it always so. Then the bracket is as narrow as rounding allows and no
bisection step runs.

Otherwise the bracket is closed the paper's way: ``C1 \\ B(c, r)`` (open ball
removed) is nonempty for ``r < r_star`` and empty for ``r > r_star``, so one
inclusion check per midpoint halves it. If no member of ``C1`` is found,
``r_lo`` is ``R``, which the distance precondition ``d(c, C1) > R`` makes a
lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InnerUndetermined
from .feasibility import _dual_sums, _dyadic, _dyadic_rows
from .inclusion import BallIntersection, InclusionVerdict, inclusion_checker
from .minimize import SolverConfig

# Newton steps of the dual, rejected ones included, before the bracket is read
DUAL_STEPS = 100


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


class _DualPoint(NamedTuple):
    """``phi`` at ``lam`` with its rounding level, and what a Newton step reads there."""

    phi: float
    slack: float
    kkt: float  # largest |gradient| over the free multipliers
    lam: np.ndarray
    s: float
    x: np.ndarray  # x(lam) - c
    W: np.ndarray
    grad: np.ndarray
    free: list[int]  # multipliers the Newton step moves


def _solve_spd(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``H^-1 g`` for a symmetric positive definite ``H``: elimination needs no pivots.

    Elementwise numpy only, as ``_dual_multipliers`` builds ``H``:
    ``np.linalg.solve`` and a matrix product map LAPACK and BLAS kernels in
    on first use, which raised the peak RSS of a ``farthest`` run by about
    0.6 MB.
    """
    k = len(g)
    A = np.column_stack((H, g))
    for i in range(k - 1):
        A[i + 1:] -= (A[i + 1:, i] / A[i, i])[:, None] * A[i]
    p = np.zeros(k)
    for i in range(k - 1, -1, -1):
        p[i] = (A[i, k] - A[i, i + 1:k] @ p[i + 1:]) / A[i, i]
    return p


def _dual_multipliers(d: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers ``lambda`` that minimise ``phi``, and ``x(lambda) - c``.

    The rows of ``d`` are the centres ``c_k - c`` and ``o`` holds the offsets.
    Projected Levenberg-Newton: a multiplier at zero whose gradient is
    positive stays there, the others take the damped Newton step and are
    clipped at zero. A trial is accepted when it lowers ``phi``, or when it
    lowers the largest free gradient while ``phi`` moves only by rounding;
    an accepted trial divides the damping by ten and a refused one, or one
    with ``s <= 1``, multiplies it by ten. Stops when the free gradient is at
    rounding level, when the damping passes ``1e8`` or after ``DUAL_STEPS``
    trials.
    """
    q = (d * d).sum(axis=1) + o  # g_k(c)
    tol = 1e-13 * float((d * d).sum(axis=1).max())

    def at(lam) -> _DualPoint:
        s = float(lam.sum())
        x = (lam @ d) / (s - 1.0)
        W = x - d
        grad = -((W * W).sum(axis=1) + o)  # -g_k(x)
        # the free set is built in Python: a numpy float comparison maps its
        # kernels in on first use (about 0.15 MB of peak RSS)
        g = grad.tolist()
        free = [k for k, lk in enumerate(lam.tolist()) if lk > 0.0 or g[k] < 0.0]
        head, tail = float(x @ x) * (s - 1.0), float(lam @ q)
        return _DualPoint(head - tail, 1e-15 * (head + abs(tail)),
                          max((abs(g[k]) for k in free), default=0.0), lam, s, x, W, grad, free)

    cur = at(np.full(len(d), 2.0 / len(d)))
    damping = 1e-6
    for _ in range(DUAL_STEPS):
        if cur.kkt <= tol or damping > 1e8:
            break
        Wf = cur.W[cur.free]
        H = (2.0 / (cur.s - 1.0)) * (Wf[:, None, :] * Wf[None, :, :]).sum(axis=2)
        H.flat[::len(H) + 1] += damping * max(float(H.diagonal().max()), tol)
        lam = cur.lam.copy()
        lam[cur.free] = np.fmax(lam[cur.free] + _solve_spd(H, -cur.grad[cur.free]), 0.0)
        if float(lam.sum()) > 1.0:
            new = at(lam)
            if new.phi < cur.phi or (new.phi <= cur.phi + cur.slack and new.kkt < cur.kkt):
                cur = new
                damping /= 10.0
                continue
        damping *= 10.0
    return cur.lam, cur.x


def _square_cmp(r: float, num: int, den: int) -> int:
    """The sign of ``r^2 - num / den``, exactly, for ``den > 0``."""
    p, q = r.as_integer_ratio()
    lhs, rhs = p * p * den, num * q * q
    return (lhs > rhs) - (lhs < rhs)


def _sqrt_up(num: int, den: int) -> float:
    """The least float ``r >= 0`` with ``r^2 >= num / den``."""
    r = math.sqrt(max(num, 0) / den)
    while _square_cmp(r, num, den) < 0:
        r = math.nextafter(r, math.inf)
    while r > 0.0 and _square_cmp(math.nextafter(r, 0.0), num, den) >= 0:
        r = math.nextafter(r, 0.0)
    return r


def _sqrt_down(num: int, den: int) -> float:
    """The greatest float ``r >= 0`` with ``r^2 <= num / den``, for ``num >= 0``."""
    r = math.sqrt(num / den)
    while _square_cmp(r, num, den) > 0:
        r = math.nextafter(r, 0.0)
    while _square_cmp(math.nextafter(r, math.inf), num, den) <= 0:
        r = math.nextafter(r, math.inf)
    return r


def _upper_bound(bi: BallIntersection, c: np.ndarray, lam: np.ndarray) -> float:
    """The least float whose square is at least ``phi(lam)``, checked exactly."""
    sums = _dual_sums(_dyadic_rows(bi, c), lam.tolist())
    s1 = sums.s - (1 << sums.a)  # s - 1, times 2**a
    num = sum(u * u for u in sums.v) - sums.S * s1
    return _sqrt_up(num, s1 << (sums.a + 2 * sums.b))


def _distance_down(x: np.ndarray, c: np.ndarray) -> float:
    """The greatest float at most ``|x - c|``, checked exactly."""
    ints, k = _dyadic(x.tolist() + c.tolist())
    n = len(x)
    return _sqrt_down(sum((u - w) ** 2 for u, w in zip(ints[:n], ints[n:])), 1 << (2 * k))


def _inside(bi: BallIntersection, x: np.ndarray) -> bool:
    """``x`` lies in the intersection, checked exactly."""
    return max(_dyadic_rows(bi, x).values) <= 0


def _member_near(bi: BallIntersection, x: np.ndarray, toward: np.ndarray) -> np.ndarray | None:
    """``x``, or ``x`` pulled toward ``toward`` by the first of ``2^-60, ..., 1`` exactly in C1."""
    if _inside(bi, x):
        return x
    last = x
    for k in range(60, -1, -1):
        y = x + 2.0 ** -k * (toward - x)
        if not np.array_equal(y, last):
            if _inside(bi, y):
                return y
            last = y
    return None


def solve_farthest(bi: BallIntersection, c, cfg: BisectionConfig | None = None) -> FarthestReport:
    """Maximum distance from ``c`` attained on the ball intersection.

    Brackets ``r_star`` with the dual (module docstring) and returns at once
    when the bracket is at most ``2 eps`` wide, with no bisection step and
    no inner iteration. Otherwise bisects the bracket, running one inclusion
    check per midpoint (the inclusion minimizer warm-starts from the
    previous step's witness); ``cfg.inner.max_iters`` caps the iterations of
    each step. An inner Undetermined verdict, including a step that ran out
    of budget, is surfaced as ``InnerUndetermined`` rather than silently
    resolved; callers may loosen ``eps`` or tighten the inner solver.

    Raises
    ------
    EmptyIntersection, PreconditionFailed, InnerUndetermined
    """
    if cfg is None:
        cfg = BisectionConfig()
    c = np.asarray(c, dtype=np.float64)
    witness, check = inclusion_checker(bi, c, cfg.inner)
    lam, x = _dual_multipliers(bi.centers - c, np.array(bi.rows.offsets))
    r_hi = _upper_bound(bi, c, lam)
    member = _member_near(bi, c + x, witness)
    if member is None:
        r_lo = bi.radius
    else:
        witness = member
        r_lo = _distance_down(member, c)
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
        multipliers=tuple(lam.tolist()),
    )
