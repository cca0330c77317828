"""Feasibility certificates for intersections of convex sub-level sets.

The merit function is the sum of positive parts of the constraint functions:
it is zero exactly on the feasible set and positive elsewhere, so the
intersection is nonempty if and only if the global minimum is zero. The
checker minimizes it with a Polyak step targeting zero (fast certificate for
the feasible case) and, when that stalls above zero, refines the minimum
estimate to classify the instance.

Verdicts are three-valued: a stalled subgradient run is evidence, not proof,
so values landing in the gray band ``[tol, 10 tol]`` come back Undetermined.
Tolerances are absolute; callers should pre-scale badly scaled problems.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .convexfn import Affine, BallQuad, ConvexFn, PositivePart, Sum
from .errors import DimensionMismatch
from .geometry import Vector
from .minimize import MinimizeResult, PolyakWithTarget, SolverConfig, minimize, refine_minimum

log = logging.getLogger("hullscope.feasibility")


@dataclass
class ProjectionResult:
    """Dykstra output: the projection point plus convergence evidence.

    ``last_shift`` is the point displacement over the final sweep; it bounds
    how much another sweep could still move the result.
    """

    point: np.ndarray
    converged: bool
    sweeps: int
    last_shift: float


def _projector(g: BallQuad | Affine):
    """Closed-form Euclidean projection onto one ball or halfspace leaf."""
    if isinstance(g, BallQuad):
        center, radius = g.center, math.sqrt(-g.offset)

        def onto_ball(u):
            d = u - center
            nd = float(np.linalg.norm(d))
            if nd <= radius:
                return u
            return center + (radius / nd) * d

        return onto_ball

    a, b, na2 = g.a, g.b, float(g.a @ g.a)

    def onto_halfspace(u):
        excess = float(a @ u) + b
        if excess <= 0.0:
            return u
        return u - (excess / na2) * a

    return onto_halfspace


@dataclass(frozen=True)
class ConstraintSet:
    """Convex constraint functions g_k sharing one ambient dimension.

    Feasibility accepts any convex g_k. The region operations
    (``worst_residual``, ``balls``, ``halfspaces``, ``project``) need every
    g_k to be a leaf: a ball ``BallQuad`` with offset ``-r^2 < 0`` or a
    halfspace ``Affine`` with a nonzero normal, as ``ball_constraint`` and
    ``halfspace_constraint`` build them. They raise ``TypeError`` on any
    other node and ``ValueError`` on a degenerate leaf. The order of the
    constraints is kept everywhere: merit sums and ``Max`` ties depend on it.
    """

    constraints: tuple[ConvexFn, ...]
    dimension: int

    def __init__(self, constraints, dimension: int | None = None):
        constraints = tuple(constraints)
        if not constraints:
            raise ValueError("need at least one constraint")
        dim = constraints[0].dim if dimension is None else int(dimension)
        for g in constraints:
            if g.dim != dim:
                raise DimensionMismatch("all constraints must share the ambient dimension")
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "dimension", dim)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def residuals(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.array([g.eval(x)[0] for g in self.constraints])

    def worst_residual(self, x) -> float:
        """Largest constraint value; <= 0 means the point is in the region."""
        x = np.asarray(x, dtype=np.float64)
        return max(g.eval(x)[0] for g in self._leaves)

    @cached_property
    def _leaves(self) -> tuple[ConvexFn, ...]:
        """The constraints, once checked to be region leaves."""
        for g in self.constraints:
            if isinstance(g, BallQuad):
                if not g.offset < 0.0:
                    raise ValueError("ball constraint needs a negative offset -r^2")
            elif isinstance(g, Affine):
                if float(g.a @ g.a) == 0.0:
                    raise ValueError("halfspace normal must be nonzero")
            else:
                raise TypeError(f"region operations need ball or halfspace leaves, got {type(g).__name__}")
        return self.constraints

    @cached_property
    def balls(self) -> tuple[BallQuad, ...]:
        """Ball leaves ``||x - c||^2 - r^2``, in constraint order."""
        return tuple(g for g in self._leaves if isinstance(g, BallQuad))

    @cached_property
    def halfspaces(self) -> tuple[Affine, ...]:
        """Halfspace leaves ``a.x + b``, i.e. the sets ``a.x <= -b``, in constraint order."""
        return tuple(g for g in self._leaves if isinstance(g, Affine))

    @cached_property
    def _projectors(self) -> tuple:
        return tuple(_projector(g) for g in self._leaves)

    def project(self, y, iters: int = 1000, tol: float = 1e-11) -> ProjectionResult:
        """Euclidean projection of ``y`` onto the intersection, by Dykstra's algorithm.

        Alternating projections with correction terms; the limit is the
        projection onto the intersection. The caller is responsible for the
        intersection being nonempty (certify via ``check_feasibility``
        first); on an empty intersection the iteration cannot converge and
        the result comes back flagged.
        """
        projectors = self._projectors
        x = np.array(y, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise DimensionMismatch("point and constraints must share the ambient dimension")
        corrections = [np.zeros_like(x) for _ in projectors]
        converged = False
        sweep = 0
        shift = math.inf
        for sweep in range(1, iters + 1):
            x_prev = x
            for i, proj in enumerate(projectors):
                z = x + corrections[i]
                x = proj(z)
                corrections[i] = z - x
            shift = float(np.linalg.norm(x - x_prev))
            if shift <= tol:
                converged = True
                break
        if not converged:
            # a tiny last shift means the point is essentially settled; only a
            # large one deserves attention
            level = logging.WARNING if shift > 1e-6 else logging.DEBUG
            log.log(level, "Dykstra projection stopped after %d sweeps (last shift %.3e)",
                    sweep, shift)
        return ProjectionResult(point=x, converged=converged, sweeps=sweep, last_shift=shift)


class FeasibilityVerdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDETERMINED = "undetermined"


@dataclass
class FeasibilityReport:
    """Verdict plus the evidence backing it.

    ``witness`` is a feasible point when the verdict is Feasible, else None.
    ``residuals`` are constraint values at the best iterate found and
    ``g_tilde_min`` is the best (smallest) merit value observed -- an upper
    bound on the true minimum, reported as the infeasibility certificate
    candidate when positive.
    """

    verdict: FeasibilityVerdict
    witness: Vector | None
    residuals: list[float]
    g_tilde_min: float
    iters: int


def build_g_tilde(cs: ConstraintSet) -> ConvexFn:
    """Merit function: sum of positive parts of the constraints."""
    return Sum([PositivePart(g) for g in cs.constraints])


def default_start(cs: ConstraintSet) -> np.ndarray:
    """Centroid of ball centers when every constraint is a ball, else zero."""
    if all(isinstance(g, BallQuad) for g in cs.constraints):
        return np.mean([g.center for g in cs.constraints], axis=0)
    return np.zeros(cs.dimension)


def check_feasibility(cs: ConstraintSet, x0=None, cfg: SolverConfig | None = None) -> FeasibilityReport:
    """Certify the intersection of the sub-level sets nonempty or empty.

    Runs a Polyak-step minimization of the merit function with target zero;
    if the merit drops to ``tol`` the instance is Feasible with the iterate
    as witness. Otherwise the minimum estimate is refined (the merit is
    bounded below by zero, so the refinement brackets are certified) and the
    instance is classified Infeasible when the refined value clears
    ``10 tol``, Undetermined in between or when the refinement could not
    close its bracket.
    """
    if cfg is None:
        cfg = SolverConfig()
    start = default_start(cs) if x0 is None else np.asarray(x0, dtype=np.float64)
    if start.shape[0] != cs.dimension:
        raise DimensionMismatch(f"x0 has dimension {start.shape[0]}, constraints have {cs.dimension}")

    g_tilde = build_g_tilde(cs)
    first = minimize(g_tilde, start, replace(cfg, step_rule=PolyakWithTarget(0.0)))
    best: MinimizeResult = first
    iters = first.iters
    refined_ok = True

    if first.f_best > cfg.tol:
        ref = refine_minimum(g_tilde, first.x_best, lower_bound=0.0, value_gap=cfg.tol,
                             max_iters=cfg.max_iters - first.iters)
        iters += ref.iters
        refined_ok = ref.converged
        if ref.f_best < best.f_best:
            best = ref

    x_best = best.x_best
    f_best = best.f_best
    residuals = [float(g.eval(x_best)[0]) for g in cs.constraints]

    if f_best <= cfg.tol:
        verdict = FeasibilityVerdict.FEASIBLE
        witness = x_best
    elif f_best > 10.0 * cfg.tol and refined_ok:
        verdict = FeasibilityVerdict.INFEASIBLE
        witness = None
    else:
        verdict = FeasibilityVerdict.UNDETERMINED
        witness = None

    return FeasibilityReport(verdict=verdict, witness=witness, residuals=residuals,
                             g_tilde_min=float(f_best), iters=iters)
