"""Feasibility certificates for intersections of convex sub-level sets.

The merit function ``g~(x) = sum_k max(g_k(x), 0)`` is zero exactly on the
feasible set and positive elsewhere, so the intersection is nonempty if and
only if its global minimum is zero. ``build_g_tilde`` evaluates it in closed
form from the dense rows of ``ConstraintSet.rows``: the ball quadratics
``||x - c_i||^2 + o_i`` in one row reduction over ``x - c_i`` and the
affine constraints ``a_j.x + b_j`` in one mat-vec; any other convex ``g_k``
is added after them as its ``PositivePart``, under a ``Sum``. The
subgradient adds ``2 (x - c_i)``, ``a_j`` or the node's own subgradient for
each constraint with ``g_k > 0``; one at exactly zero adds the zero vector,
which lies in the subdifferential of ``max(g_k, 0)`` there. Grouping the
constraints by kind changes only the order of the floating-point additions,
not the function.

The checker decides from the Lagrange dual of the ``dual`` module first.
When every constraint is a ball or a halfspace, with at least one ball, one
certificate ascent (``dual.certify_empty``, the bound with no anchor row)
either finds weights that prove the intersection empty, checked in exact
arithmetic, or stops at its first primal point inside the set in floats and
checks that point exactly. Either outcome decides the instance. Only when the
ascent settles neither, or a constraint is of another kind, or none is a
ball, does the checker fall back to the merit function: it minimizes it with
a Polyak step targeting zero and, when that ends above ``tol``, refines the
minimum estimate to classify the instance.

Verdicts are three-valued. On the dual route both verdicts are proofs:
Feasible comes with a witness exactly in the set, Infeasible with multipliers
that ``InfeasibilityCertificate.verify`` accepts. On the merit route
Feasible comes with a point whose merit is at most ``tol`` and Infeasible
rests on a stalled subgradient run; both are evidence, not proof, so values
landing in the gray band ``[tol, 10 tol]`` come back Undetermined.
Tolerances are absolute; callers should pre-scale badly scaled problems.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .convexfn import Affine, BallQuad, ConvexFn, PositivePart, Sum
from .dual import InfeasibilityCertificate, certify_empty
from .errors import DimensionMismatch
from .geometry import Vector, as_point
from .minimize import SolverConfig, minimize, refine_minimum

DYKSTRA_SWEEPS = 1_000  # sweeps before a Dykstra projection gives up


@dataclass
class ProjectionResult:
    """Dykstra output: the projection point plus convergence evidence.

    ``last_shift`` is the root-sum-square change of the corrections over the
    final sweep. The point is ``y`` less the sum of the corrections, so that
    sweep moved it by at most ``sqrt(N)`` times ``last_shift`` for ``N``
    constraints.
    """

    point: np.ndarray
    converged: bool
    sweeps: int
    last_shift: float


class ConstraintRows(NamedTuple):
    """``ConstraintSet.rows``: ``||x - centers[i]||^2 + offsets[i]``,
    ``normals[j] . x + shifts[j]`` and the remaining nodes.

    ``centers`` has shape ``(m_b, n)`` and ``normals`` ``(m_h, n)``, both
    read-only float64; a kind with no constraint has an empty block, with no
    row and an empty list. ``order`` holds the constraint index of each row,
    balls first, then halfspaces, then the other nodes."""

    centers: np.ndarray
    offsets: list[float]
    normals: np.ndarray
    shifts: list[float]
    others: tuple[ConvexFn, ...]
    order: tuple[int, ...]


@dataclass(frozen=True)
class ConstraintSet:
    """Convex constraint functions g_k sharing one ambient dimension.

    Feasibility and the residuals accept any convex g_k; the merit function
    reads ``rows``, which groups the constraints by kind. The region
    operations (``project`` and the ray exits of ``application``) read
    ``region_rows``, which needs every g_k to be a ball ``BallQuad`` with
    offset ``-r^2 < 0`` or a halfspace ``Affine`` with a nonzero normal, as
    ``ball_constraint`` and ``halfspace_constraint`` build them. The order
    of the constraints is kept: ``residuals`` lists the values in it,
    ``project`` sweeps the leaves in it, and ``rows`` keeps it within each
    kind, so the merit function's sums depend only on that order.
    """

    constraints: tuple[ConvexFn, ...]
    dimension: int

    def __init__(self, constraints):
        constraints = tuple(constraints)
        if not constraints:
            raise ValueError("need at least one constraint")
        dim = constraints[0].dim
        for g in constraints:
            if g.dim != dim:
                raise DimensionMismatch("all constraints must share the ambient dimension")
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "dimension", dim)

    def residuals(self, x) -> np.ndarray:
        """The constraint values at ``x``, in constraint order.

        Raises ``DimensionMismatch`` unless ``x`` has shape ``(dimension,)``
        and ``ValueError`` if a coordinate is not finite, before evaluating.
        """
        x = as_point(x, self.dimension)
        return np.array([g.eval(x)[0] for g in self.constraints])

    def worst_residual(self, x) -> float:
        """Largest constraint value; <= 0 means the point is in the intersection."""
        return float(max(self.residuals(x)))

    @cached_property
    def rows(self) -> ConstraintRows:
        """The constraints grouped by kind, as dense rows.

        This is the one place that tells the kinds apart. Unlike
        ``region_rows`` it accepts every ``BallQuad`` and ``Affine`` (any
        offset, any normal): ball quadratics become the rows of ``centers``
        with their ``offsets``, affine functions the rows of ``normals`` with
        their ``shifts``, and any other node stays in ``others``. A kind with
        no constraint gets an empty block: ``(0, n)`` rows and an empty list.
        Constraint order is kept within each kind, and ``order`` maps each row
        back to its constraint.
        """
        gs = self.constraints
        kinds = ([], [], [])
        for i, g in enumerate(gs):
            kinds[0 if isinstance(g, BallQuad) else 1 if isinstance(g, Affine) else 2].append(i)
        balls, affines, others = kinds
        # np.array copies np.empty into one small array, where a reshape would keep a view and its base
        centers = np.array([gs[i].center for i in balls] or np.empty((0, self.dimension)))
        normals = np.array([gs[i].a for i in affines] or np.empty((0, self.dimension)))
        centers.setflags(write=False)
        normals.setflags(write=False)
        return ConstraintRows(centers, [gs[i].offset for i in balls], normals, [gs[i].b for i in affines],
                              tuple(gs[i] for i in others), tuple(balls + affines + others))

    @cached_property
    def region_rows(self) -> ConstraintRows:
        """``rows``, once checked to hold only region leaves: ``TypeError`` on a
        node in ``others``, ``ValueError`` on an offset >= 0 or a zero normal."""
        rows = self.rows
        if rows.others:
            raise TypeError("region operations need ball or halfspace leaves, "
                            f"got {type(rows.others[0]).__name__}")
        if any(o >= 0.0 for o in rows.offsets):
            raise ValueError("ball constraint needs a negative offset -r^2")
        if any(float(a @ a) == 0.0 for a in rows.normals):
            raise ValueError("halfspace normal must be nonzero")
        return rows

    def project(self, y) -> ProjectionResult:
        """Euclidean projection of ``y`` onto the intersection, by Dykstra's algorithm.

        Alternating projections onto the leaves of ``region_rows``, in
        constraint order, each with its own correction; the limit is the
        projection onto the intersection. The point is always ``y`` less the
        sum of the corrections, so the run stops at the first sweep that
        changes them by at most ``1e-11`` in root-sum-square (``last_shift``):
        a stop on the point's move alone can halt outside the set while the
        corrections still drift. After ``DYKSTRA_SWEEPS`` sweeps the result
        is flagged unconverged, as it is on an empty intersection (certify it
        nonempty via ``check_feasibility`` first). A ``y`` of another shape
        raises ``DimensionMismatch``, and a non-finite one ``ValueError``,
        before any sweep.
        """
        centers, offsets, normals, shifts, _, order = self.region_rows
        x = as_point(y, self.dimension)
        # a ball leaf is (centre, radius), a halfspace leaf (a, b, a.a)
        leaves = [(c, math.sqrt(-o)) for c, o in zip(centers, offsets)]
        leaves += [(a, b, a @ a) for a, b in zip(normals, shifts)]
        leaves = [leaves[row] for row in np.argsort(order)]  # in constraint order
        corrections = np.zeros((len(leaves), x.size))
        for sweep in range(1, DYKSTRA_SWEEPS + 1):
            previous = corrections.copy()
            for i, leaf in enumerate(leaves):
                z = x + corrections[i]
                if len(leaf) == 2:
                    centre, radius = leaf
                    d = z - centre
                    nd = float(np.linalg.norm(d))
                    x = z if nd <= radius else centre + (radius / nd) * d
                else:
                    a, b, a2 = leaf
                    excess = float(a @ z) + b
                    x = z if excess <= 0.0 else z - (excess / a2) * a
                corrections[i] = z - x
            shift = float(np.linalg.norm(corrections - previous))
            if converged := shift <= 1e-11:
                break
        return ProjectionResult(point=x, converged=converged, sweeps=sweep, last_shift=shift)


class FeasibilityVerdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDETERMINED = "undetermined"


@dataclass
class FeasibilityReport:
    """Verdict plus the evidence backing it.

    ``witness`` is a feasible point when the verdict is Feasible, else None;
    when the dual decided (``iters == 0``) it lies in the set exactly: each
    row's sign is read in floats where a proven error bound settles it, and
    otherwise in integers.
    ``residuals`` are the constraint values at the reported point: the
    witness, the certificate's primal point, or the best merit iterate.
    ``g_tilde_min`` is the merit at that point, an upper bound on the true
    minimum. ``certificate`` is the proof of an Infeasible verdict when one
    was found and verified; an Infeasible verdict without one rests on the
    refined merit value, which is evidence, not proof.
    """

    verdict: FeasibilityVerdict
    witness: Vector | None
    residuals: list[float]
    g_tilde_min: float
    iters: int
    certificate: InfeasibilityCertificate | None = None


class _Merit(ConvexFn):
    """``sum_k max(g_k, 0)`` over the ball and halfspace rows, in closed form, reading each kind once.

    A constraint adds to the value and the subgradient only where
    ``g_k > 0``, so at a kink ``g_k = 0`` it adds the zero vector, as
    ``PositivePart`` does.
    """

    __slots__ = ("centers", "offsets", "ones", "normals", "shifts", "zero")

    def __init__(self, cs: ConstraintSet):
        super().__init__(cs.dimension)
        self.centers, self.offsets, self.normals, self.shifts, *_ = cs.rows
        self.ones = np.ones(cs.dimension)
        zero = np.zeros(cs.dimension)
        zero.setflags(write=False)
        self.zero = zero

    def eval(self, x):
        value = 0.0
        grad = self.zero
        if self.offsets:
            D = x - self.centers
            # row sums by a matrix product: at n = 2 it costs less than np.einsum
            w = []
            for s, off in zip(((D * D) @ self.ones).tolist(), self.offsets):
                v = s + off
                if v > 0.0:
                    value += v
                    w.append(2.0)
                else:
                    w.append(0.0)
            grad = np.dot(w, D)
        if self.shifts:
            w = []
            for s, b in zip((self.normals @ x).tolist(), self.shifts):
                v = s + b
                if v > 0.0:
                    value += v
                    w.append(1.0)
                else:
                    w.append(0.0)
            grad = grad + np.dot(w, self.normals)
        return value, grad


def build_g_tilde(cs: ConstraintSet) -> ConvexFn:
    """Merit function ``sum_k max(g_k, 0)``: zero exactly on the feasible set.

    ``_Merit`` reads the ball and halfspace rows; each other node comes in as
    its ``PositivePart``, added after them under a ``Sum``.
    """
    merit, others = _Merit(cs), cs.rows.others
    return Sum([merit, *map(PositivePart, others)]) if others else merit


def default_start(cs: ConstraintSet) -> np.ndarray:
    """Centroid of ball centers when every constraint is a ball, else zero."""
    centers, _, _, shifts, others, _ = cs.rows
    if not shifts and not others:
        return np.mean(centers, axis=0)
    return np.zeros(cs.dimension)


def check_feasibility(cs: ConstraintSet, x0=None, cfg: SolverConfig = SolverConfig()) -> FeasibilityReport:
    """Certify the intersection of the sub-level sets nonempty or empty.

    First, when ``dual.certify_empty`` applies (only balls and halfspaces, at
    least one ball), its one ascent decides: weights that prove the set
    empty, checked exactly, make it Infeasible with that certificate, and a
    primal point exactly in the set makes it Feasible with that point as
    witness. Otherwise a Polyak-step minimization of the merit function with
    target zero runs from ``x0`` (``default_start`` when None); a merit of at
    most ``tol`` makes the instance Feasible with the iterate as witness.
    Failing that, the minimum estimate is refined (the merit is bounded below
    by zero, so the refinement brackets are certified) and the instance is
    classified Infeasible when the refined value clears ``10 tol``,
    Undetermined in between or when the refinement could not close its
    bracket. ``cfg``, ``SolverConfig()`` by default, gives that budget and
    ``tol``. ``iters`` counts subgradient iterations only, so it is 0 when
    the dual decided; the ascent reports its steps in the certificate.
    Raises ``DimensionMismatch`` unless ``x0`` has shape ``(cs.dimension,)``
    and ``ValueError`` if a coordinate of it is not finite, before either
    route runs, so both refuse the same start.
    """
    if x0 is not None:
        x0 = as_point(x0, cs.dimension, "x0")

    g_tilde = build_g_tilde(cs)
    decided = certify_empty(cs)
    certificate = None
    if decided is not None:
        x, certificate = decided
        iters = 0
        f = float(g_tilde.eval(x)[0])
        verdict = FeasibilityVerdict.FEASIBLE if certificate is None else FeasibilityVerdict.INFEASIBLE
    else:
        best = minimize(g_tilde, default_start(cs) if x0 is None else x0, cfg)
        iters = best.iters
        refined_ok = True
        if best.f_best > cfg.tol:
            ref = refine_minimum(g_tilde, best.x_best, lower_bound=0.0, value_gap=cfg.tol,
                                 max_iters=cfg.max_iters - best.iters)
            iters += ref.iters
            refined_ok = ref.converged
            if ref.f_best < best.f_best:
                best = ref
        x, f = best.x_best, float(best.f_best)
        if f > 10.0 * cfg.tol and refined_ok:
            verdict = FeasibilityVerdict.INFEASIBLE
        elif f <= cfg.tol:
            verdict = FeasibilityVerdict.FEASIBLE
        else:
            verdict = FeasibilityVerdict.UNDETERMINED

    witness = x if verdict is FeasibilityVerdict.FEASIBLE else None
    return FeasibilityReport(verdict=verdict, witness=witness, residuals=cs.residuals(x).tolist(),
                             g_tilde_min=f, iters=iters, certificate=certificate)
