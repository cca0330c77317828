"""Feasibility certificates for intersections of convex sub-level sets.

The merit function ``g~(x) = sum_k max(g_k(x), 0)`` is zero exactly on the
feasible set and positive elsewhere, so the intersection is nonempty if and
only if its global minimum is zero. ``build_g_tilde`` evaluates it in closed
form from the dense rows of ``ConstraintSet.rows``: the ball quadratics
``||x - c_i||^2 + o_i`` in one row reduction over ``x - c_i``, the affine
constraints ``a_j.x + b_j`` in one mat-vec, and any other convex ``g_k``
through its own ``eval``. The subgradient adds ``2 (x - c_i)``, ``a_j`` or
the node's own subgradient for each constraint with ``g_k > 0``; one at
exactly zero adds the zero vector, which lies in the subdifferential of
``max(g_k, 0)`` there. Grouping the constraints by kind changes only the
order of the floating-point additions, not the function.

The checker minimizes the merit with a Polyak step targeting zero (fast
certificate for the feasible case). When that stalls above zero, it first
tries to prove the intersection empty with a Lagrange dual certificate, and
only when none is found refines the minimum estimate to classify the
instance.

The certificate covers ball rows ``||x - c_i||^2 + o_i`` and affine rows
``a_j.x + b_j``. For multipliers ``lambda`` on the simplex over the balls and
``mu >= 0`` over the affine rows, the Lagrangian
``L(x) = sum lambda_i (||x - c_i||^2 + o_i) + sum mu_j (a_j.x + b_j)`` is
``||x||^2`` plus an affine function, so its minimum over all ``x`` is in
closed form: at ``x = sum lambda_i c_i - (sum mu_j a_j) / 2`` it is the dual
value ``D = sum lambda_i (|c_i|^2 + o_i) + sum mu_j b_j - |x|^2``, a concave
quadratic in the multipliers. At a feasible point ``x`` every term of ``L``
is at most zero, so ``D <= L(x) <= 0``; hence ``D > 0`` proves the
intersection empty (the theorem of alternatives). A projected
gradient ascent looks for such multipliers; the gradient of ``D`` is the
constraint values at ``x``, ``g_i(x) - |x|^2`` and ``a_j.x + b_j``. A
candidate counts only once ``sum lambda_i (|c_i|^2 + o_i) + sum mu_j b_j -
|sum lambda_i c_i - sum mu_j a_j / 2|^2 / s > 0``, with ``s = sum lambda_i``,
holds in exact arithmetic over the float inputs and multipliers (integers
over a common power of two, ``_dual_sums``), so floating-point rounding
cannot produce a false proof. A node of any other
kind, or a system without a ball row, gets no certificate. Over balls alone
the best ``D`` is ``min_x max_i g_i(x)``, attained at the primal point ``x``
of the optimal multipliers, the deepest point of the intersection: the same
ascent gives ``bound_max_distance`` its deep point.

Verdicts are three-valued. Feasible comes with a witness and a certified
Infeasible with its multipliers. Without a certificate, an Infeasible verdict
rests on a stalled subgradient run, which is evidence, not proof, so values
landing in the gray band ``[tol, 10 tol]`` come back Undetermined.
Tolerances are absolute; callers should pre-scale badly scaled problems.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .convexfn import Affine, BallQuad, ConvexFn
from .errors import DimensionMismatch
from .geometry import Vector
from .minimize import MinimizeResult, PolyakWithTarget, SolverConfig, minimize, refine_minimum

log = logging.getLogger("hullscope.feasibility")

# steps of the dual ascent before the certificate attempt gives up
CERTIFICATE_STEPS = 1_000
DYKSTRA_SWEEPS = 1_000  # sweeps before a Dykstra projection gives up


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


class ConstraintRows(NamedTuple):
    """``ConstraintSet.rows``: ``||x - centers[i]||^2 + offsets[i]``,
    ``normals[j] . x + shifts[j]`` and the remaining nodes."""

    centers: np.ndarray | None
    offsets: list[float] | None
    normals: np.ndarray | None
    shifts: list[float] | None
    others: tuple[ConvexFn, ...]


@dataclass(frozen=True)
class ConstraintSet:
    """Convex constraint functions g_k sharing one ambient dimension.

    Feasibility and the residuals accept any convex g_k; the merit function
    reads ``rows``, which groups the constraints by kind. The region
    operations (``project`` and the sampling of ``application``) read
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

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(f"point has shape {x.shape}, "
                                    f"constraints have dimension {self.dimension}")
        return x

    def residuals(self, x) -> np.ndarray:
        x = self._point(x)
        return np.array([g.eval(x)[0] for g in self.constraints])

    def worst_residual(self, x) -> float:
        """Largest constraint value; <= 0 means the point is in the intersection."""
        return float(max(self.residuals(x)))

    @cached_property
    def rows(self) -> ConstraintRows:
        """The constraints grouped by kind, as dense rows.

        Unlike ``region_rows`` this accepts every ``BallQuad`` and ``Affine``
        (any offset, any normal): ball quadratics become the rows of
        ``centers`` with their ``offsets``, affine functions the rows of
        ``normals`` with their ``shifts``, and any other node stays in
        ``others``. A kind with no constraint gets ``None``. Constraint order
        is kept within each kind.
        """
        balls = [g for g in self.constraints if isinstance(g, BallQuad)]
        affines = [g for g in self.constraints if isinstance(g, Affine)]
        others = tuple(g for g in self.constraints if not isinstance(g, (BallQuad, Affine)))
        centers = offsets = normals = shifts = None
        if balls:
            centers = np.array([g.center for g in balls])
            centers.setflags(write=False)
            offsets = [g.offset for g in balls]
        if affines:
            normals = np.array([g.a for g in affines])
            normals.setflags(write=False)
            shifts = [g.b for g in affines]
        return ConstraintRows(centers, offsets, normals, shifts, others)

    @cached_property
    def region_rows(self) -> ConstraintRows:
        """``rows``, once checked to hold only region leaves: ``TypeError`` on a
        node in ``others``, ``ValueError`` on an offset >= 0 or a zero normal."""
        rows = self.rows
        if rows.others:
            raise TypeError("region operations need ball or halfspace leaves, "
                            f"got {type(rows.others[0]).__name__}")
        if rows.offsets is not None and any(o >= 0.0 for o in rows.offsets):
            raise ValueError("ball constraint needs a negative offset -r^2")
        if rows.normals is not None and any(float(a @ a) == 0.0 for a in rows.normals):
            raise ValueError("halfspace normal must be nonzero")
        return rows

    def project(self, y) -> ProjectionResult:
        """Euclidean projection of ``y`` onto the intersection, by Dykstra's algorithm.

        Alternating projections with correction terms; the limit is the
        projection onto the intersection. Every call stops at the first sweep
        that moves the point by at most ``1e-11``, or after ``DYKSTRA_SWEEPS``
        sweeps with the result flagged, as it is on an empty intersection
        (certify it nonempty via ``check_feasibility`` first). A non-finite
        ``y`` raises ``ValueError`` before any sweep.
        """
        self.region_rows  # refuse a non-region constraint before any sweep
        x = np.array(self._point(y))
        if not np.isfinite(x).all():
            raise ValueError(f"cannot project a non-finite point {x.tolist()}")
        # built per call, not cached: a set held for many calls keeps only its rows
        projectors = [_projector(g) for g in self.constraints]
        corrections = [np.zeros_like(x) for _ in projectors]
        converged = False
        for sweep in range(1, DYKSTRA_SWEEPS + 1):
            x_prev = x
            for i, proj in enumerate(projectors):
                z = x + corrections[i]
                x = proj(z)
                corrections[i] = z - x
            shift = float(np.linalg.norm(x - x_prev))
            if shift <= 1e-11:
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


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Lagrange multipliers whose dual value proves the intersection empty.

    ``weights`` holds one multiplier per constraint, in constraint order:
    ``lambda_i`` for a ball quadratic, ``mu_j`` for an affine constraint.
    ``bound`` is the dual value ``D`` in floating point and ``steps`` the
    number of ascent steps that found the multipliers. The proof rests on
    ``weights`` alone: ``verify`` re-checks it exactly.
    """

    weights: tuple[float, ...]
    bound: float
    steps: int

    def verify(self, cs: ConstraintSet) -> bool:
        """True when ``weights`` prove ``cs`` empty, checked in exact rational arithmetic."""
        return _proves_empty(cs, self.weights)


@dataclass
class FeasibilityReport:
    """Verdict plus the evidence backing it.

    ``witness`` is a feasible point when the verdict is Feasible, else None.
    ``residuals`` are constraint values at the best iterate found and
    ``g_tilde_min`` is the best (smallest) merit value observed, an upper
    bound on the true minimum. ``certificate`` is the proof of an Infeasible
    verdict when one was found and verified; an Infeasible verdict without
    one rests on the refined merit value, which is evidence, not proof.
    """

    verdict: FeasibilityVerdict
    witness: Vector | None
    residuals: list[float]
    g_tilde_min: float
    iters: int
    certificate: InfeasibilityCertificate | None = None


class _Merit(ConvexFn):
    """``sum_k max(g_k, 0)`` in closed form, reading each kind of row once.

    A constraint adds to the value and the subgradient only where
    ``g_k > 0``, so at a kink ``g_k = 0`` it adds the zero vector, as
    ``PositivePart`` does.
    """

    __slots__ = ("centers", "offsets", "ones", "normals", "shifts", "others", "zero")

    def __init__(self, cs: ConstraintSet):
        super().__init__(cs.dimension)
        self.centers, self.offsets, self.normals, self.shifts, self.others = cs.rows
        self.ones = np.ones(cs.dimension)
        zero = np.zeros(cs.dimension)
        zero.setflags(write=False)
        self.zero = zero

    def eval(self, x):
        value = 0.0
        grad = self.zero
        if self.centers is not None:
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
        if self.normals is not None:
            w = []
            for s, b in zip((self.normals @ x).tolist(), self.shifts):
                v = s + b
                if v > 0.0:
                    value += v
                    w.append(1.0)
                else:
                    w.append(0.0)
            grad = grad + np.dot(w, self.normals)
        for g in self.others:
            v, s = g.eval(x)
            if v > 0.0:
                value += v
                grad = grad + s
        return value, grad


def build_g_tilde(cs: ConstraintSet) -> ConvexFn:
    """Merit function ``sum_k max(g_k, 0)``: zero exactly on the feasible set."""
    return _Merit(cs)


class DyadicRows(NamedTuple):
    """The ball and affine rows of a ``ConstraintSet`` about an origin ``z``, in integers.

    Every float is a dyadic rational, so one power of two turns all of them
    into integers with no rounding: ``centers[i]`` is ``c_i - z`` and
    ``half_normals[j]`` is ``a_j / 2``, both times ``2**b``; ``values`` holds
    the constraint values at ``z`` times ``2**(2 b)``, ball rows first and
    then affine rows, each kind in constraint order.
    """

    centers: list[list[int]]
    half_normals: list[list[int]]
    values: list[int]
    b: int


class DualSums(NamedTuple):
    """The Lagrangian sums of ``DyadicRows`` under weights, in integers.

    ``s = sum lambda_i`` times ``2**a``, ``S = sum lambda_i q_i + sum mu_j h_j``
    times ``2**(a + 2 b)`` and ``v = sum lambda_i c_i - sum mu_j a_j / 2``
    times ``2**(a + b)``, where ``q_i`` and ``h_j`` are the row values at the
    origin and ``c_i`` the centres about it.
    """

    s: int
    S: int
    v: list[int]
    a: int
    b: int


def _ratios(values) -> list[tuple[int, int]]:
    return [v.as_integer_ratio() for v in values]


def _bits(ratios) -> int:
    """The least ``k >= 0`` that makes every ratio times ``2**k`` an integer."""
    return max((q.bit_length() for _, q in ratios), default=1) - 1


def _at(ratios, k: int) -> list[int]:
    """Each ratio times ``2**k``; ``k`` is at least ``_bits(ratios)``."""
    return [p << (k + 1 - q.bit_length()) for p, q in ratios]


def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Integers ``N_i`` and the least ``k >= 0`` with ``values[i] == N_i / 2**k``."""
    ratios = _ratios(values)
    k = _bits(ratios)
    return _at(ratios, k), k


def _dyadic_rows(cs: ConstraintSet, origin=None) -> DyadicRows | None:
    """The rows of ``cs`` about ``origin`` (default 0) in integers; None if a node is neither kind.

    ``values`` are exact, so ``origin`` lies in the intersection exactly when
    none of them is positive.
    """
    C, offsets, A, shifts, others = cs.rows
    if others:
        return None
    n = cs.dimension
    z = _ratios([0.0] * n if origin is None else [float(u) for u in origin])
    c = _ratios([] if C is None else C.ravel().tolist())
    a = _ratios([] if A is None else A.ravel().tolist())
    consts = _ratios((offsets or []) + (shifts or []))
    # one bit beyond the coordinates keeps a_j / 2 integral, and 2 b covers
    # the offsets and shifts, which sit on the squared scale
    b = max(_bits(z + c + a) + 1, (_bits(consts) + 1) // 2)
    Z = _at(z, b)
    consts = _at(consts, 2 * b)
    centers, half_normals, values = [], [], []
    for i in range(len(c) // n):
        row = [u - w for u, w in zip(_at(c[i * n:(i + 1) * n], b), Z)]
        centers.append(row)
        values.append(sum(u * u for u in row) + consts[i])
    for j in range(len(a) // n):
        row = _at(a[j * n:(j + 1) * n], b)
        half_normals.append([u >> 1 for u in row])
        values.append(sum(u * w for u, w in zip(row, Z)) + consts[len(centers) + j])
    return DyadicRows(centers, half_normals, values, b)


def _dual_sums(rows: DyadicRows, weights) -> DualSums | None:
    """``s``, ``S`` and ``v`` of ``rows`` under ``weights`` (ball rows, then affine rows).

    None unless there is one finite, non-negative weight per row.
    """
    weights = [float(w) for w in weights]
    if len(weights) != len(rows.values) or not all(w >= 0.0 and math.isfinite(w) for w in weights):
        return None
    ratios = _ratios(weights)
    a = _bits(ratios)
    W = _at(ratios, a)
    m = len(rows.centers)
    S = sum(w * q for w, q in zip(W, rows.values))
    v = [0] * len((rows.centers or rows.half_normals)[0])
    for w, row in zip(W, rows.centers):
        if w:
            v = [vk + w * u for vk, u in zip(v, row)]
    for w, row in zip(W[m:], rows.half_normals):
        if w:
            v = [vk - w * u for vk, u in zip(v, row)]
    return DualSums(sum(W[:m]), S, v, a, rows.b)


def _proves_empty(cs: ConstraintSet, weights) -> bool:
    """Exact check of the dual bound ``S - |v|^2 / s > 0`` over the float inputs.

    With ``s = sum lambda_i``, ``S = sum lambda_i (|c_i|^2 + o_i) + sum mu_j b_j``
    and ``v = sum lambda_i c_i - sum mu_j a_j / 2``, all computed by
    ``_dual_sums`` as integers over powers of two, so no rounding enters the
    verdict. Rows of zero weight take no part, whatever their kind.
    """
    if len(weights) != len(cs.constraints):
        return False
    used = [(g, float(w)) for g, w in zip(cs.constraints, weights) if not float(w) == 0.0]
    if not used:
        return False
    rows = _dyadic_rows(ConstraintSet([g for g, _ in used]))
    if rows is None:
        return False
    sums = _dual_sums(rows, [w for g, w in used if isinstance(g, BallQuad)]
                     + [w for g, w in used if isinstance(g, Affine)])
    return (sums is not None and sums.s > 0
            and sums.S * sums.s > sum(u * u for u in sums.v))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto ``{lambda >= 0, sum lambda = 1}``, by sorting.

    The shift ``theta`` comes from the longest prefix of the sorted entries
    that stays positive after it. The rows are few, so a Python sort serves.
    ``np.sort`` and ``np.maximum``, unlike ``np.fmax``, each map their SIMD
    kernels in on first use, which raised the peak RSS of a short feasibility
    stream by 0.15-0.25 MB.
    """
    total = theta = 0.0
    for k, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        total += u
        if u * k > total - 1.0:
            theta = (total - 1.0) / k
    return np.fmax(v - theta, 0.0)


def _dual_ascent(cs: ConstraintSet):
    """Ascend the Lagrange dual of the rows of ``cs``: one ball at least, no other node.

    Projected gradient from uniform ``lambda`` and ``mu = 0``, keeping
    ``lambda`` in the simplex and ``mu >= 0``, with the step
    ``1 / (2 ||M||_F^2)``, ``M = [C; -A/2]`` over the rows centred at the mean
    ball centre. That step is at most the inverse Lipschitz constant
    ``1 / (2 ||M||_2^2)`` of the dual gradient, so every step raises ``D``
    until the multipliers are optimal, and it needs no SVD. Stops at the
    first ``D > 0``, at the first step that does not raise ``D`` or after
    ``CERTIFICATE_STEPS`` steps; returns ``(lambda, mu, x, D, steps)``
    with ``x`` the primal point, the minimizer of the Lagrangian.
    """
    C, offsets, A, shifts, _ = cs.rows
    # D does not change when the rows are translated together (b_j picks up
    # a_j.z), but ||M||_F does: centring the balls at their mean lets the
    # step follow the spread of the centres, not their distance from 0
    z = C.mean(axis=0)
    C = C - z
    q = (C * C).sum(axis=1) + offsets
    lam = np.full(len(q), 1.0 / len(q))
    fro2 = float((C * C).sum())
    if A is None:
        A = np.zeros((0, cs.dimension))
        b = np.zeros(0)
    else:
        b = np.array(shifts) + A @ z
        fro2 += 0.25 * float((A * A).sum())
    mu = np.zeros(len(b))
    # one centre and no normal leaves D linear: any step ascends
    t = 0.5 / fro2 if fro2 > 0.0 else 1.0
    D_prev = -math.inf
    for step in range(CERTIFICATE_STEPS + 1):
        x = lam @ C - 0.5 * (mu @ A)
        D = float(lam @ q + mu @ b - x @ x)
        if D > 0.0 or D <= D_prev or step == CERTIFICATE_STEPS:
            break
        D_prev = D
        # the gradient is the constraint values at x: g_i(x) - |x|^2 and h_j(x)
        lam = _project_simplex(lam + t * (q - 2.0 * (C @ x)))
        mu = np.fmax(mu + t * (b + A @ x), 0.0)
    return lam, mu, x + z, D, step


def _dual_certificate(cs: ConstraintSet) -> InfeasibilityCertificate | None:
    """The ascent's multipliers when they prove ``cs`` empty in the exact check, else None."""
    if cs.rows.others or cs.rows.centers is None:
        return None
    lam, mu, _, D, steps = _dual_ascent(cs)
    lam_it, mu_it = iter(lam.tolist()), iter(mu.tolist())
    weights = [next(lam_it) if isinstance(g, BallQuad) else next(mu_it) for g in cs.constraints]
    if not (D > 0.0 and _proves_empty(cs, weights)):
        return None
    return InfeasibilityCertificate(weights=tuple(weights), bound=D, steps=steps)


def default_start(cs: ConstraintSet) -> np.ndarray:
    """Centroid of ball centers when every constraint is a ball, else zero."""
    centers, _, normals, _, others = cs.rows
    if normals is None and not others:
        return np.mean(centers, axis=0)
    return np.zeros(cs.dimension)


def check_feasibility(cs: ConstraintSet, x0=None, cfg: SolverConfig | None = None) -> FeasibilityReport:
    """Certify the intersection of the sub-level sets nonempty or empty.

    Runs a Polyak-step minimization of the merit function with target zero;
    if the merit drops to ``tol`` the instance is Feasible with the iterate
    as witness. Otherwise a verified dual certificate makes it Infeasible
    at once. Failing that, the minimum estimate is refined (the merit is
    bounded below by zero, so the refinement brackets are certified) and the
    instance is classified Infeasible when the refined value clears
    ``10 tol``, Undetermined in between or when the refinement could not
    close its bracket. ``iters`` counts subgradient iterations only; the
    dual ascent reports its steps in the certificate.
    """
    if cfg is None:
        cfg = SolverConfig()
    start = default_start(cs) if x0 is None else np.asarray(x0, dtype=np.float64)
    if start.shape != (cs.dimension,):
        raise DimensionMismatch(f"x0 has shape {start.shape}, constraints have dimension {cs.dimension}")

    g_tilde = build_g_tilde(cs)
    first = minimize(g_tilde, start, replace(cfg, step_rule=PolyakWithTarget(0.0)))
    best: MinimizeResult = first
    iters = first.iters
    refined_ok = True
    certificate = None

    if first.f_best > cfg.tol:
        certificate = _dual_certificate(cs)
        if certificate is None:
            ref = refine_minimum(g_tilde, first.x_best, lower_bound=0.0, value_gap=cfg.tol,
                                 max_iters=cfg.max_iters - first.iters)
            iters += ref.iters
            refined_ok = ref.converged
            if ref.f_best < best.f_best:
                best = ref

    x_best = best.x_best
    f_best = best.f_best
    residuals = cs.residuals(x_best).tolist()

    if f_best <= cfg.tol:
        verdict = FeasibilityVerdict.FEASIBLE
        witness = x_best
    elif certificate is not None or (f_best > 10.0 * cfg.tol and refined_ok):
        verdict = FeasibilityVerdict.INFEASIBLE
        witness = None
    else:
        verdict = FeasibilityVerdict.UNDETERMINED
        witness = None

    return FeasibilityReport(verdict=verdict, witness=witness, residuals=residuals,
                             g_tilde_min=float(f_best), iters=iters, certificate=certificate)
