"""Brute-force ground truth and randomized falsification harnesses.

Grid scans give independent verdicts for small dimensions (the solver is
never consulted); the ``check_lemma_*`` functions hammer the geometric facts
the inclusion test rests on with seeded random trials. These are
falsification harnesses, not verified mathematics: a pass means no
counterexample was found.

Randomness is deterministic: each trial derives its generator from the
master seed and the trial index, so results are independent of execution
order and reproducible from the failure output. Trial preconditions are
constructed exactly (reflections for distance ties, ray extensions for
exact set distances) rather than filtered, so trial counts are meaningful.
Strict inequalities are asserted with a small slack to absorb rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .convexfn import ball_constraint
from .errors import EmptySample, GridTooLarge
from .feasibility import ConstraintSet
from .geometry import Ball, Vector, as_vector
from .inclusion import BallIntersection

_GRID_GUARD = 10 ** 8
_SLACK = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned scan grid: lower/upper corners and a common step."""

    lower: Vector
    upper: Vector
    step: float

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if self.lower.shape[0] != self.upper.shape[0]:
            raise ValueError("lower and upper must share a dimension")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower must be componentwise strictly below upper")
        step = float(self.step)
        if not (math.isfinite(step) and step > 0):
            raise ValueError("step must be a finite positive number")
        object.__setattr__(self, "step", step)
        if self.size() > _GRID_GUARD:
            raise GridTooLarge(f"grid would have {self.size()} points (guard {_GRID_GUARD})")

    def axes(self) -> list[np.ndarray]:
        out = []
        for lo, hi in zip(self.lower, self.upper):
            count = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
            out.append(lo + self.step * np.arange(count))
        return out

    def size(self) -> int:
        n = 1
        for lo, hi in zip(self.lower, self.upper):
            n *= int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        return n


def _grid_chunks(spec: GridSpec, chunk_rows: int = 1 << 20) -> Iterator[np.ndarray]:
    """Yield (M, n) blocks of grid points without materializing everything."""
    axes = spec.axes()
    n = len(axes)
    if n == 1:
        a = axes[0]
        for i in range(0, a.shape[0], chunk_rows):
            yield a[i:i + chunk_rows, None]
        return
    rest = 1
    for a in axes[1:]:
        rest *= a.shape[0]
    block = max(1, chunk_rows // rest)
    first = axes[0]
    for i in range(0, first.shape[0], block):
        mesh = np.meshgrid(first[i:i + block], *axes[1:], indexing="ij")
        yield np.stack([m.ravel() for m in mesh], axis=1)


class GridFeasibility(NamedTuple):
    feasible: bool
    witness: np.ndarray | None
    min_g_tilde: float


def grid_feasible(cs: ConstraintSet, grid: GridSpec) -> GridFeasibility:
    """Exhaustive feasibility scan.

    Feasible iff some grid point satisfies every constraint; the witness is
    the deepest such point (smallest worst residual). Also reports the grid
    minimum of the merit function (sum of positive parts).
    """
    if grid.lower.shape[0] != cs.dimension:
        raise ValueError("grid dimension does not match the constraint set")
    best_depth = math.inf
    best_point = None
    min_gt = math.inf
    for chunk in _grid_chunks(grid):
        vals = np.stack([g.values(chunk) for g in cs.constraints])
        worst = vals.max(axis=0)
        gt = np.maximum(vals, 0.0).sum(axis=0)
        i = int(np.argmin(worst))
        if worst[i] < best_depth:
            best_depth = float(worst[i])
            best_point = chunk[i].copy()
        m = float(gt.min())
        if m < min_gt:
            min_gt = m
    feasible = best_depth <= 0.0
    return GridFeasibility(feasible=feasible,
                           witness=best_point if feasible else None,
                           min_g_tilde=min_gt)


class GridMaxDistance(NamedTuple):
    r_max: float
    arg: np.ndarray


def grid_max_distance(bi: BallIntersection, c, grid: GridSpec) -> GridMaxDistance:
    """Max of ||x - c|| over grid points inside the ball intersection."""
    c = np.asarray(c, dtype=np.float64)
    if grid.lower.shape[0] != bi.dim:
        raise ValueError("grid dimension does not match the ball intersection")
    r2 = bi.radius * bi.radius
    best = -math.inf
    arg = None
    for chunk in _grid_chunks(grid):
        mask = np.ones(chunk.shape[0], dtype=bool)
        for ck in bi.centers:
            D = chunk - ck
            mask &= np.einsum("ij,ij->i", D, D) <= r2
        if not mask.any():
            continue
        pts = chunk[mask]
        D = pts - c
        d2 = np.einsum("ij,ij->i", D, D)
        i = int(np.argmax(d2))
        if d2[i] > best:
            best = float(d2[i])
            arg = pts[i].copy()
    if arg is None:
        raise EmptySample("no grid point lies inside the ball intersection")
    return GridMaxDistance(r_max=math.sqrt(best), arg=arg)


@dataclass
class LemmaCheckResult:
    """Outcome of a randomized property check.

    ``counterexample`` holds the violating trial data when ``passed`` is
    False; the seed is recorded so a failure can be replayed.
    """

    passed: bool
    trials: int
    seed: int
    counterexample: dict | None = None


_DIMS = (2, 3, 5)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / float(np.linalg.norm(v))


def check_lemma_2_5(trials: int = 100_000, seed: int = 0) -> LemmaCheckResult:
    """Points of an open ball see the center and any outside point at an acute angle.

    For b outside the open ball B(a, r) and x inside it, the inner product
    (x - b).(a - b) must be strictly positive. Boundary x are excluded by
    construction (the ball is open).
    """
    for t in range(trials):
        rng = _trial_rng(seed, t)
        n = _DIMS[t % len(_DIMS)]
        a = rng.normal(0.0, 2.0, n)
        r = rng.uniform(0.1, 3.0)
        pad = rng.uniform(0.0, 2.0)
        b = a + (r * (1.0 + pad)) * _unit(rng, n)
        x = a + (r * 0.9999 * rng.uniform(0.0, 1.0) ** (1.0 / n)) * _unit(rng, n)
        val = float((x - b) @ (a - b))
        if val <= -_SLACK:
            return LemmaCheckResult(False, t + 1, seed,
                                    {"a": a, "b": b, "r": r, "x": x, "value": val, "trial": t})
    return LemmaCheckResult(True, trials, seed)


def check_lemma_2_6(trials: int = 10_000, seed: int = 0) -> LemmaCheckResult:
    """Far outside points see every ball center at an acute angle.

    For x in a ball intersection with common radius R and y farther than R
    from the intersection, (x - y).(c_k - y) must be positive for every
    center c_k. The distance from y to the intersection is made exact by
    construction: project a far point onto the intersection (Dykstra) and
    walk back out along the normal ray.
    """
    for t in range(trials):
        rng = _trial_rng(seed, t)
        n = _DIMS[t % len(_DIMS)]
        m = int(rng.integers(1, 4))
        R = rng.uniform(0.5, 2.0)
        z0 = rng.normal(0.0, 2.0, n)
        offsets = [(0.8 * R * rng.uniform(0.0, 1.0) ** (1.0 / n)) * _unit(rng, n) for _ in range(m)]
        centers = [z0 + off for off in offsets]
        deep = R - max(float(np.linalg.norm(off)) for off in offsets)
        x = z0 + (0.98 * deep * rng.uniform(0.0, 1.0) ** (1.0 / n)) * _unit(rng, n)

        c1 = ConstraintSet([ball_constraint(Ball(c, R)) for c in centers])
        y_far = z0 + (4.0 * R + rng.uniform(0.0, 3.0) * R) * _unit(rng, n)
        # modest projection accuracy suffices: the constructed distance margin
        # below is at least 0.1 R
        p = c1.project(y_far, iters=600, tol=1e-9).point
        u = y_far - p
        nu = float(np.linalg.norm(u))
        s = R * (1.1 + rng.uniform(0.0, 1.5))
        y = p + (s / nu) * u  # d(y, C1) = s > R by the normal-ray property

        vals = [float((x - y) @ (ck - y)) for ck in centers]
        worst = min(vals)
        if worst <= -_SLACK:
            return LemmaCheckResult(False, t + 1, seed,
                                    {"centers": centers, "R": R, "x": x, "y": y,
                                     "values": vals, "trial": t})
    return LemmaCheckResult(True, trials, seed)


def check_lemma_2_7(trials: int = 10_000, seed: int = 0) -> LemmaCheckResult:
    """Distance dominance is preserved along the ray through a tie point.

    If y is equidistant from c1 and c2 while z is at least as far from c1
    as from c2, every point y + t (z - y) with t >= 0 stays at least as far
    from c1 as from c2 (the squared-distance difference is linear in t).
    The tie is exact by construction: c2 is the reflection of c1 across a
    random hyperplane through y.
    """
    for t in range(trials):
        rng = _trial_rng(seed, t)
        n = _DIMS[t % len(_DIMS)]
        y = rng.normal(0.0, 2.0, n)
        z = rng.normal(0.0, 2.0, n)
        c1 = rng.normal(0.0, 2.0, n)
        w = _unit(rng, n)
        c2 = c1 - 2.0 * float((c1 - y) @ w) * w
        if float((z - c1) @ (z - c1)) < float((z - c2) @ (z - c2)):
            c1, c2 = c2, c1
        ts = np.concatenate([[0.0, 0.5, 1.0, 2.0, 10.0], rng.uniform(0.0, 10.0, 3)])
        for tt in ts:
            p = y + tt * (z - y)
            d1 = float((p - c1) @ (p - c1))
            d2 = float((p - c2) @ (p - c2))
            slack = _SLACK * max(1.0, abs(d1), abs(d2))
            if d1 < d2 - slack:
                return LemmaCheckResult(False, t + 1, seed,
                                        {"y": y, "z": z, "c1": c1, "c2": c2, "t": float(tt),
                                         "d1": d1, "d2": d2, "trial": t})
    return LemmaCheckResult(True, trials, seed)


def check_lemma_2_8(trials: int = 10_000, seed: int = 0) -> LemmaCheckResult:
    """The farthest center keeps winning on a short segment.

    Centers c_1..c_m around y with a constructed tie group of size p (every
    tied center strictly farther than the rest): for any unit direction v
    there must be a tied index k_v and a delta > 0 such that c_{k_v} stays
    farthest from y + t v for all t in (0, delta). The check searches delta
    over a decreasing dyadic sequence, picking k_v as the winner at t =
    delta. With p = m (all tied) no separation requirement is needed.
    """
    deltas = [2.0 ** (-j) for j in range(1, 21)]
    for t in range(trials):
        rng = _trial_rng(seed, t)
        n = _DIMS[t % len(_DIMS)]
        m = int(rng.integers(2, 6))
        p = int(rng.integers(1, m + 1))
        rho = rng.uniform(0.5, 2.0)
        y = rng.normal(0.0, 2.0, n)
        centers = [y + rho * _unit(rng, n) for _ in range(p)]
        centers.extend(y + (rho * rng.uniform(0.2, 0.9)) * _unit(rng, n) for _ in range(m - p))
        v = _unit(rng, n)

        ok = False
        for delta in deltas:
            z = y + delta * v
            kv = max(range(p), key=lambda i: float((z - centers[i]) @ (z - centers[i])))
            good = True
            for frac in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.999):
                q = y + (frac * delta) * v
                dk = float((q - centers[kv]) @ (q - centers[kv]))
                for i in range(m):
                    di = float((q - centers[i]) @ (q - centers[i]))
                    slack = _SLACK * max(1.0, dk, di)
                    if dk < di - slack:
                        good = False
                        break
                if not good:
                    break
            if good:
                ok = True
                break
        if not ok:
            return LemmaCheckResult(False, t + 1, seed,
                                    {"y": y, "centers": centers, "p": p, "v": v, "trial": t})
    return LemmaCheckResult(True, trials, seed)
