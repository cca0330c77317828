"""The Lagrangian of ball and halfspace rows, and its exact checks.

About an origin ``z``, in ``y = x - z``, every row is ``k_r |y|^2 - 2 u_r.y
+ q_r``: a ball ``|x - c_r|^2 + o_r`` has ``k_r = 1`` and ``u_r = c_r - z``, a
halfspace ``a_r.x + b_r`` has ``k_r = 0`` and ``u_r = -a_r / 2``, and ``q_r``
is the row's value at ``z``. ``C`` is the set where the rows are at most zero.
For weights ``w_r`` of either sign the Lagrangian ``L = sum w_r row_r`` has
the Hessian ``2 s I``, ``s`` the sum of the ball weights, and with ``S = sum
w_r q_r`` and ``v = sum w_r u_r`` its minimum over all ``x`` is, for ``s > 0``,

    min_x L = S - |v|^2 / s,  at  x = z + v / s.

That is the one bound of this module. It is at most ``L(x)`` at every
``x``, and at a point of ``C`` the terms of the rows of ``C``, under
non-negative weights, are at most zero. So there the bound is at most the
term of the one other row, if there is one: an anchor, a ball row about a
centre ``c`` that is no row of ``C`` and whose weight the caller fixes. The
module uses four cases:

- No anchor (the theorem of alternatives): every weight is non-negative and a
  positive bound proves ``C`` empty; these weights are the infeasibility
  certificate. ``_dual_ascent`` looks for them by projected gradient on the
  bound with the ball weights on the simplex, where it is a concave quadratic
  whose gradient is the row values at the primal point. Over balls alone the
  best bound is ``min_x max_i g_i(x)``, so the primal point of the optimal
  weights is the deepest point of ``C``. A primal point on the way that
  lies in ``C`` proves ``C`` nonempty instead, so ``certify_empty`` stops
  the ascent at the first one.
- The anchor ``|x - c|^2`` at weight ``-1`` (the S-lemma): with weights
  ``lambda`` on the balls ``g_k`` the bound is at most ``-|x - c|^2`` on
  ``C``. With ``s``, ``S`` and ``v`` taken over the balls alone, its negative
  ``phi(lambda) = |v|^2 / (s - 1) - S`` therefore bounds the farthest
  distance ``r_star^2`` from above whenever ``s > 1``. ``-phi`` is concave,
  with gradient ``g_k(x(lambda))`` and Hessian ``-2 W W^T / (s - 1)``, where
  the rows of ``W`` are ``x(lambda) - c_k``; ``_newton`` maximises it over
  ``lambda >= 0``, ``sum lambda >= 1``.
- The anchor ``|x - c|^2`` at weight ``+1`` (the distance floor): with
  weights ``lambda >= 0`` on the balls the bound is at most ``|x - c|^2`` on
  ``C``, so at most ``d(c, C)^2``. It is the Lagrange dual of projecting
  ``c`` onto ``C``, a convex problem, so its best weights attain ``d(c,
  C)^2`` when ``C`` has an interior point. ``distance_margin`` proves the
  distance precondition of the ``inclusion`` module with it: from equal
  weights at their best scale, a closed form, and where those fall short
  from the best weights, which ``_newton`` finds. ``distance_above`` reads
  the other side: the primal point of the best weights, the projection of
  ``c`` once they are optimal, pulled into ``C`` is a member whose distance
  from ``c`` bounds ``d(c, C)`` above. The covering check of the
  ``application`` module reads both.
- The anchor ``f = |x - c|^2 - r^2`` at weight ``-t``, ``0 <= t <= 1`` (the
  inclusion witness): the identities ``sum max(g_i, 0) + min(max_k g_k, 0) =
  max sum w_i g_i`` over ``w`` in ``[0, 1]^m`` with ``sum w >= 1``, and
  ``-min(f, 0) = max (-t f)`` over ``t`` in ``[0, 1]``, make the witness
  ``G`` of the ``inclusion`` module at least ``sum w_i g_i - t f``
  everywhere, so the bound is at most ``min G``. It is concave in ``theta =
  (w, t)``, with gradient ``(g_i(x), -f(x))`` at the primal point and
  Hessian ``-2 E E^T / (s - t)``, where the rows of ``E`` are ``x - c_i`` and
  ``c - x``. ``G`` is coercive and the weights range over a compact
  polytope, so by Sion's minimax theorem the best weights attain ``min G``
  and their primal point is the minimiser of ``G``; ``_newton`` finds them.

The S-lemma bound is exact under the distance precondition ``d(c, C) > R``
of the ``inclusion`` module, for ``C`` an intersection of balls of radius
``R``. Take any ``r > r_star``. ``C`` then lies in the open ball ``B(c, r)``,
so ``min G > 0`` by the sign characterisation of the ``inclusion`` module, and
by Sion's theorem some weights ``(w, t)`` make the witness bound positive.
``t = 0`` would prove ``C`` empty, so ``t > 0``, and dividing the bound by
``t`` shows that ``lambda = w / t`` has ``sum lambda > 1`` and
``phi(lambda) < r^2``. Hence ``inf phi = r_star^2``. When the infimum is
attained, at ``lambda*`` with ``sum lambda* > 1``, the Lagrangian of the
S-lemma bound is strictly convex. The farthest point ``x*`` has ``L(x*) <=
-r_star^2 = min L``, so ``x*`` is its unique minimiser ``x(lambda*)`` and
lies in ``C``: the bracket is then as narrow as rounding allows. A wider one
comes only from ``_newton`` stopping short, at ``DUAL_STEPS`` or at a step
that would leave the interior in floats.

The three Newton problems are one: weights ``theta`` on rows ``k_r |y|^2 - 2
d_r.y + q_r`` with ``k_r = +-1``, and an anchor ``|y|^2`` of fixed weight
``sigma``, maximise ``q.theta - |D^T theta|^2 / (k.theta + sigma)`` over a
polytope ``A theta >= b``. The farthest dual has the ball rows and ``sigma =
-1``, the distance dual the same rows and ``sigma = +1``. The witness dual
varies the weight ``t`` of its anchor, so it holds ``-f`` as one more row,
with ``k = -1``, ``d = 0`` and ``q = r^2``, and ``sigma = 0``. ``_newton``
takes the rows, ``sigma`` and the polytope as data and runs primal-dual
interior-point steps on them.

No verdict rests on rounded arithmetic. Every float is a dyadic rational,
so ``_dyadic_rows`` writes the rows about ``z`` as integers over one power of
two, ``_dual_sums`` the weighted sums and ``_bound`` the bound as an exact
fraction. A point lies in ``C`` exactly when none of its row values about it
is positive, and ``_sqrt`` rounds a square root in a chosen direction,
checked in integers.
"""

from __future__ import annotations

import math
from operator import lshift, mul, sub
from typing import NamedTuple

import numpy as np

from .convexfn import Affine, BallQuad

# steps of the dual ascent before the certificate attempt gives up
CERTIFICATE_STEPS = 1_000
# Newton steps of each solve of the farthest, the distance or the witness
# dual before the bracket or the bound is read
DUAL_STEPS = 100


class DyadicRows(NamedTuple):
    """Ball and halfspace rows about an origin ``z``, in integers and in constraint order.

    Each row is ``k |y|^2 - 2 u.y + q`` in ``y = x - z``: a ball has ``k = 1``
    and ``u = c_i - z``, a halfspace ``k = 0`` and ``u = -a_j / 2``, and ``q``
    is the row's value at ``z``. ``linear[r]`` is ``u`` times ``2**b`` and
    ``values[r]`` is ``q`` times ``2**(2 b)``; every float is a dyadic
    rational, so one power of two makes all of them integers with no rounding.
    """

    quadratic: list[bool]
    linear: list[list[int]]
    values: list[int]
    b: int


class DualSums(NamedTuple):
    """The Lagrangian sums of ``DyadicRows`` under weights ``w_r``, in integers.

    ``s``, the sum of the ball weights, times ``2**a``, ``S = sum w_r q_r``
    times ``2**(a + 2 b)`` and ``v = sum w_r u_r`` times ``2**(a + b)``.
    """

    s: int
    S: int
    v: list[int]
    a: int
    b: int


def _dyadic(values) -> tuple[np.ndarray, np.ndarray]:
    """Each float of ``values`` as ``mant * 2**exp``, in two int64 arrays.

    ``frexp``'s fraction has at most 53 bits, so times ``2**53`` it is an
    exact integer. A value that is not finite raises ``ValueError``.
    """
    frac, exp = np.frexp(np.asarray(values, dtype=np.float64))
    if not np.isfinite(frac).all():
        raise ValueError("only finite floats are dyadic rationals")
    return (frac * 2.0 ** 53).astype(np.int64), exp - 53


def _bits(parts) -> int:
    """A ``k >= 0`` that makes every value of ``_dyadic`` times ``2**k`` an integer."""
    return max(0, -min(parts[1].tolist(), default=0))


def _at(parts, k: int) -> list[int]:
    """Each value of ``_dyadic`` times ``2**k``; ``k`` is at least ``_bits(parts)``."""
    mant, exp = parts
    return list(map(lshift, mant.tolist(), (exp + k).tolist()))


def _dyadic_rows(constraints, origin) -> DyadicRows | None:
    """The rows of ``constraints`` about ``origin`` in integers; None if a node is neither kind.

    ``values`` are exact, so ``origin`` lies in the intersection exactly when
    none of them is positive.
    """
    if not all(isinstance(g, (BallQuad, Affine)) for g in constraints):
        return None
    quadratic = [isinstance(g, BallQuad) for g in constraints]
    n = len(origin)
    points = _dyadic(np.concatenate([origin] + [g.center if ball else g.a
                                                for g, ball in zip(constraints, quadratic)]))
    consts = _dyadic([g.offset if ball else g.b for g, ball in zip(constraints, quadratic)])
    # one bit beyond the coordinates keeps a_j / 2 integral, and 2 b covers
    # the offsets and shifts, which sit on the squared scale
    b = max(_bits(points) + 1, (_bits(consts) + 1) // 2)
    flat = _at(points, b)
    Z = flat[:n]
    linear, values = [], []
    for r, (ball, const) in enumerate(zip(quadratic, _at(consts, 2 * b)), 1):
        row = flat[r * n:(r + 1) * n]
        if ball:
            u = list(map(sub, row, Z))
            values.append(sum(map(mul, u, u)) + const)
        else:
            u = [-(p >> 1) for p in row]
            values.append(sum(map(mul, row, Z)) + const)
        linear.append(u)
    return DyadicRows(quadratic, linear, values, b)


def _dual_sums(rows: DyadicRows, weights) -> DualSums | None:
    """``s``, ``S`` and ``v`` of ``rows`` under ``weights``, one per row in row order.

    None unless there is one finite weight, of either sign, per row.
    """
    weights = [float(w) for w in weights]
    if len(weights) != len(rows.values) or not all(math.isfinite(w) for w in weights):
        return None
    parts = _dyadic(weights)
    a = _bits(parts)
    W = _at(parts, a)
    S = sum(w * q for w, q in zip(W, rows.values))
    v = [0] * len(rows.linear[0])
    for w, u in zip(W, rows.linear):
        if w:
            v = [vk + w * uk for vk, uk in zip(v, u)]
    return DualSums(sum(w for w, k in zip(W, rows.quadratic) if k), S, v, a, rows.b)


def _bound(rows: DyadicRows, weights) -> tuple[int, int] | None:
    """``(num, den)``, ``den > 0``, with ``num / den = S - |v|^2 / s`` exactly.

    None when the weights are not valid for ``_dual_sums`` or ``s <= 0``,
    where the Lagrangian is unbounded below.
    """
    sums = _dual_sums(rows, weights)
    if sums is None or sums.s <= 0:
        return None
    return sums.S * sums.s - sum(u * u for u in sums.v), sums.s << (sums.a + 2 * sums.b)


def _sqrt(num: int, den: int, *, up: bool) -> float:
    """``sqrt(num / den)`` rounded to a float in one direction, checked exactly; ``den > 0``.

    ``up`` gives the least float ``r >= 0`` with ``r^2 >= num / den``;
    otherwise the greatest float with ``r^2 <= num / den``. For ``num <= 0``
    both are 0.0: a negative ``num / den`` reads as 0.
    """
    if num <= 0:
        return 0.0

    def holds(r: float) -> bool:
        p, q = r.as_integer_ratio()
        lhs, rhs = p * p * den, num * q * q
        return lhs >= rhs if up else lhs <= rhs

    # move out until the bound holds, then back while it still does
    out, back = (math.inf, 0.0) if up else (0.0, math.inf)
    r = math.sqrt(num / den)
    while not holds(r):
        r = math.nextafter(r, out)
    while r != back and holds(math.nextafter(r, back)):
        r = math.nextafter(r, back)
    return r


def _floor(num: int, den: int) -> float:
    """The greatest float at most ``num / den``; ``den > 0``."""
    x = num / den  # int division rounds to the nearest float
    p, q = x.as_integer_ratio()
    return math.nextafter(x, -math.inf) if p * den > num * q else x


def _inside(constraints, x: np.ndarray) -> bool:
    """``x`` lies in the intersection of the rows, checked exactly."""
    return max(_dyadic_rows(constraints, x).values) <= 0


def proves_empty(constraints, weights) -> bool:
    """``weights``, one per constraint, prove the intersection empty in exact arithmetic.

    The check is ``S - |v|^2 / s > 0`` about the origin, with no anchor. Rows
    of zero weight take no part, whatever their kind; a negative weight, or a
    weighted row that is neither a ball nor a halfspace, proves nothing: the
    bound holds on the intersection only under non-negative weights.
    """
    if len(weights) != len(constraints) or not all(float(w) >= 0.0 for w in weights):
        return False
    used = [(g, w) for g, w in zip(constraints, weights) if float(w) != 0.0]
    if not used:
        return False
    rows = _dyadic_rows([g for g, _ in used], [0.0] * used[0][0].dim)
    bound = None if rows is None else _bound(rows, [w for _, w in used])
    return bound is not None and bound[0] > 0


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


def _dual_ascent(cs, *, stop_inside: bool = False):
    """Ascend the bound over the rows of the ``ConstraintSet`` ``cs``, with no anchor.

    ``cs`` holds one ball at least and no node of another kind. About the
    mean ball centre ``z`` the rows stack into one matrix ``U = [C - z;
    -A/2]`` of the ``u_r`` and one vector ``q``, balls first as ``cs.rows``
    groups them. Projected gradient from uniform ball weights and zero
    halfspace weights, keeping the ball weights in the simplex (so ``s = 1``)
    and the halfspace weights ``>= 0``, with the step ``1 / (2 ||U||_F^2)``.
    That step is at most the inverse Lipschitz constant ``1 / (2 ||U||_2^2)``
    of the dual gradient, so every step raises the dual value ``D`` until the
    weights are optimal, and it needs no SVD. Stops at the first ``D > 0``,
    at the first step that does not raise ``D`` or after
    ``CERTIFICATE_STEPS`` steps; with ``stop_inside``, also at the first
    primal point whose row values, read off the gradient, are all at most
    zero in floats. Returns ``(theta, x, D, steps)`` with ``theta`` the
    weights, balls first, and ``x`` the primal point, the minimizer of the
    Lagrangian.
    """
    centers, offsets, normals, shifts, _ = cs.rows
    m = len(centers)
    # D does not change when the rows are translated together, but ||U||_F
    # does: centring the balls at their mean lets the step follow the spread
    # of the centres, not their distance from 0
    z = centers.mean(axis=0)
    U = centers - z
    q = offsets + (U * U).sum(axis=1)
    if normals is not None:
        U = np.vstack((U, -0.5 * normals))
        q = np.append(q, shifts + normals @ z)
    theta = np.append(np.full(m, 1.0 / m), np.zeros(len(q) - m))
    fro2 = float((U * U).sum())
    # one centre and no normal leaves D linear: any step ascends
    t = 0.5 / fro2 if fro2 > 0.0 else 1.0
    D_prev = -math.inf
    for step in range(CERTIFICATE_STEPS + 1):
        x = theta @ U
        xx = float(x @ x)
        D = float(theta @ q) - xx
        if D > 0.0 or D <= D_prev or step == CERTIFICATE_STEPS:
            break
        # the gradient is the row values at x, less |x|^2 on the balls
        grad = q - 2.0 * (U @ x)
        if stop_inside:
            values = grad.tolist()
            if max(values[:m]) + xx <= 0.0 and max(values[m:], default=0.0) <= 0.0:
                break
        D_prev = D
        theta = theta + t * grad
        theta = np.append(_project_simplex(theta[:m]), np.fmax(theta[m:], 0.0))
    return theta, x + z, D, step


class DualDecision(NamedTuple):
    """A certificate ascent that settled whether ``C`` is empty, and how.

    ``weights`` are the ascent's weights in constraint order, ``bound`` its
    dual value ``D`` in floats, ``steps`` its step count and ``x`` its primal
    point. With ``empty`` the weights prove ``C`` empty; without it ``x``
    lies in ``C``. Both are checked exactly.
    """

    weights: tuple[float, ...]
    bound: float
    steps: int
    x: np.ndarray
    empty: bool


def certify_empty(cs) -> DualDecision | None:
    """One certificate ascent over the ``ConstraintSet`` ``cs``: a proof that it is empty, or a point of it.

    The ascent stops at its first primal point inside ``C`` in floats, so on
    a nonempty set it takes no step past the first point it can offer. None
    when it settles neither, or when ``cs`` has no ball or a node that is
    neither a ball nor a halfspace.
    """
    if cs.rows.others or cs.rows.centers is None:
        return None
    theta, x, D, steps = _dual_ascent(cs, stop_inside=True)
    m = len(cs.rows.centers)
    balls, halfspaces = iter(theta[:m].tolist()), iter(theta[m:].tolist())
    weights = tuple(next(balls) if isinstance(g, BallQuad) else next(halfspaces) for g in cs.constraints)
    if D > 0.0 and proves_empty(cs.constraints, weights):
        return DualDecision(weights, D, steps, x, True)
    if _inside(cs.constraints, x):
        return DualDecision(weights, D, steps, x, False)
    return None


def deep_point(cs) -> np.ndarray:
    """The ascent's primal point over the balls of ``cs``: the deepest point once it converges."""
    return _dual_ascent(cs)[1]


def _to_boundary(values: list[float], steps: list[float]) -> float:
    """The largest ``a <= 1`` that keeps each ``value + a * step`` above 0.5% of ``value``."""
    a = 1.0
    for v, dv in zip(values, steps):
        if dv < 0.0:
            a = min(a, -0.995 * v / dv)
    return a


def _primal(k: np.ndarray, D: np.ndarray, o: np.ndarray, sigma: float, theta: np.ndarray):
    """``(u, y, E, F)`` at the weights ``theta`` of the rows ``k_r |d_r - k_r y|^2 + o_r``.

    ``u = k.theta + sigma``, with ``sigma`` the fixed weight of the anchor
    ``|y|^2``; ``y = D^T theta / u`` is the primal point, the rows of ``E``
    are ``d_r - k_r y`` and ``F`` holds the row values at ``y``.
    """
    u = float(k @ theta) + sigma
    y = (theta @ D) / u
    E = D - k[:, None] * y
    return u, y, E, k * (E * E).sum(axis=1) + o


def _newton(k: np.ndarray, D: np.ndarray, o: np.ndarray, sigma: float,
            A: np.ndarray, b: np.ndarray, theta: np.ndarray, tol: float) -> np.ndarray:
    """Weights in the polytope ``A theta >= b`` that maximise the bound ``B``.

    Row ``r`` is ``k_r |y|^2 - 2 d_r.y + q_r = k_r |d_r - k_r y|^2 + o_r``
    with ``k_r = +-1`` and ``d_r`` the rows of ``D``; ``sigma`` is the fixed
    weight of the anchor row ``|y|^2``. ``B(theta) = q.theta - |D^T theta|^2
    / u`` with ``u = k.theta + sigma`` is the Lagrangian's minimum over ``y``
    (module docstring). Its gradient is ``F``, the row
    values at ``y(theta)``, and its Hessian ``-2 E E^T / u`` (``_primal``).
    Primal-dual interior-point Newton steps from ``theta``, strictly inside
    the polytope with ``u > 0``, and one multiplier ``z_i`` per polytope row
    that makes each product of slack and multiplier ``|F|_1 / p`` over the
    ``p`` rows. Each step aims at a
    twentieth of the mean product and moves ``theta`` and ``z`` as far
    towards it as keeps each slack and multiplier above 0.5% of its value.
    The error ``z.slack + |F + A^T z|_1`` adds complementarity and
    stationarity; over a polytope in ``[0, 1]^N`` it bounds how far ``B``
    is from its maximum. Stops once the error is at most ``tol``, at a step
    that would leave the interior in floats, or after ``DUAL_STEPS`` steps;
    returns the iterate of least error.
    """
    p = len(b)

    def at(theta, z):
        u, _, E, F = _primal(k, D, o, sigma, theta)
        slack = A @ theta - b
        if z is None:
            z = sum(map(abs, F.tolist())) / p / slack
        return float(z @ slack) + sum(map(abs, (F + z @ A).tolist())), theta, z, slack, u, E, F

    cur = best = at(theta, None)
    for _ in range(DUAL_STEPS):
        if best[0] <= tol:
            break
        _, theta, z, slack, u, E, F = cur
        target = float(z @ slack) / (20.0 * p)
        H = (2.0 / u) * (E @ E.T) + A.T @ (A * (z / slack)[:, None])
        # two equal centres leave E E^T flat along their difference, where the
        # barrier terms can round away against a large one on sum w >= 1 and
        # leave H singular in floats: a relative ridge keeps it definite
        H.flat[::len(H) + 1] *= 1.0 + 1e-14
        step = np.linalg.solve(H, F + (target / slack) @ A)
        ds = A @ step
        dz = (target - z * ds) / slack - z
        theta = theta + _to_boundary(slack.tolist(), ds.tolist()) * step
        if not all(v > 0.0 for v in (A @ theta - b).tolist()):
            break
        cur = at(theta, z + _to_boundary(z.tolist(), dz.tolist()) * dz)
        if cur[0] < best[0]:
            best = cur
    return best[1]


def _member_near(constraints, x: np.ndarray, toward: np.ndarray) -> np.ndarray | None:
    """``x``, or ``x`` pulled toward ``toward`` by the first of ``2^-60, ..., 1`` exactly in C."""
    if _inside(constraints, x):
        return x
    last = x
    for k in range(60, -1, -1):
        y = x + 2.0 ** -k * (toward - x)
        if not np.array_equal(y, last):
            if _inside(constraints, y):
                return y
            last = y
    return None


def _anchored(cs, c: np.ndarray, sigma: float):
    """``(lambda, y, num, den)`` of the balls of ``cs`` and the anchor ``|x - c|^2`` at weight ``sigma``.

    ``sigma`` is -1 for the farthest dual and +1 for the distance dual.
    ``lambda`` maximises the bound over ``lambda >= 0``, and ``sum lambda >=
    1`` when ``sigma = -1``, by ``_newton`` from uniform multipliers with
    ``sum lambda = 2``, to an error of ``1e-14 max_k |c_k - c|^2``. One ball
    takes the optimum ``lambda = |c_1 - c| / R - sigma`` instead, unless it
    leaves ``lambda`` or ``lambda + sigma`` at 0 or below (``c = c_1`` in the
    farthest dual, ``c`` in the ball in the distance dual), where the start
    stays. ``y`` is the primal point less ``c``, and ``num / den`` the bound,
    exactly, from ``_bound`` about ``c``.
    """
    d = cs.rows.centers - c
    o = np.array(cs.rows.offsets)
    m = len(d)
    k = np.ones(m)
    lam = np.full(m, 2.0 / m)
    if m > 1:
        A, b = np.eye(m), np.zeros(m)
        if sigma < 0.0:  # the farthest dual needs s > 1
            A, b = np.vstack((A, k)), np.append(b, 1.0)
        lam = _newton(k, d, o, sigma, A, b, lam, 1e-14 * float((d * d).sum(axis=1).max()))
    else:
        s = math.sqrt(float(d[0] @ d[0]) / -o[0]) - sigma
        if DUAL_STEPS and min(s, s + sigma) > 0.0:
            lam[0] = s
    return (lam, _primal(k, d, o, sigma, lam)[1]) + _about(cs, c, lam.tolist() + [sigma])


def _about(cs, c: np.ndarray, weights: list[float]) -> tuple[int, int]:
    """``(num, den)``: the bound of the balls of ``cs`` and the anchor ``|x - c|^2``, exactly, about ``c``.

    ``weights`` holds one weight per ball, then the anchor's.
    """
    return _bound(_dyadic_rows(cs.constraints + (BallQuad(c, 0.0),), c), weights)


def farthest_bracket(cs, c: np.ndarray, witness: np.ndarray, floor: float):
    """``(r_lo, r_hi, witness, lambda)``: ``r_lo <= r_star <= r_hi`` over the balls of ``cs``.

    ``r_star`` is the farthest distance from ``c``; ``witness`` is a member of
    C and ``floor`` a lower bound on ``r_star``. ``lambda`` maximises the
    S-lemma bound ``-phi`` (``_anchored`` at ``sigma = -1``); for one ball
    centred at ``c`` it stays at 2. ``phi(lambda)`` is minus the bound over
    the balls and the anchor row ``|x - c|^2`` at weight ``-1``, and ``r_hi``
    the least float with ``r_hi^2 >= phi(lambda)``. ``r_lo`` reads the
    anchor row about a member of C: the distance from ``c``, rounded down,
    of ``x(lambda)`` when it lies exactly in C, or else of ``x(lambda)``
    pulled toward ``witness`` by the first of ``2^-60, 2^-59, ..., 1`` that
    does; that point becomes the returned witness. When none does, ``r_lo``
    is ``floor`` and ``witness`` comes back as it was given.
    """
    lam, y, num, den = _anchored(cs, c, -1.0)
    r_hi = _sqrt(-num, den, up=True)
    member = _member_near(cs.constraints, c + y, witness)
    if member is None:
        return floor, r_hi, witness, lam
    return _distance(c, member, up=False), r_hi, member, lam


def _distance(c: np.ndarray, x: np.ndarray, *, up: bool) -> float:
    """``|x - c|``, read off the anchor row ``|y - c|^2`` about ``x`` exactly, rounded up or down."""
    about = _dyadic_rows((BallQuad(c, 0.0),), x)
    return _sqrt(about.values[0], 1 << (2 * about.b), up=up)


def distance_margin(cs, c: np.ndarray, R: float, tol: float) -> float:
    """A lower bound on ``d(c, C) - R`` over the balls of ``cs``, checked exactly and rounded down.

    On ``C`` every ball row is at most zero, so for ``lambda >= 0`` the bound
    over the balls and the anchor ``|x - c|^2`` at weight ``+1`` is at most
    ``d(c, C)^2``; ``_sqrt`` rounds its square root down, to 0 when the bound
    is not positive, and ``R`` comes off rounding down. The first weights
    tried are equal, ``lambda_i = t``, at the best scale in closed form: with
    ``v = sum (c_i - c)`` and ``Q = sum g_i(c)``, ``1 + t m = (1 - Q m /
    |v|^2)^(-1/2)``, and ``t = 0`` where that degenerates in floats. That is
    exact for one ball and proves a centre well outside ``C`` in one
    reading. Only a margin at most ``tol`` reads the bound again at the
    weights of ``_anchored``, the dual of projecting ``c`` onto ``C``, whose
    optimum is ``d(c, C)^2`` when ``C`` has an interior point.
    """

    def margin(num: int, den: int) -> float:
        p, q = _sqrt(num, den, up=False).as_integer_ratio()
        a, b = float(R).as_integer_ratio()
        return _floor(p * b - a * q, q * b)

    d = cs.rows.centers - c
    m, v = len(d), d.sum(axis=0)
    Q, vv = float(((d * d).sum(axis=1) + cs.rows.offsets).sum()), float(v @ v)
    ratio = 1.0 - Q * m / vv if vv > 0.0 else 1.0
    t = (ratio ** -0.5 - 1.0) / m if 0.0 < ratio < 1.0 else 0.0
    first = margin(*_about(cs, c, [t] * m + [1.0]))
    return first if first > tol else margin(*_anchored(cs, c, 1.0)[2:])


def distance_above(cs, c: np.ndarray, toward: np.ndarray) -> float:
    """An upper bound on ``d(c, C)`` over the balls of ``cs``, checked exactly and rounded up.

    The distance from ``c`` of a member of ``C``: the primal point of the
    distance dual's best weights (``_anchored`` at ``sigma = +1``), which is
    the projection of ``c`` onto ``C`` once they are optimal, pulled toward
    the member ``toward`` by ``_member_near`` when it is not exactly in
    ``C``. ``inf`` when no pull lands in ``C``.
    """
    member = _member_near(cs.constraints, c + _anchored(cs, c, 1.0)[1], toward)
    return math.inf if member is None else _distance(c, member, up=True)


class WitnessDual(NamedTuple):
    """A point for the minimum of ``G``, a lower bound on it, and the weights behind both.

    ``x`` is the primal point ``x(w, t)`` and ``g_lower`` the bound at
    ``multipliers = (w_1, ..., w_m, t)``, checked exactly and rounded down;
    it is ``-inf`` when the weights leave the polytope in exact arithmetic.
    """

    x: np.ndarray
    g_lower: float
    multipliers: tuple[float, ...]


def _witness_rows(cs, c: np.ndarray, r: float) -> tuple:
    """The balls of ``cs`` and the anchor ``f``: ``|x - c|^2`` minus the float ``r * r``."""
    return cs.constraints + (BallQuad(c, -(r * r)),)


def witness_dual(cs, c: np.ndarray, r: float, gap: float) -> WitnessDual:
    """The witness dual of the balls of ``cs`` against ``B(c, r)``: ``x(w, t)``, ``g_lower`` and ``(w, t)``.

    ``f`` is ``|x - c|^2`` minus the float ``r * r``. ``_newton`` holds
    ``-f`` as the row with ``k = -1``, ``d = 0`` and ``o = r * r``, so that
    ``B`` at ``sigma = 0`` is ``t r^2 + S - |v|^2 / (s - t)``. The weights
    maximise it from ``w_i = (m + 1) / 2m`` and ``t = 1/2`` to an error of
    ``gap / 2``, which bounds ``G(x)`` minus the bound; the other half of
    ``gap`` covers the rounding of ``g_lower``, the same bound from
    ``_bound`` over the rows of ``_witness_rows`` at the weights ``(w,
    -t)``. For one ball ``w = 1`` is forced and the best ``t``, ``1 - |c_1 -
    c| / r`` clipped at 0, is taken.
    """
    d = cs.rows.centers - c
    m, n = d.shape
    k = np.append(np.ones(m), -1.0)
    D = np.vstack((d, np.zeros(n)))
    o = np.append(cs.rows.offsets, r * r)
    theta = np.full(m + 1, (m + 1) / (2 * m))
    theta[m] = 0.5
    if m > 1:
        eye = np.eye(m + 1)
        A = np.vstack((eye, -eye, np.append(np.ones(m), 0.0)))
        b = np.concatenate((np.zeros(m + 1), -np.ones(m + 1), [1.0]))
        theta = _newton(k, D, o, 0.0, A, b, theta, gap / 2.0)
    else:
        t = 1.0 - math.sqrt(float(d[0] @ d[0]) / (r * r))
        if DUAL_STEPS and t < 1.0:  # t = 1 only when c = c_1
            theta[1] = max(t, 0.0)
    y = _primal(k, D, o, 0.0, theta)[1]
    w, t = theta[:-1].tolist(), float(theta[-1])
    parts = _dyadic(w)
    a = _bits(parts)
    inside = 0.0 <= min(w) and max(w) <= 1.0 and 0.0 <= t <= 1.0 and sum(_at(parts, a)) >= 1 << a
    bound = _bound(_dyadic_rows(_witness_rows(cs, c, r), c), w + [-t]) if inside else None
    g_lower = -math.inf if bound is None else _floor(*bound)
    return WitnessDual(c + y, g_lower, tuple(w) + (t,))


def witness_value(cs, c: np.ndarray, r: float, x: np.ndarray) -> float:
    """``G(x)`` of the balls of ``cs`` against ``B(c, r)``, exactly from the rows about ``x``, rounded up.

    ``G = -min(f, 0) + sum max(g_i, 0) + min(max g_i, 0)`` with ``f =
    |x - c|^2`` minus the float ``r * r``, as ``witness_dual`` reads it.
    """
    rows = _dyadic_rows(_witness_rows(cs, c, r), x)
    *g, f = rows.values
    G = max(-f, 0) + sum(max(v, 0) for v in g) + min(max(g), 0)
    return -_floor(-G, 1 << (2 * rows.b))
