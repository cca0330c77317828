"""The Lagrange dual of ball and halfspace rows, and its exact checks.

The rows are balls ``g_i(x) = |x - c_i|^2 + o_i`` and halfspaces
``h_j(x) = a_j.x + b_j``; ``C`` is the set where none is positive. For
weights ``lambda_i, mu_j >= 0`` and an anchor ``z`` of weight ``sigma``, the
Lagrangian

    L(x) = sigma |x - z|^2 + sum lambda_i g_i(x) + sum mu_j h_j(x)

has the Hessian ``2 (s + sigma) I``, ``s = sum lambda_i``. In ``y = x - z`` it
is ``(s + sigma) |y|^2 - 2 v.y + S`` with ``v = sum lambda_i (c_i - z) -
sum mu_j a_j / 2`` and ``S = sum lambda_i g_i(z) + sum mu_j h_j(z)``, so for
``s + sigma > 0`` its minimum over all ``x`` is

    min_x L = S - |v|^2 / (s + sigma),  at  x = z + v / (s + sigma).

Every weighted row is at most zero on ``C``, so this bound is at most
``sigma |x - z|^2`` at every point ``x`` of ``C``. Three anchors are used:

- ``sigma = 0`` (the theorem of alternatives): a positive bound proves ``C``
  empty; these weights are the infeasibility certificate. ``_dual_ascent``
  looks for them by projected gradient on the bound with ``lambda`` on the
  simplex, where it is a concave quadratic whose gradient is the row values
  at the primal point. Over balls alone the best bound is
  ``min_x max_i g_i(x)``, so the primal point of the optimal weights is the
  deepest point of ``C``.
- ``sigma = -1`` at ``z = c`` (the S-lemma): the bound is at most
  ``-|x - c|^2`` on ``C``, so ``phi(lambda) = |v|^2 / (s - 1) - S`` bounds the
  farthest distance ``r_star^2`` from above whenever ``s > 1``. Over balls
  ``-phi`` is concave, with gradient ``g_k(x(lambda))`` and Hessian
  ``-2 W W^T / (s - 1)``, where the rows of ``W`` are ``x(lambda) - c_k``;
  ``_newton`` maximises it over ``lambda >= 0``, ``sum lambda >= 1``.
  Complementary slackness leaves ``phi(lambda*) = |x(lambda*) - c|^2``
  whenever ``x(lambda*)`` lies in ``C``, and for one ball the S-lemma makes
  it always so; the bracket is then as narrow as rounding allows.
- ``sigma = -t`` at ``z = c``, ``0 <= t <= 1`` (the inclusion witness): with
  ``f = |x - c|^2 - r^2``, the identities ``sum max(g_i, 0) + min(max_k g_k,
  0) = max sum w_i g_i`` over ``w`` in ``[0, 1]^m`` with ``sum w >= 1``, and
  ``-min(f, 0) = max (-t f)`` over ``t`` in ``[0, 1]``, make the witness ``G``
  of the ``inclusion`` module at least ``sum w_i g_i - t f`` everywhere, so
  ``t r^2`` plus the bound is at most ``min G``. It is concave in
  ``theta = (w, t)``, with gradient ``(g_i(x), -f(x))`` at the primal point
  and Hessian ``-2 E E^T / (s - t)``, where the rows of ``E`` are ``x - c_i``
  and ``c - x``. ``G`` is coercive and the weights range over a compact
  polytope, so by Sion's minimax theorem the best weights attain ``min G``
  and their primal point is the minimiser of ``G``; ``_newton`` finds them.

Both Newton problems are one: weights ``theta`` on rows
``k_r |y|^2 - 2 d_r.y + q_r`` maximise ``q.theta - |D^T theta|^2 / (k.theta
+ sigma)`` over a polytope ``A theta >= b``. The farthest dual has ball rows
(``k = 1``) at ``sigma = -1``; the witness dual adds the outer ball as a row
with ``k = -1``, ``d = 0`` and ``q = r^2`` at ``sigma = 0``, which is the
bound at ``sigma = -t`` plus ``t r^2``. ``_newton`` takes the rows, ``sigma``
and the polytope as data and runs primal-dual interior-point steps on them.

No verdict rests on rounded arithmetic. Every float is a dyadic rational,
so ``_dyadic_rows`` writes the rows about ``z`` as integers over one power of
two, ``_dual_sums`` the weighted sums and ``_bound`` the bound as an exact
fraction. A point lies in ``C`` exactly when none of its row values about it
is positive, and ``_sqrt`` rounds a square root in a chosen direction,
checked in integers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .convexfn import Affine, BallQuad

# steps of the dual ascent before the certificate attempt gives up
CERTIFICATE_STEPS = 1_000
# Newton steps of each solve of the farthest or the witness dual before the
# bracket or the bound is read
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


def _dyadic_rows(constraints, origin) -> DyadicRows | None:
    """The rows of ``constraints`` about ``origin`` in integers; None if a node is neither kind.

    ``values`` are exact, so ``origin`` lies in the intersection exactly when
    none of them is positive.
    """
    if not all(isinstance(g, (BallQuad, Affine)) for g in constraints):
        return None
    quadratic = [isinstance(g, BallQuad) for g in constraints]
    coords = [_ratios((g.center if ball else g.a).tolist()) for g, ball in zip(constraints, quadratic)]
    consts = _ratios([g.offset if ball else g.b for g, ball in zip(constraints, quadratic)])
    z = _ratios([float(u) for u in origin])
    # one bit beyond the coordinates keeps a_j / 2 integral, and 2 b covers
    # the offsets and shifts, which sit on the squared scale
    b = max(_bits(z + [r for row in coords for r in row]) + 1, (_bits(consts) + 1) // 2)
    Z = _at(z, b)
    linear, values = [], []
    for ball, row, const in zip(quadratic, coords, _at(consts, 2 * b)):
        row = _at(row, b)
        if ball:
            u = [p - w for p, w in zip(row, Z)]
            values.append(sum(p * p for p in u) + const)
        else:
            u = [-(p >> 1) for p in row]
            values.append(sum(p * w for p, w in zip(row, Z)) + const)
        linear.append(u)
    return DyadicRows(quadratic, linear, values, b)


def _dual_sums(rows: DyadicRows, weights) -> DualSums | None:
    """``s``, ``S`` and ``v`` of ``rows`` under ``weights``, one per row in row order.

    None unless there is one finite, non-negative weight per row.
    """
    weights = [float(w) for w in weights]
    if len(weights) != len(rows.values) or not all(w >= 0.0 and math.isfinite(w) for w in weights):
        return None
    ratios = _ratios(weights)
    a = _bits(ratios)
    W = _at(ratios, a)
    S = sum(w * q for w, q in zip(W, rows.values))
    v = [0] * len(rows.linear[0])
    for w, u in zip(W, rows.linear):
        if w:
            v = [vk + w * uk for vk, uk in zip(v, u)]
    return DualSums(sum(w for w, k in zip(W, rows.quadratic) if k), S, v, a, rows.b)


def _bound(rows: DyadicRows, weights, sigma: float) -> tuple[int, int] | None:
    """``(num, den)``, ``den > 0``, with ``num / den = S - |v|^2 / (s + sigma)`` exactly.

    None when the weights are not valid for ``_dual_sums`` or ``s + sigma <= 0``.
    """
    sums = _dual_sums(rows, weights)
    if sums is None:
        return None
    # s + sigma over the finer of the two powers of two, 2**e
    ratio = _ratios([float(sigma)])
    e = max(sums.a, _bits(ratio))
    t = (sums.s << (e - sums.a)) + _at(ratio, e)[0]
    if t <= 0:
        return None
    return sums.S * t - (sum(u * u for u in sums.v) << (e - sums.a)), t << (sums.a + 2 * sums.b)


def _sqrt(num: int, den: int, *, up: bool) -> float:
    """``sqrt(num / den)`` rounded to a float in one direction, checked exactly; ``den > 0``.

    ``up`` gives the least float ``r >= 0`` with ``r^2 >= num / den``;
    otherwise the greatest float with ``r^2 <= num / den``, for ``num >= 0``.
    """

    def holds(r: float) -> bool:
        p, q = r.as_integer_ratio()
        lhs, rhs = p * p * den, num * q * q
        return lhs >= rhs if up else lhs <= rhs

    # move out until the bound holds, then back while it still does
    out, back = (math.inf, 0.0) if up else (0.0, math.inf)
    r = math.sqrt(max(num, 0) / den)
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

    The check is ``S - |v|^2 / s > 0`` at the anchor weight ``sigma = 0``
    about the origin. Rows of zero weight take no part, whatever their kind;
    a weighted row that is neither a ball nor a halfspace proves nothing.
    """
    if len(weights) != len(constraints):
        return False
    used = [(g, w) for g, w in zip(constraints, weights) if float(w) != 0.0]
    if not used:
        return False
    rows = _dyadic_rows([g for g, _ in used], [0.0] * used[0][0].dim)
    bound = None if rows is None else _bound(rows, [w for _, w in used], 0)
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


def _dual_ascent(cs):
    """Ascend the bound at ``sigma = 0`` over the rows of the ``ConstraintSet`` ``cs``.

    ``cs`` holds one ball at least and no node of another kind. Projected
    gradient from uniform ``lambda`` and ``mu = 0``, keeping ``lambda`` in the
    simplex and ``mu >= 0``, with the step ``1 / (2 ||M||_F^2)``,
    ``M = [C; -A/2]`` over the rows centred at the mean ball centre. That
    step is at most the inverse Lipschitz constant ``1 / (2 ||M||_2^2)`` of the
    dual gradient, so every step raises the dual value ``D`` until the
    multipliers are optimal, and it needs no SVD. Stops at the first
    ``D > 0``, at the first step that does not raise ``D`` or after
    ``CERTIFICATE_STEPS`` steps; returns ``(lambda, mu, x, D, steps)`` with
    ``x`` the primal point, the minimizer of the Lagrangian.
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


def certify_empty(cs) -> tuple[tuple[float, ...], float, int] | None:
    """Multipliers that prove the ``ConstraintSet`` ``cs`` empty, checked exactly, or None.

    Returns the ascent's weights in constraint order, its dual value and its
    step count. None when the ascent finds no proof, or when ``cs`` has no
    ball or a node that is neither a ball nor a halfspace.
    """
    if cs.rows.others or cs.rows.centers is None:
        return None
    lam, mu, _, D, steps = _dual_ascent(cs)
    lam_it, mu_it = iter(lam.tolist()), iter(mu.tolist())
    weights = [next(lam_it) if isinstance(g, BallQuad) else next(mu_it) for g in cs.constraints]
    if not (D > 0.0 and proves_empty(cs.constraints, weights)):
        return None
    return tuple(weights), D, steps


def deep_point(cs) -> np.ndarray:
    """The ascent's primal point over the balls of ``cs``: the deepest point once it converges."""
    return _dual_ascent(cs)[2]


def _solve_spd(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``H^-1 g`` for a symmetric positive definite ``H``: elimination needs no pivots.

    Elementwise numpy only, as the Newton steps build ``H``:
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


def _to_boundary(values: list[float], steps: list[float]) -> float:
    """The largest ``a <= 1`` that keeps each ``value + a * step`` above 0.5% of ``value``."""
    a = 1.0
    for v, dv in zip(values, steps):
        if dv < 0.0:
            a = min(a, -0.995 * v / dv)
    return a


def _primal(k: np.ndarray, D: np.ndarray, o: np.ndarray, sigma: float, theta: np.ndarray):
    """``(u, y, E, F)`` at the weights ``theta`` of the rows ``k_r |d_r - k_r y|^2 + o_r``.

    ``u = k.theta + sigma``, ``y = D^T theta / u`` is the primal point, the
    rows of ``E`` are ``d_r - k_r y`` and ``F`` holds the row values at ``y``.
    """
    u = float(k @ theta) + sigma
    y = (theta @ D) / u
    E = D - k[:, None] * y
    return u, y, E, k * (E * E).sum(axis=1) + o


def _newton(k: np.ndarray, D: np.ndarray, o: np.ndarray, sigma: float,
            A: np.ndarray, b: np.ndarray, theta: np.ndarray, tol: float) -> np.ndarray:
    """Weights in the polytope ``A theta >= b`` that maximise the bound ``B``.

    Row ``r`` is ``k_r |y|^2 - 2 d_r.y + q_r = k_r |d_r - k_r y|^2 + o_r``
    with ``k_r = +-1`` and ``d_r`` the rows of ``D``; ``B(theta) = q.theta -
    |D^T theta|^2 / u`` with ``u = k.theta + sigma`` is the Lagrangian's
    minimum over ``y`` (module docstring). Its gradient is ``F``, the row
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
        Z = A * (z / slack)[:, None]
        H = (2.0 / u) * (E[:, None, :] * E[None, :, :]).sum(axis=2) + (Z[:, :, None] * A[:, None, :]).sum(axis=0)
        # two equal centres leave E E^T flat along their difference: a
        # relative ridge keeps that pivot above the rounding of the other terms
        H.flat[::len(H) + 1] *= 1.0 + 1e-14
        step = _solve_spd(H, F + (target / slack) @ A)
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


def farthest_bracket(cs, c: np.ndarray, witness: np.ndarray, floor: float):
    """``(r_lo, r_hi, witness, lambda)``: ``r_lo <= r_star <= r_hi`` over the balls of ``cs``.

    ``r_star`` is the farthest distance from ``c``; ``witness`` is a member of
    C and ``floor`` a lower bound on ``r_star``. ``lambda`` maximises the
    S-lemma bound ``-phi`` over ``lambda >= 0``, ``sum lambda >= 1`` by
    ``_newton`` from uniform multipliers with ``sum lambda = 2``, to an
    error of ``1e-14 max_k |c_k - c|^2``; one ball takes the optimum
    ``lambda = 1 + |c_1 - c| / R`` instead. ``r_hi`` is the least float
    with ``r_hi^2 >= phi(lambda)``. ``r_lo`` is the distance from ``c``,
    rounded down, of ``x(lambda)`` when it lies exactly in C, or else of
    ``x(lambda)`` pulled toward ``witness`` by the first of ``2^-60, 2^-59,
    ..., 1`` that does; that point becomes the returned witness. When none
    does, ``r_lo`` is ``floor`` and ``witness`` comes back as it was given.
    """
    d = cs.rows.centers - c
    o = np.array(cs.rows.offsets)
    m = len(d)
    k = np.ones(m)
    lam = np.full(m, 2.0 / m)
    if m > 1:
        A, b = np.vstack((np.eye(m), k)), np.append(np.zeros(m), 1.0)
        lam = _newton(k, d, o, -1.0, A, b, lam, 1e-14 * float((d * d).sum(axis=1).max()))
    elif DUAL_STEPS:
        lam[0] = 1.0 + math.sqrt(float(d[0] @ d[0]) / -o[0])
    y = _primal(k, d, o, -1.0, lam)[1]
    num, den = _bound(_dyadic_rows(cs.constraints, c), lam.tolist(), -1)
    r_hi = _sqrt(-num, den, up=True)
    member = _member_near(cs.constraints, c + y, witness)
    if member is None:
        return floor, r_hi, witness, lam
    # |member - c|^2 is the value at member of the row |x - c|^2 + 0
    rows = _dyadic_rows([BallQuad(c, 0.0)], member)
    return _sqrt(rows.values[0], 1 << (2 * rows.b), up=False), r_hi, member, lam


class WitnessDual(NamedTuple):
    """A point for the minimum of ``G``, a lower bound on it, and the weights behind both.

    ``x`` is the primal point ``x(w, t)`` and ``g_lower`` the bound at
    ``multipliers = (w_1, ..., w_m, t)``, checked exactly and rounded down;
    it is ``-inf`` when the weights leave the polytope in exact arithmetic.
    """

    x: np.ndarray
    g_lower: float
    multipliers: tuple[float, ...]


def witness_dual(cs, c: np.ndarray, r: float, gap: float) -> WitnessDual:
    """The witness dual of the balls of ``cs`` against ``B(c, r)``: ``x(w, t)``, ``g_lower`` and ``(w, t)``.

    ``f`` is ``|x - c|^2`` minus the float ``r * r``, as the rows hold their
    offsets: the outer row has ``k = -1``, ``d = 0`` and ``o = r * r``, so
    that ``B`` at ``sigma = 0`` is ``t r^2 + S - |v|^2 / (s - t)``. The
    weights maximise it by ``_newton`` from ``w_i = (m + 1) / 2m`` and
    ``t = 1/2`` to an error of ``gap / 2``, which bounds ``G(x)`` minus the
    bound; the other half of ``gap`` covers the rounding of ``g_lower``, the
    same bound from ``_bound`` at ``sigma = -t``. For one ball ``w = 1`` is
    forced and the best ``t``, ``1 - |c_1 - c| / r`` clipped at 0, is taken.
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
    ratios = _ratios(w)
    a = _bits(ratios)
    bound = None
    if max(w) <= 1.0 and 0.0 <= t <= 1.0 and sum(_at(ratios, a)) >= 1 << a:
        bound = _bound(_dyadic_rows(cs.constraints, c), w, -t)
    g_lower = -math.inf
    if bound is not None:
        num, den = bound
        (pt, qt), (pr, qr) = t.as_integer_ratio(), (r * r).as_integer_ratio()
        g_lower = _floor(num * qt * qr + pt * pr * den, den * qt * qr)
    return WitnessDual(c + y, g_lower, tuple(w) + (t,))


def witness_value(cs, c: np.ndarray, r: float, x: np.ndarray) -> float:
    """``G(x)`` of the balls of ``cs`` against ``B(c, r)``, exactly from the rows about ``x``, rounded up.

    ``G = -min(f, 0) + sum max(g_i, 0) + min(max g_i, 0)`` with ``f =
    |x - c|^2`` minus the float ``r * r``, as ``witness_dual`` reads it.
    """
    rows = _dyadic_rows(cs.constraints + (BallQuad(c, -(r * r)),), x)
    *g, f = rows.values
    G = max(-f, 0) + sum(max(v, 0) for v in g) + min(max(g), 0)
    return -_floor(-G, 1 << (2 * rows.b))
