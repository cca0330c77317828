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
  from the best weights, which ``_newton`` finds. The covering check of the
  ``application`` module reads the other side too, from the same solve
  (``distance_bounds``): the primal point of the best weights, the
  projection of ``c`` once they are optimal, pulled into ``C`` is a member
  whose distance from ``c`` bounds ``d(c, C)`` above.
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

No verdict rests on an unbounded rounding error. Every float is a dyadic
rational, so ``_dyadic_rows`` writes the rows about ``z`` as integers over one
power of two and ``_bound`` the bound as an exact fraction; ``_floor`` rounds
a fraction down and ``_sqrt`` a square root in a chosen direction, checked in
integers. The values the module reports (``g_lower``, ``witness_value``, the
margins and both ends of the farthest bracket) are each the nearest float on
one side of an exact value, and each is read exactly in integers, from the
rows of the balls about the centre ``c`` that ``BallsAbout`` builds once.
Only the two checks whose answer is a sign, that a point lies in ``C`` (none
of its row values is positive) and that weights prove ``C`` empty, run in
floats first: they read plain float values (``_inside_in_floats``,
``_proves_empty_in_floats``) and count when the value is farther from zero
than its error bound, with every input in the range where nothing underflows
or overflows (``_in_range``). Any other case goes to the integers, so the
answer is the same either way. The witness weights' ``sum w >= 1`` is exact
in floats (``_reaches_one``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lshift, mul, sub
from typing import NamedTuple

import numpy as np

# steps of the dual ascent before the certificate attempt gives up
CERTIFICATE_STEPS = 1_000
# Newton steps of each solve of the farthest, the distance or the witness
# dual before the bracket or the bound is read
DUAL_STEPS = 100


class DyadicRows(NamedTuple):
    """Ball and halfspace rows about an origin ``z``, in integers, the ``balls`` ball rows first.

    Each row is ``k |y|^2 - 2 u.y + q`` in ``y = x - z``: a ball has ``k = 1``
    and ``u = c_i - z``, a halfspace ``k = 0`` and ``u = -a_j / 2``, and ``q``
    is the row's value at ``z``. ``linear[r]`` is ``u`` times ``2**b``,
    ``values[r]`` is ``q`` times ``2**(2 b)`` and ``origin`` is ``z`` times
    ``2**b``; every float is a dyadic rational, so one power of two makes all
    of them integers with no rounding.
    """

    balls: int
    linear: list[list[int]]
    values: list[int]
    origin: list[int]
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


def _dyadic_rows(rows, origin) -> DyadicRows:
    """The ball and then the halfspace rows of the ``ConstraintRows`` ``rows`` about ``origin``, in integers.

    ``values`` are exact, so ``origin`` lies in the intersection of these
    rows exactly when none of them is positive. Other nodes take no part.
    """
    centers, offsets, normals, shifts, *_ = rows
    m, n = len(centers), len(origin)
    points = _dyadic(np.concatenate([origin, centers, normals], axis=None))
    consts = _dyadic(offsets + shifts)
    # one bit beyond the coordinates keeps a_j / 2 integral, and 2 b covers
    # the offsets and shifts, which sit on the squared scale
    b = max(_bits(points) + 1, (_bits(consts) + 1) // 2)
    flat = _at(points, b)
    Z = flat[:n]
    linear, values = [], []
    for r, const in enumerate(_at(consts, 2 * b), 1):
        row = flat[r * n:(r + 1) * n]
        if r <= m:
            u = list(map(sub, row, Z))
            values.append(sum(map(mul, u, u)) + const)
        else:
            u = [-(p >> 1) for p in row]
            values.append(sum(map(mul, row, Z)) + const)
        linear.append(u)
    return DyadicRows(m, linear, values, Z, b)


def _bound(rows: DyadicRows, offset: float, weights: list[float]) -> tuple[int, int] | None:
    """``(num, den)``, ``den > 0``, with ``num / den = S - |v|^2 / s`` exactly, over ``rows`` and an anchor.

    ``weights`` hold one weight per row and then the anchor's, of either
    sign. The anchor is the ball row ``|y|^2 + offset`` about the rows'
    origin, so it adds its weight to ``s`` and its weight times ``offset`` to
    ``S``, and nothing to ``v``. The weights and ``offset`` are taken times
    one power of two, ``2**a``, so ``s`` is summed times ``2**a``, ``v``
    times ``2**(a + b)`` and ``S`` times ``2**(a + e)``, ``e = max(2 b,
    a)``: an offset finer than the rows shifts two sums, not the rows. None
    unless every weight is finite and ``s > 0``; at ``s <= 0`` the
    Lagrangian is unbounded below.
    """
    if not all(map(math.isfinite, weights)):
        return None
    parts = _dyadic(weights + [offset])
    a = _bits(parts)
    *W, w, o = _at(parts, a)
    s = sum(W[:rows.balls], w)
    if s <= 0:
        return None
    e = max(2 * rows.b, a)
    S = (sum(map(mul, W, rows.values)) << (e - 2 * rows.b)) + (w * o << (e - a))
    v = [sum(map(mul, W, column)) for column in zip(*rows.linear)]
    return S * s - (sum(map(mul, v, v)) << (e - 2 * rows.b)), s << (a + e)


def _walk(holds, x: float, out: float, back: float) -> float:
    """The float where the monotone check ``holds`` turns, searched from ``x``.

    Steps toward ``out`` until ``holds`` is true, then toward ``back`` while
    the next float still holds, stopping at ``back``.
    """
    while not holds(x):
        x = math.nextafter(x, out)
    while x != back and holds(math.nextafter(x, back)):
        x = math.nextafter(x, back)
    return x


def _sqrt(num: int, den: int, *, up: bool) -> float:
    """``sqrt(num / den)`` rounded to a float in one direction, checked in integers; ``den > 0``.

    ``up`` gives the least float ``r >= 0`` with ``r^2 >= num / den``;
    otherwise the greatest float with ``r^2 <= num / den``. For ``num <= 0``
    both are 0.0: a negative ``num / den`` reads as 0. The walk starts from
    the integer square root of ``num / den`` to 56 bits, an ulp or two from
    the answer even where ``num / den`` underflows, so that it never steps
    up from 0 one subnormal at a time.
    """
    if num <= 0:
        return 0.0

    def holds(r: float) -> bool:
        p, q = r.as_integer_ratio()
        lhs, rhs = p * p * den, num * q * q
        return lhs >= rhs if up else lhs <= rhs

    k = (den.bit_length() - num.bit_length()) // 2 + 56
    root = math.isqrt((num << 2 * k) // den if k >= 0 else num // (den << -2 * k))
    return _walk(holds, math.ldexp(root, -k), *((math.inf, 0.0) if up else (0.0, math.inf)))


def _floor(num: int, den: int) -> float:
    """The greatest float at most ``num / den``, checked in integers; ``den > 0``."""
    x = num / den  # int division rounds to the nearest float
    p, q = x.as_integer_ratio()
    return math.nextafter(x, -math.inf) if p * den > num * q else x


def _minus(r: float, R: float) -> float:
    """The greatest float at most ``r - R``, exactly: TwoSum's error term gives the side of the rounding."""
    s = r - R
    t = s - r
    return s if (r - (s - t)) - (R + t) >= 0.0 else math.nextafter(s, -math.inf)


# the unit roundoff of float64
_U = 2.0 ** -53


def _in_range(*parts) -> bool:
    """Every value of ``parts`` (arrays or lists) is finite, and 0 or of magnitude in ``[2^-200, 2^200)``.

    That is the range of the two sign filters. A nonzero input is then a
    multiple of ``2^-252``, and so is a difference of two, so every value a
    filter forms from them by sums, squares and products, up to degree four,
    is 0 or lies between ``2^-1010`` and ``2^1000`` in magnitude: none
    underflows or overflows, and every operation errs by at most ``u =
    2^-53`` relative to its exact result.
    ``frexp`` gives each value a fraction in ``(-1, 1)``, or a non-finite
    one, so one sum of the fractions checks that all are finite.
    """
    frac, exp = np.frexp(np.concatenate(parts, axis=None))
    return (math.isfinite(np.add.reduce(frac))
            and -199 <= np.minimum.reduce(exp) and np.maximum.reduce(exp) <= 200)


def _inside_in_floats(cs, x: np.ndarray) -> bool | None:
    """Whether ``x`` lies in the ``ConstraintSet`` ``cs``, from float row values; None when they cannot tell.

    With ``gamma_k = k u / (1 - k u)``, a ball row ``|x - c|^2 + o``, from
    ``x - c``, its square, a sum of ``n`` terms in any order and one more
    addition, errs by at most ``gamma_{n+3} (|x - c|^2 + |o|)``, and a
    halfspace row ``a.x + b``, from ``n`` products, their sum and one more
    addition, by at most ``gamma_{n+1} (|a|.|x| + |b|)``, with ``|a|.|x| <=
    |a| |x|``. Each row is taken at twice that, ``2 (n + 4) u`` and ``2 (n +
    2) u`` times the float reading of the sum, which also covers the rounding
    of the bound itself. A row above its bound puts ``x`` outside, and
    ``x`` is inside when every row is below minus its bound. None for a row
    within its bound of 0, a node of another kind, or an input out of
    ``_in_range``.
    """
    centers, offsets, normals, shifts, others, _ = cs.rows
    if others or not _in_range(x, centers, offsets, normals, shifts):
        return None
    n = len(x)
    settled = True
    if offsets:
        D = x - centers
        k = 2 * (n + 4) * _U
        for s, o in zip((D * D).sum(axis=1).tolist(), offsets):
            value, err = s + o, k * (s + abs(o))
            if value > err:
                return False
            settled = settled and value < -err
    if shifts:
        xx = float(x @ x)
        k = 2 * (n + 2) * _U
        for ax, aa, b in zip((normals @ x).tolist(), (normals * normals).sum(axis=1).tolist(), shifts):
            value, err = ax + b, k * (math.sqrt(aa * xx) + abs(b))
            if value > err:
                return False
            settled = settled and value < -err
    return True if settled else None


def _inside_exactly(cs, x: np.ndarray) -> bool:
    """``x`` lies in the intersection of the rows of ``cs``, checked in integers."""
    return max(_dyadic_rows(cs.rows, x).values) <= 0


def _inside(cs, x: np.ndarray) -> bool:
    """``x`` lies in the intersection of the rows of ``cs``, exactly: in floats when they settle it.

    ``cs`` holds no node of another kind, which neither check reads.
    """
    inside = _inside_in_floats(cs, x)
    return _inside_exactly(cs, x) if inside is None else inside


def _proves_empty_in_floats(cs, weights: list[float]) -> bool | None:
    """Whether ``weights`` prove ``cs`` empty, from the bound in floats; None when it cannot tell.

    ``weights`` are non-negative floats, one per constraint. About the
    origin a ball has ``u = c`` and ``q = |c|^2 + o``, a halfspace ``u = -a /
    2`` and ``q = b``; the bound is positive when ``T = S s - |v|^2`` is. Over
    ``N`` rows, with ``gamma_k`` as in ``_inside_in_floats``, ``S`` (row
    values from ``n + 1`` roundings, then ``N`` products and their sum) errs by
    at most ``gamma_{n+N+1} S'``, where ``S'`` is ``S`` with every ``q``
    replaced by ``|c|^2 + |o|`` or ``|b|``; ``s`` (rounded once) by ``u s``;
    and each entry of ``v`` (at most ``N`` products, their sum and one
    subtraction) by ``gamma_{N+1}`` times the same sum over ``|u|``, whose
    norm is at most ``V = sum w |u|``. With the products and the difference
    ``T`` errs by at most ``gamma_{n+2N+5} (S' s + V^2)``, taken at ``2 (n +
    2 N + 8) u`` times the float reading of ``S' s + V^2``. None unless every
    constraint is a ball or a halfspace, every input is in ``_in_range`` and
    ``T`` is farther from 0 than that.
    """
    centers, offsets, normals, shifts, others, order = cs.rows
    if others or not _in_range(weights, centers, offsets, normals, shifts):
        return None
    n, m = cs.dimension, len(centers)
    s = S = S_abs = V = 0.0
    v = np.zeros(n)
    if offsets:
        wb = [weights[i] for i in order[:m]]
        s = math.fsum(wb)
        for w, cc, o in zip(wb, (centers * centers).sum(axis=1).tolist(), offsets):
            S += w * (cc + o)
            S_abs += w * (cc + abs(o))
            V += w * math.sqrt(cc)
        v = np.dot(wb, centers)
    if shifts:
        wh = [weights[i] for i in order[m:]]
        for w, aa, b in zip(wh, (normals * normals).sum(axis=1).tolist(), shifts):
            S += w * b
            S_abs += w * abs(b)
            V += 0.5 * w * math.sqrt(aa)
        v = v - 0.5 * np.dot(wh, normals)
    T = S * s - float(v @ v)
    err = 2 * (n + 2 * len(weights) + 8) * _U * (S_abs * s + V * V)
    return True if T > err else False if T < -err else None


def _proves_empty_exactly(cs, weights: list[float]) -> bool:
    """``weights``, non-negative and one per constraint, prove ``cs`` empty, checked in integers.

    A row of zero weight adds nothing to ``S``, ``s`` or ``v``; a nonzero
    weight on a node of another kind proves nothing.
    """
    rows = cs.rows
    kept = len(weights) - len(rows.others)
    if any(weights[i] for i in rows.order[kept:]):
        return False
    # no anchor: it takes the weight 0
    bound = _bound(_dyadic_rows(rows, [0.0] * cs.dimension), 0.0,
                   [weights[i] for i in rows.order[:kept]] + [0.0])
    return bound is not None and bound[0] > 0


def proves_empty(cs, weights) -> bool:
    """``weights``, one per constraint of the ``ConstraintSet`` ``cs``, prove it empty, exactly.

    The check is ``S - |v|^2 / s > 0`` about the origin, with no anchor,
    settled in floats when the error bound of ``_proves_empty_in_floats``
    allows and otherwise in integers. Rows of zero weight take no part,
    whatever their kind; a negative or non-finite weight, or a weighted row
    that is neither a ball nor a halfspace, proves nothing: the bound holds
    on the intersection only under finite non-negative weights.
    """
    if len(weights) != len(cs.constraints):
        return False
    weights = [float(w) for w in weights]
    if not all(w >= 0.0 for w in weights):
        return False
    empty = _proves_empty_in_floats(cs, weights)
    return _proves_empty_exactly(cs, weights) if empty is None else empty


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

    def verify(self, cs) -> bool:
        """True when ``weights`` prove the ``ConstraintSet`` ``cs`` empty, checked exactly.

        The sign of the bound is settled in floats when a proven error bound
        decides it, and otherwise in integers (``proves_empty``).
        """
        return proves_empty(cs, self.weights)


class BallsAbout:
    """The balls of a ``ConstraintSet`` ``cs`` seen from a centre ``c``: what every reading about ``c`` shares.

    ``d`` holds the centres less ``c`` and ``offsets`` the balls' offsets, in
    floats, for the Newton solves; ``rows`` holds the balls about ``c`` in
    integers (``_dyadic_rows``), built once. Each reading rounds an exact
    value to the float on one side of it: the bound of the balls and one
    anchor ``|x - c|^2 + offset`` (``_bound`` of ``rows``), and at a point
    ``x`` the witness ``G`` (``witness_value``) and the distance ``|x - c|``
    (``distance``). The last two take ``y = x - c`` in integers, where a
    ball row is ``|y|^2 - 2 u.y + q``. An anchor offset or a point that
    needs more bits than the rows' ``b`` shifts what a reading takes from
    the rows, which are never rebuilt.
    """

    def __init__(self, cs, c: np.ndarray):
        self.cs, self.c = cs, c
        self.d = cs.rows.centers - c
        self.offsets = cs.rows.offsets
        self.rows = _dyadic_rows(cs.rows, c)

    def _from_c(self, x: np.ndarray, rr: float) -> tuple[list[int], int, int]:
        """``(y, rr, k)``: ``x - c`` times ``2**(b + k)`` and ``rr`` times ``2**(2 (b + k))``, in integers.

        ``k >= 0`` is the fewest bits beyond the rows' ``b`` that make ``x``
        and ``rr`` integral times ``2**(b + k)``; the integers of ``c``
        shift by ``k``.
        """
        b = self.rows.b
        parts = _dyadic(x.tolist() + [rr])
        k = max(0, _bits(parts) - b)
        *X, rr = _at(parts, b + k)
        return list(map(sub, X, (z << k for z in self.rows.origin))), rr << (b + k), k

    def witness_value(self, r: float, x: np.ndarray) -> float:
        """``G(x)`` of the balls against ``B(c, r)``, proven and rounded up.

        ``G = -min(f, 0) + sum max(g_i, 0) + min(max g_i, 0)`` with ``f =
        |x - c|^2`` minus the float ``r * r``, as ``witness_dual`` reads it.
        In ``y`` times ``2**(b + k)`` every row is an integer times ``2**(2
        (b + k))``: ``f`` is ``|y|^2 - rr`` and ``g_i`` is ``|y|^2 - 2 u_i.y
        + q_i``, with ``u_i`` shifted by ``k`` and ``q_i`` by ``2 k``.
        """
        y, rr, k = self._from_c(x, r * r)
        yy = sum(map(mul, y, y))
        g = [yy - (sum(map(mul, y, u)) << (k + 1)) + (q << 2 * k)
             for u, q in zip(self.rows.linear, self.rows.values)]
        G = max(rr - yy, 0) + sum(v for v in g if v > 0) + min(max(g), 0)
        return -_floor(-G, 1 << 2 * (self.rows.b + k))

    def distance(self, x: np.ndarray, *, up: bool) -> float:
        """``|x - c|``, proven and rounded up or down: ``_sqrt`` of ``|y|^2``."""
        y, _, k = self._from_c(x, 0.0)
        return _sqrt(sum(map(mul, y, y)), 1 << 2 * (self.rows.b + k), up=up)


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
    centers, offsets, normals, shifts, *_ = cs.rows
    m = len(centers)
    # D does not change when the rows are translated together, but ||U||_F
    # does: centring the balls at their mean lets the step follow the spread
    # of the centres, not their distance from 0
    z = centers.mean(axis=0)
    U = centers - z
    q = offsets + (U * U).sum(axis=1)
    if shifts:
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


def certify_empty(cs) -> tuple[np.ndarray, InfeasibilityCertificate | None] | None:
    """One certificate ascent over the ``ConstraintSet`` ``cs``: a proof that it is empty, or a point of it.

    Returns ``(x, certificate)`` with ``x`` the ascent's primal point: with a
    certificate its weights prove ``C`` empty, and with None ``x`` lies in
    ``C``, each checked exactly. The ascent stops at its first primal point
    inside ``C`` in floats, so on a nonempty set it takes no step past the
    first point it can offer. None when it settles neither, or when ``cs``
    has no ball or a node that is neither a ball nor a halfspace.
    """
    if cs.rows.others or not cs.rows.offsets:
        return None
    theta, x, D, steps = _dual_ascent(cs, stop_inside=True)
    # theta holds the balls first, then the halfspaces: put it back in constraint order
    weights = [w for _, w in sorted(zip(cs.rows.order, theta.tolist()))]
    if D > 0.0 and proves_empty(cs, weights):
        return x, InfeasibilityCertificate(tuple(weights), D, steps)
    if _inside(cs, x):
        return x, None
    return None


def deep_point(cs) -> np.ndarray:
    """The ascent's primal point over the balls of ``cs``: the deepest point once it converges."""
    return _dual_ascent(cs)[1]


def _to_boundary(values: list[float], steps: list[float]) -> float:
    """The largest ``a <= 1`` that keeps each ``value + a * step`` above 0.5% of ``value``."""
    a = 1.0
    for v, dv in zip(values, steps):
        if dv < 0.0:
            r = -0.995 * v / dv
            if r < a:
                a = r
    return a


def _primal(k: np.ndarray, kc: np.ndarray, D: np.ndarray, o: np.ndarray, sigma: float, theta: np.ndarray):
    """``(u, y, E, F)`` at the weights ``theta`` of the rows ``k_r |d_r - k_r y|^2 + o_r``.

    ``kc`` is ``k`` as a column. ``u = k.theta + sigma``, with ``sigma`` the
    fixed weight of the anchor ``|y|^2``; ``y = D^T theta / u`` is the primal
    point, the rows of ``E`` are ``d_r - k_r y`` and ``F`` holds the row
    values at ``y``.
    """
    u = float(k @ theta) + sigma
    y = (theta @ D) / u
    E = D - kc * y
    return u, y, E, k * np.add.reduce(E * E, axis=1) + o


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
    kc, AT = k[:, None], A.T

    def at(theta, slack, z):
        # slack is A theta - b, which the interior check has just formed
        u, _, E, F = _primal(k, kc, D, o, sigma, theta)
        if z is None:
            z = sum(map(abs, F.tolist())) / p / slack
        zs = float(z @ slack)
        return zs + sum(map(abs, (F + z @ A).tolist())), theta, z, slack, zs, u, E, F

    cur = best = at(theta, A @ theta - b, None)
    for _ in range(DUAL_STEPS):
        if best[0] <= tol:
            break
        _, theta, z, slack, zs, u, E, F = cur
        target = zs / (20.0 * p)
        H = (2.0 / u) * (E @ E.T) + AT @ (A * (z / slack)[:, None])
        # two equal centres leave E E^T flat along their difference, where the
        # barrier terms can round away against a large one on sum w >= 1 and
        # leave H singular in floats: a relative ridge keeps it definite
        H.reshape(-1)[::len(H) + 1] *= 1.0 + 1e-14
        step = np.linalg.solve(H, F + (target / slack) @ A)
        ds = A @ step
        dz = (target - z * ds) / slack - z
        theta = theta + _to_boundary(slack.tolist(), ds.tolist()) * step
        slack = A @ theta - b
        if not (slack > 0.0).all():  # a NaN slack stops the solve too
            break
        cur = at(theta, slack, z + _to_boundary(z.tolist(), dz.tolist()) * dz)
        if cur[0] < best[0]:
            best = cur
    return best[1]


def _member_near(cs, x: np.ndarray, toward: np.ndarray) -> np.ndarray | None:
    """``x``, or ``x`` pulled toward ``toward`` by the first of ``2^-60, ..., 1`` exactly in ``cs``."""
    if _inside(cs, x):
        return x
    last = x
    for k in range(60, -1, -1):
        y = x + 2.0 ** -k * (toward - x)
        if not np.array_equal(y, last):
            if _inside(cs, y):
                return y
            last = y
    return None


def _anchored(about: BallsAbout, sigma: float):
    """``(lambda, y)`` of the balls of ``about`` and the anchor ``|x - c|^2`` at weight ``sigma``.

    ``sigma`` is -1 for the farthest dual and +1 for the distance dual.
    ``lambda`` maximises the bound over ``lambda >= 0``, and ``sum lambda >=
    1`` when ``sigma = -1``, by ``_newton`` from uniform multipliers with
    ``sum lambda = 2``, to an error of ``1e-14 max_k |c_k - c|^2``. One ball
    takes the optimum ``lambda = |c_1 - c| / R - sigma`` instead, unless it
    leaves ``lambda`` or ``lambda + sigma`` at 0 or below (``c = c_1`` in the
    farthest dual, ``c`` in the ball in the distance dual), where the start
    stays. ``y`` is the primal point less ``c``.
    """
    d = about.d
    o = np.array(about.offsets)
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
    return lam, _primal(k, k[:, None], d, o, sigma, lam)[1]


def farthest_bracket(about: BallsAbout, witness: np.ndarray, floor: float):
    """``(r_lo, r_hi, witness, lambda)``: ``r_lo <= r_star <= r_hi`` over the balls of ``about``.

    ``r_star`` is the farthest distance from ``about.c``; ``witness`` is a
    member of C and ``floor`` a lower bound on ``r_star``. ``lambda``
    maximises the S-lemma bound ``-phi`` (``_anchored`` at ``sigma = -1``);
    for one ball centred at ``c`` it stays at 2. ``phi(lambda)`` is minus the
    bound over the balls and the anchor row ``|x - c|^2`` at weight ``-1``,
    and ``r_hi`` the least float with ``r_hi^2 >= phi(lambda)``. ``r_lo``
    is the distance from ``c``, rounded down, of ``x(lambda)`` when it lies
    exactly in C, or else of ``x(lambda)`` pulled toward ``witness`` by the
    first of ``2^-60, 2^-59, ..., 1`` that does; that point becomes the
    returned witness. When none does, ``r_lo`` is ``floor`` and ``witness``
    comes back as it was given.
    """
    cs, c = about.cs, about.c
    lam, y = _anchored(about, -1.0)
    num, den = _bound(about.rows, 0.0, lam.tolist() + [-1.0])
    r_hi = _sqrt(-num, den, up=True)
    member = _member_near(cs, c + y, witness)
    if member is None:
        return floor, r_hi, witness, lam
    return about.distance(member, up=False), r_hi, member, lam


def _root(about: BallsAbout, weights: list[float]) -> float:
    """The square root, rounded down, of the distance dual's bound at ``weights``: a lower bound on ``d(c, C)``."""
    return _sqrt(*_bound(about.rows, 0.0, weights), up=False)


def distance_margin(about: BallsAbout, R: float, tol: float) -> tuple[float, np.ndarray | None]:
    """``(margin, y)``: a lower bound on ``d(c, C) - R`` over the balls of ``about``, proven and rounded down.

    On ``C`` every ball row is at most zero, so for ``lambda >= 0`` the bound
    over the balls and the anchor ``|x - c|^2`` at weight ``+1`` is at most
    ``d(c, C)^2``; its square root is rounded down, to 0 when the bound is
    not positive, and ``R`` comes off rounding down. The first weights
    tried are equal, ``lambda_i = t``, at the best scale in closed form: with
    ``v = sum (c_i - c)`` and ``Q = sum g_i(c)``, ``1 + t m = (1 - Q m /
    |v|^2)^(-1/2)``, and ``t = 0`` where that degenerates in floats. That is
    exact for one ball and proves a centre well outside ``C`` in one
    reading. Only a margin at most ``tol`` reads the bound again at the
    weights of ``_anchored``, the dual of projecting ``c`` onto ``C``, whose
    optimum is ``d(c, C)^2`` when ``C`` has an interior point. ``y`` is the
    primal point less ``c`` of those weights when the margin was read there,
    and None when the closed form decided.
    """
    d = about.d
    m, v = len(d), d.sum(axis=0)
    Q, vv = float(((d * d).sum(axis=1) + about.offsets).sum()), float(v @ v)
    ratio = 1.0 - Q * m / vv if vv > 0.0 else 1.0
    t = (ratio ** -0.5 - 1.0) / m if 0.0 < ratio < 1.0 else 0.0
    first = _minus(_root(about, [t] * m + [1.0]), R)
    if first > tol:
        return first, None
    lam, y = _anchored(about, 1.0)
    return _minus(_root(about, lam.tolist() + [1.0]), R), y


def distance_bounds(cs, c: np.ndarray, tol: float, toward: np.ndarray) -> tuple[float, float | None]:
    """``(lower, upper)`` on ``d(c, C)`` over the balls of ``cs``, from at most one solve of the distance dual.

    ``lower`` is ``distance_margin`` at ``R = 0``. Only when it is at most
    ``tol`` is ``upper`` read, and it is None otherwise: the distance from
    ``c``, proven and rounded up, of a member of ``C``. That member
    is the primal point of the weights behind ``lower``, which is the
    projection of ``c`` onto ``C`` once they are optimal, pulled toward the
    member ``toward`` by ``_member_near`` when it is not exactly in ``C``;
    ``upper`` is ``inf`` when no pull lands in ``C``.
    """
    about = BallsAbout(cs, c)
    lower, y = distance_margin(about, 0.0, tol)
    if lower > tol:
        return lower, None
    member = _member_near(cs, c + y, toward)
    return lower, math.inf if member is None else about.distance(member, up=True)


class WitnessDual(NamedTuple):
    """A point for the minimum of ``G``, a lower bound on it, and the weights behind both.

    ``x`` is the primal point ``x(w, t)`` and ``g_lower`` the bound at
    ``multipliers = (w_1, ..., w_m, t)``, checked exactly and rounded down;
    it is ``-inf`` when the weights leave the polytope in exact arithmetic.
    """

    x: np.ndarray
    g_lower: float
    multipliers: tuple[float, ...]


def _reaches_one(w: list[float]) -> bool:
    """``sum w >= 1``, exactly, for finite ``w``.

    ``math.fsum`` rounds the exact sum of ``w`` and -1 correctly, and that
    sum is a multiple of the least subnormal, so it rounds to a float of its
    own sign, or to 0 when it is 0.
    """
    return math.fsum(w + [-1.0]) >= 0.0


def witness_dual(about: BallsAbout, r: float, gap: float) -> WitnessDual:
    """The witness dual of the balls of ``about`` against ``B(c, r)``: ``x(w, t)``, ``g_lower`` and ``(w, t)``.

    ``f`` is ``|x - c|^2`` minus the float ``r * r``. ``_newton`` holds
    ``-f`` as the row with ``k = -1``, ``d = 0`` and ``o = r * r``, so that
    ``B`` at ``sigma = 0`` is ``t r^2 + S - |v|^2 / (s - t)``. The weights
    maximise it from ``w_i = (m + 1) / 2m`` and ``t = 1/2`` to an error of
    ``gap / 2``, which bounds ``G(x)`` minus the bound; the other half of
    ``gap`` covers the rounding of ``g_lower``, the same bound over the balls
    and the anchor ``f`` at the weights ``(w, -t)``. For one ball ``w = 1``
    is forced and the best ``t``, ``1 - |c_1 - c| / r`` clipped at 0, is
    taken.
    """
    d, c = about.d, about.c
    m, n = d.shape
    k = np.ones(m + 1)
    k[m] = -1.0
    D = np.concatenate((d, np.zeros((1, n))))
    o = np.array(about.offsets + [r * r])
    theta = np.full(m + 1, (m + 1) / (2 * m))
    theta[m] = 0.5
    if m > 1:
        # w and t in [0, 1], then sum w >= 1
        eye = np.eye(m + 1)
        total = np.ones((1, m + 1))
        total[0, m] = 0.0
        A = np.concatenate((eye, -eye, total))
        b = np.zeros(2 * m + 3)
        b[m + 1:] = -1.0
        b[-1] = 1.0
        theta = _newton(k, D, o, 0.0, A, b, theta, gap / 2.0)
    else:
        t = 1.0 - math.sqrt(float(d[0] @ d[0]) / (r * r))
        if DUAL_STEPS and t < 1.0:  # t = 1 only when c = c_1
            theta[1] = max(t, 0.0)
    x = c + _primal(k, k[:, None], D, o, 0.0, theta)[1]
    w, t = theta[:-1].tolist(), float(theta[-1])
    bound = None
    if 0.0 <= min(w) and max(w) <= 1.0 and 0.0 <= t <= 1.0 and _reaches_one(w):
        bound = _bound(about.rows, -(r * r), w + [-t])
    return WitnessDual(x, -math.inf if bound is None else _floor(*bound), tuple(w) + (t,))
