"""The float filters of the ``dual`` module answer only as its integer checks do.

``_inside_in_floats`` and ``_proves_empty_in_floats`` may return None, and
otherwise must return what ``_inside_exactly`` and ``_proves_empty_exactly``
return. The systems here sit on a ``1/16`` grid, so a row can pass exactly
through the point: a row value of exactly 0 must go to the integers, and so
must an instance scaled by ``2^300`` or ``2^-300``, outside the filters'
range. Points put on a sphere or a hyperplane in floats, where the sign of
the float value is often wrong, must not mislead them either.
``_reaches_one`` has no integer path; it is checked against
``Fraction``. On the benchmark's inclusion shapes the filters must decide
every check of the feasibility checker's ascent: a filter that always fell
back would pass every other test.

The reported values are read in integers only, from the rows that
``BallsAbout`` builds once per centre: the floor and both square roots of
the Lagrangian bound, ``witness_value`` and ``distance``. Each is checked
against ``Fraction`` arithmetic. On the grid the bounds and row values often
sit exactly on a float; a weight, a point or a radius one ulp off puts them
within a hair of one, and an anchor offset, a point or a radius one ulp off
needs more bits than the rows about the centre hold, so the reading shifts
them: it must agree with rows built from scratch. Scaled by ``2^300`` or
``2^-300``, every value must scale exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hullscope import Affine, BallQuad, ConstraintSet, FeasibilityVerdict, check_feasibility
from hullscope import dual
from hullscope.dual import (BallsAbout, _bound, _dyadic_rows, _floor, _inside_exactly,
                            _inside_in_floats, _proves_empty_exactly, _proves_empty_in_floats,
                            _reaches_one, _sqrt, certify_empty, proves_empty)

from conftest import dual_sweep, wide_dual_sweep
from test_feasibility import _fraction_sums

GRID = st.integers(-64, 64).map(lambda k: k / 16)


@st.composite
def systems(draw):
    """``(cs, x, gaps)``: balls and halfspaces in R^n whose rows take the values ``gaps`` at ``x``, exactly.

    A ball about ``c`` has the offset ``gap - |x - c|^2`` and a halfspace
    with normal ``a`` the shift ``gap - a.x``; on the grid both are exact
    in floats. A gap of 0 puts ``x`` on the sphere or the hyperplane.
    """
    n = draw(st.integers(1, 4))
    point = st.lists(GRID, min_size=n, max_size=n).map(np.array)
    x = draw(point)
    gap = st.one_of(st.just(0.0), GRID)
    constraints, gaps = [], []
    for _ in range(draw(st.integers(0, 3))):
        c, g = draw(point), draw(gap)
        constraints.append(BallQuad(c, g - float((x - c) @ (x - c))))
        gaps.append(g)
    for _ in range(draw(st.integers(0 if constraints else 1, 3))):
        a = draw(point.filter(lambda a: a.any()))
        g = draw(gap)
        constraints.append(Affine(a, g - float(a @ x)))
        gaps.append(g)
    order = draw(st.permutations(range(len(constraints))))
    return ConstraintSet([constraints[i] for i in order]), x, [gaps[i] for i in order]


def scaled(cs, s: float):
    """``cs`` in space scaled by the power of two ``s``: exact, and every row value scales by ``s^2``."""
    return ConstraintSet([BallQuad(s * g.center, s * s * g.offset) if isinstance(g, BallQuad)
                          else Affine(s * g.a, s * s * g.b) for g in cs.constraints])


def blank(cs) -> bool:
    """Every row is ``|x|^2``, which scaling leaves as it is."""
    return all(isinstance(g, BallQuad) and not g.center.any() and g.offset == 0.0 for g in cs.constraints)


@given(systems(), st.integers(0, 3), st.sampled_from([-1, 1]))
def test_inside_filter_answers_only_as_the_integers_do(system, j, side):
    cs, x, gaps = system
    exact = _inside_exactly(cs, x)
    assert exact is (max(gaps) <= 0.0)
    inside = _inside_in_floats(cs, x)
    assert inside is None or inside is exact
    if max(gaps) == 0.0:
        assert inside is None
    if all(gaps):  # every row at least 1/16 from 0, far beyond its error bound
        assert inside is exact
    # one ulp off the point, where a row through it takes a tiny value
    y = x.copy()
    y[j % len(x)] = math.nextafter(y[j % len(x)], side * math.inf)
    inside = _inside_in_floats(cs, y)
    assert inside is None or inside is _inside_exactly(cs, y)
    for s in (2.0 ** 300, 2.0 ** -300):
        big = scaled(cs, s)
        if x.any() or not blank(cs):
            assert _inside_in_floats(big, s * x) is None
        assert dual._inside(big, s * x) is exact


@given(systems(), st.lists(st.integers(0, 64).map(lambda k: k / 16), min_size=6, max_size=6))
def test_emptiness_filter_answers_only_as_the_integers_do(system, pool):
    cs, _, _ = system
    weights = pool[:len(cs.constraints)]
    exact = _proves_empty_exactly(cs, weights)
    empty = _proves_empty_in_floats(cs, weights)
    assert empty is None or empty is exact
    # on the grid a nonzero S s - |v|^2 is a multiple of 2^-18, far beyond its error bound
    s0, S0, v0, _ = _fraction_sums(cs, weights, [0.0] * cs.dimension)
    if S0 * s0 != sum(u * u for u in v0):
        assert empty is exact
    assert proves_empty(cs, weights) is exact
    for s in (2.0 ** 300, 2.0 ** -300):
        big = scaled(cs, s)
        if not blank(cs):
            assert _proves_empty_in_floats(big, weights) is None
        assert proves_empty(big, weights) is exact


def test_filters_answer_only_as_the_integers_do_on_rounded_boundaries():
    # points put on a sphere or a hyperplane in floats, and two balls that
    # touch as floats round them: each value is 0 up to its rounding, so on
    # both sides of 0 exactly, and its float reading often has the wrong sign
    rng = np.random.default_rng(17)
    outside = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        c, u, a = rng.uniform(-4.0, 4.0, n), rng.standard_normal(n), rng.standard_normal(n)
        u, a, r = u / np.linalg.norm(u), a / np.linalg.norm(a), rng.uniform(0.25, 4.0)
        for cs, x in ((ConstraintSet([BallQuad(c, -(r * r))]), c + r * u),
                      (ConstraintSet([Affine(a, -float(a @ c))]), c + r * (u - (u @ a) * a))):
            exact = _inside_exactly(cs, x)
            assert _inside_in_floats(cs, x) in (None, exact)
            outside += not exact
        touching = ConstraintSet([BallQuad(c, -(r * r)), BallQuad(c + 2.0 * r * u, -(r * r))])
        exact = _proves_empty_exactly(touching, [0.5, 0.5])
        assert _proves_empty_in_floats(touching, [0.5, 0.5]) in (None, exact)
    assert 100 < outside < 700


def test_emptiness_filter_defers_a_bound_of_exactly_zero():
    # two balls that touch at one point: weights (1/2, 1/2) give S s - |v|^2 = 0,
    # wherever the pair sits and whichever way it points
    rng = np.random.default_rng(5)
    for n in (1, 2, 5):
        for _ in range(4):
            c = rng.integers(-8, 9, n) / 4
            d = rng.integers(-8, 9, n) / 4
            if not d.any():
                continue
            r2 = float(d @ d)
            cs = ConstraintSet([BallQuad(c - d, -r2), BallQuad(c + d, -r2)])
            assert _proves_empty_in_floats(cs, [0.5, 0.5]) is None
            assert not proves_empty(cs, [0.5, 0.5])
            assert _proves_empty_in_floats(cs, [0.5, 0.25]) is False


def test_touching_disks_are_decided_in_the_integers():
    # the ascent stops at once at (1, 0), where both rows are exactly 0
    cs = ConstraintSet([BallQuad([0.0, 0.0], -1.0), BallQuad([2.0, 0.0], -1.0)])
    assert _inside_in_floats(cs, np.array([1.0, 0.0])) is None
    rep = check_feasibility(cs)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE and rep.iters == 0
    assert rep.witness.tolist() == [1.0, 0.0]


@given(st.lists(st.floats(0.0, 1.0), max_size=5), st.integers(-2, 2))
def test_sum_check_is_exact(head, ulps):
    # the last weight brings the sum to within a few ulps of 1
    last = 1.0 - math.fsum(head)
    for _ in range(abs(ulps)):
        last = math.nextafter(last, math.copysign(math.inf, ulps))
    w = head + [last]
    assert _reaches_one(w) is (sum(map(Fraction, w)) >= 1)


def test_sum_check_reads_below_a_sum_that_rounds_to_one():
    # 1/2 + (1/2 - 2^-54) is a tie that rounds to 1.0
    w = [0.5, 0.5 - 2.0 ** -54]
    assert math.fsum(w) == 1.0
    assert not _reaches_one(w)
    assert _reaches_one([0.5, 0.25, 0.25]) and _reaches_one([1.0])


def test_filters_decide_every_ascent_check_on_the_sweep_shapes(monkeypatch):
    # every set of the sweeps is nonempty, and cutting it with the ball
    # B(c, R), which d(c, C) > R keeps clear of it, makes it empty
    answers = []
    for name in ("_inside_in_floats", "_proves_empty_in_floats"):
        def record(*args, _filter=getattr(dual, name)):
            answers.append(_filter(*args))
            return answers[-1]
        monkeypatch.setattr(dual, name, record)
    for label, bi, c in itertools.chain(dual_sweep(), wide_dual_sweep()):
        decided = certify_empty(bi)
        assert decided is not None and decided[1] is None, label
        cut = ConstraintSet(bi.constraints + (BallQuad(c, -(bi.radius * bi.radius)),))
        decided = certify_empty(cut)
        assert decided is not None and decided[1] is not None, label
    assert answers.count(True) == len(answers) == 2 * (120 + 40)


@st.composite
def balls_about(draw):
    """``(cs, c, x)``: one to four balls on the grid in R^n, an anchor centre ``c`` and a point ``x``."""
    n = draw(st.integers(1, 4))
    point = st.lists(GRID, min_size=n, max_size=n).map(np.array)
    cs = ConstraintSet([BallQuad(draw(point), draw(GRID)) for _ in range(draw(st.integers(1, 4)))])
    return cs, draw(point), draw(point)


def nudged(a, j: int, side: int):
    """``a`` with its entry ``j`` moved one ulp toward ``side * inf``."""
    b = np.array(a, dtype=np.float64)
    b[j % len(b)] = math.nextafter(b[j % len(b)], side * math.inf)
    return b


def is_floor(x: float, q: Fraction) -> bool:
    """``x`` is the greatest float at most ``q``."""
    return Fraction(x) <= q < Fraction(math.nextafter(x, math.inf))


def is_root(r: float, q: Fraction, up: bool) -> bool:
    """``r`` is the least float with ``r^2 >= q`` (``up``) or the greatest with ``r^2 <= q``; 0 at ``q <= 0``."""
    if q <= 0:
        return r == 0.0
    if up:
        return Fraction(math.nextafter(r, 0.0)) ** 2 < q <= Fraction(r) ** 2
    return Fraction(r) ** 2 <= q < Fraction(math.nextafter(r, math.inf)) ** 2


def bound_readings(bound) -> list[float]:
    """The floor and both square roots of a bound ``(num, den)`` and of its negative."""
    num, den = bound
    return [read for n in (num, -num)
            for read in (_floor(n, den), _sqrt(n, den, up=False), _sqrt(n, den, up=True))]


def assert_bound_readings(bound, want: Fraction) -> None:
    readings = bound_readings(bound)
    for sign, (floor, down, up) in zip((1, -1), (readings[:3], readings[3:])):
        assert is_floor(floor, sign * want), (sign, floor, want)
        assert is_root(down, sign * want, False) and is_root(up, sign * want, True), (sign, down, up, want)


def fraction_bound(cs, c, offset: float, weights) -> Fraction | None:
    """The bound of ``cs``'s balls and the anchor ``|x - c|^2 + offset`` in ``Fraction``; None at ``s <= 0``."""
    s, S, v, _ = _fraction_sums(ConstraintSet(cs.constraints + (BallQuad(c, offset),)), weights, c.tolist())
    return S - sum(u * u for u in v) / s if s > 0 else None


def scaled_about(cs, c, s: float) -> BallsAbout:
    return BallsAbout(scaled(cs, s), s * c)


@given(balls_about(), st.lists(st.integers(0, 64).map(lambda k: k / 16), min_size=4, max_size=4),
       st.integers(-32, 32).map(lambda k: k / 16), GRID, st.integers(0, 4), st.sampled_from([-1, 1]))
def test_bound_readings_match_fractions(system, pool, anchor, offset, j, side):
    cs, c, _ = system
    about = BallsAbout(cs, c)
    m = len(cs.constraints)
    base = pool[:m] + [anchor]
    # all on one ball, the bound is that ball's offset exactly
    single = [0.0] * m + [1.0] if j >= m else [0.0] * j + [1.0] + [0.0] * (m - j)
    # an offset one ulp off needs more bits than the rows about c hold
    for off in (offset, math.nextafter(offset, side * math.inf)):
        # the anchor as one more row, its rows built from scratch
        fresh = _dyadic_rows(ConstraintSet(cs.constraints + (BallQuad(c, off),)).rows, c)
        for weights in (base, nudged(base, j, side).tolist(), single):
            want, bound = fraction_bound(cs, c, off, weights), _bound(about.rows, off, weights)
            assert (bound is None) is (want is None) is (_bound(fresh, 0.0, weights + [0.0]) is None)
            if want is None:
                continue
            assert Fraction(*bound) == want == Fraction(*_bound(fresh, 0.0, weights + [0.0]))
            assert_bound_readings(bound, want)
    assert _floor(*_bound(about.rows, offset, single)) == (offset if j >= m else cs.constraints[j].offset)
    want = fraction_bound(cs, c, offset, base)
    if want is not None:
        for s in (2.0 ** 300, 2.0 ** -300):
            bound = _bound(scaled_about(cs, c, s).rows, s * s * offset, base)
            assert Fraction(*bound) == Fraction(s * s) * want
            assert bound_readings(bound) == [s * s * v if k % 3 == 0 else s * v
                                             for k, v in enumerate(bound_readings(_bound(about.rows, offset, base)))]


def fraction_witness(cs, c, r: float, x) -> Fraction:
    """``G(x)`` of the balls of ``cs`` against ``B(c, r)`` in ``Fraction``, ``f`` taking the float ``r * r``."""
    def sq(p):
        return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x.tolist(), p.tolist()))
    f = sq(c) - Fraction(r * r)
    g = [sq(ball.center) + Fraction(ball.offset) for ball in cs.constraints]
    return max(-f, 0) + sum(max(v, 0) for v in g) + min(max(g), 0)


@given(balls_about(), st.integers(1, 64).map(lambda k: k / 16), st.integers(0, 4), st.sampled_from([-1, 1]))
def test_value_readings_match_fractions(system, r, j, side):
    cs, c, x = system
    about = BallsAbout(cs, c)
    # a point or a radius one ulp off needs more bits than the rows about c hold
    for y, radius in ((x, r), (nudged(x, j, side), r), (x, math.nextafter(r, side * math.inf))):
        G = about.witness_value(radius, y)
        want = fraction_witness(cs, c, radius, y)
        assert Fraction(math.nextafter(G, -math.inf)) < want <= Fraction(G), (G, want)
        # every row about y, built from scratch, gives the same G
        fresh = _dyadic_rows(ConstraintSet(cs.constraints + (BallQuad(c, -(radius * radius)),)).rows, y)
        *g, f = fresh.values
        assert -_floor(-(max(-f, 0) + sum(max(v, 0) for v in g) + min(max(g), 0)), 1 << 2 * fresh.b) == G
        d2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(y.tolist(), c.tolist()))
        for up in (False, True):
            assert is_root(about.distance(y, up=up), d2, up)
    for s in (2.0 ** 300, 2.0 ** -300):
        big = scaled_about(cs, c, s)
        assert big.witness_value(s * r, s * x) == s * s * about.witness_value(r, x)
        for up in (False, True):
            assert big.distance(s * x, up=up) == s * about.distance(x, up=up)


def test_bound_readings_round_correctly_a_hair_off_a_float():
    # each bound is a float, or within 2^-170 of one: a reading that rounded
    # anywhere on its way would land on the wrong side
    cases = [
        # z = 1 + 2^-52 is the primal point exactly, but the first row's
        # residual needs more bits than a float holds: the bound is 2 + 2^-50
        # + 2^-170
        (ConstraintSet([BallQuad([0.0], 2.0 ** -170), BallQuad([2.0 + 2.0 ** -51], -(2.0 ** -103))]),
         0.0, [1.0, 1.0, 0.0]),
        # the primal point (2/3, 2/3, 2/3) is no float; the bound is
        # 2 - fl(4/3) - 2 fl(1/3) = 2^-53
        (ConstraintSet([BallQuad([0.0] * 3, -(4.0 / 3.0)), BallQuad([1.0] * 3, -(1.0 / 3.0))]),
         0.0, [1.0, 2.0, 0.0]),
        # the anchor alone, at weight 1/16 on the least subnormal: the bound
        # 2^-1078 is no float, and both its square roots are 2^-539
        (ConstraintSet([BallQuad([0.0], -1.0)]), 2.0 ** -1074, [0.0, 0.0625]),
    ]
    for cs, offset, weights in cases:
        c = np.full(cs.dimension, 5.0)
        want = fraction_bound(cs, c, offset, weights)
        bound = _bound(BallsAbout(cs, c).rows, offset, weights)
        assert Fraction(*bound) == want
        assert_bound_readings(bound, want)
    assert bound_readings(bound)[1:3] == [2.0 ** -539] * 2
