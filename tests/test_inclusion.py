import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hullscope
from hullscope import (Ball, BallIntersection, BisectionConfig, ConstraintSet, DimensionMismatch,
                       EmptyIntersection, FeasibilityVerdict, InclusionVerdict, OuterBall,
                       PreconditionFailed, SolverConfig, ball_constraint, build_G, check_feasibility,
                       check_inclusion, dykstra_project_full, load_problem, solve_farthest)


def project_onto_balls(balls, y):
    return dykstra_project_full(ConstraintSet([ball_constraint(b) for b in balls]), y).point

from conftest import dual_sweep, far_center, random_ball_intersection, value
from oracles import GridSpec, grid_max_distance
from test_farthest import _boundary_point


def literal_residuals(bi: BallIntersection, ob: OuterBall, x: np.ndarray) -> tuple[float, list[float]]:
    """f and the f_k, each from its own squared distance."""
    R2 = bi.radius ** 2
    r2 = ob.radius ** 2
    f = float((x - ob.center) @ (x - ob.center)) - r2
    return f, [float((x - c) @ (x - c)) - R2 for c in bi.centers]


def literal_Gk_of(f: float, fk: list[float], k: int) -> float:
    """Independent literal evaluation: f_k - min(f, 0) + sum_{i != k} max(f_i, 0)."""
    total = fk[k] - min(f, 0.0)
    total += sum(max(fk[i], 0.0) for i in range(len(fk)) if i != k)
    return total


def literal_Gk(bi: BallIntersection, ob: OuterBall, k: int, x: np.ndarray) -> float:
    f, fk = literal_residuals(bi, ob, x)
    return literal_Gk_of(f, fk, k)


def literal_G(bi: BallIntersection, ob: OuterBall, x: np.ndarray) -> float:
    f, fk = literal_residuals(bi, ob, x)
    return max(literal_Gk_of(f, fk, k) for k in range(len(bi.centers)))


def literal_grad_Gk(bi: BallIntersection, ob: OuterBall, k: int, x: np.ndarray) -> np.ndarray:
    """Gradient of the literal G_k wherever no f or f_i (i != k) is zero."""
    f = float((x - ob.center) @ (x - ob.center)) - ob.radius ** 2
    g = 2.0 * (x - bi.centers[k])
    if f < 0.0:
        g -= 2.0 * (x - ob.center)
    for i, c in enumerate(bi.centers):
        if i != k and float((x - c) @ (x - c)) - bi.radius ** 2 > 0.0:
            g += 2.0 * (x - c)
    return g


SHAPES = [(2, 1), (2, 2), (2, 3), (10, 8), (16, 6), (50, 32)]


def random_shape(rng, n: int, m: int, points: int):
    """Balls within R/2 of an anchor, an outer ball reaching over them, and points around them.

    The points fall inside and outside every ball and the outer ball, so
    every sign pattern of f and max_k f_k is visited.
    """
    R = rng.uniform(0.5, 2.0)
    z0 = rng.normal(0.0, 1.0, n)
    dirs = rng.standard_normal((m, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = z0 + (0.5 * R) * rng.uniform(0.0, 1.0, (m, 1)) * dirs
    u = rng.standard_normal(n)
    c = z0 + 3.0 * R * u / np.linalg.norm(u)
    ob = OuterBall(c, R * rng.uniform(2.0, 4.0))
    v = rng.standard_normal((points, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # along the segment from the anchor to c, then out by up to 2.5 R
    X = z0 + rng.uniform(0.0, 1.2, (points, 1)) * (c - z0) + R * rng.uniform(0.0, 2.5, (points, 1)) * v
    return BallIntersection(list(centers), R), ob, X


def test_G_matches_literal_formula():
    rng = np.random.default_rng(42)
    for n, m in SHAPES:
        bi, ob, X = random_shape(rng, n, m, 1000)
        G = build_G(bi, ob)
        inside_all = inside_outer = 0
        for x in X:
            lit = literal_G(bi, ob, x)
            assert value(G, x) == pytest.approx(lit, rel=1e-12, abs=1e-12), (n, m, x)
            inside_all += bool(max(float((x - c) @ (x - c)) for c in bi.centers) <= bi.radius ** 2)
            inside_outer += bool(float((x - ob.center) @ (x - ob.center)) <= ob.radius ** 2)
        assert 0 < inside_all < len(X) and 0 < inside_outer < len(X), (n, m)


def test_G_subgradient_inequality():
    rng = np.random.default_rng(43)
    for n, m in SHAPES:
        bi, ob, X = random_shape(rng, n, m, 1000)
        G = build_G(bi, ob)
        for x in X:
            gx, g = G.eval(x)
            y = x + rng.choice([1e-3, 0.1, 1.0, 3.0]) * bi.radius * rng.standard_normal(n)
            gy = value(G, y)
            assert gy >= gx + float(g @ (y - x)) - 1e-9 * max(1.0, abs(gx), abs(gy)), (n, m)


def test_G_subgradient_at_kinks():
    """Exact kinks: a ball sphere (f_0 = 0), the outer sphere (f = 0), a centre tie."""
    rng = np.random.default_rng(44)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.0)
    G = build_G(bi, ob)
    kinks = [np.array([-1.0, 0.0]),  # f_0 = 0, f_1 > 0
             np.array([1.0, 0.0]),   # f = 0, f_0 = 0, f_1 < 0
             np.array([2.0, 0.0]),   # f_1 = 0, f_0 > 0, f < 0
             np.array([0.5, 0.5]),   # f_0 = f_1 < 0 tie
             np.array([0.5, 0.0])]   # f_0 = f_1 < 0 tie on the axis
    kinks += [np.array([0.5, t]) for t in rng.uniform(-0.8, 0.8, 20)]
    for x in kinks:
        gx, g = G.eval(x)
        assert gx == pytest.approx(literal_G(bi, ob, x), abs=1e-12)
        for scale in (1e-6, 1e-3, 0.1, 1.0, 4.0):
            for y in x + scale * rng.standard_normal((50, 2)):
                assert value(G, y) >= gx + float(g @ (y - x)) - 1e-12, (x, y)
    # at the centre tie inside both balls (and outside the outer ball) the
    # lowest index wins
    x = np.array([0.5, 0.5])
    _, g = G.eval(x)
    np.testing.assert_allclose(g, 2.0 * (x - bi.centers[0]))


def test_build_G_single_ball_values():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    ob = OuterBall([5.0, 0.0], 5.0)
    G = build_G(bi, ob)
    assert value(G, [-1.0, 0.0]) == pytest.approx(0.0)
    assert value(G, [5.0, 0.0]) == pytest.approx(49.0)


def test_build_G_is_max_of_Gk():
    rng = np.random.default_rng(3)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    G = build_G(bi, ob)
    for _ in range(300):
        x = rng.normal(0.0, 2.5, 2)
        vals = [literal_Gk(bi, ob, k, x) for k in range(len(bi.centers))]
        v, g = G.eval(x)
        assert v == pytest.approx(max(vals), rel=1e-12, abs=1e-12)
        # the subgradient is the gradient of the lowest-index achieving G_k
        k = next(k for k, val in enumerate(vals) if val >= max(vals) - 1e-9)
        np.testing.assert_allclose(g, literal_grad_Gk(bi, ob, k, x), rtol=1e-12, atol=1e-12)


def test_build_G_single_term():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    ob = OuterBall([5.0, 0.0], 5.0)
    G = build_G(bi, ob)
    for x in ([0.3, -0.4], [-1.0, 0.0], [5.0, 0.0]):
        assert value(G, x) == pytest.approx(literal_Gk(bi, ob, 0, np.asarray(x)), rel=1e-12, abs=1e-12)


def test_Gk_and_G_are_midpoint_convex():
    rng = np.random.default_rng(12)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    G = build_G(bi, ob)
    fns = [lambda x, k=k: literal_Gk(bi, ob, k, x) for k in range(len(bi.centers))] + [lambda x: value(G, x)]
    for fn in fns:
        for _ in range(1000):
            x = rng.normal(0.0, 3.0, 2)
            y = rng.normal(0.0, 3.0, 2)
            assert fn(0.5 * (x + y)) <= 0.5 * (fn(x) + fn(y)) + 1e-9


def test_dykstra_single_ball():
    np.testing.assert_allclose(project_onto_balls([Ball([0, 0], 1.0)], [5.0, 0.0]), [1.0, 0.0],
                               atol=1e-10)


def test_dykstra_interior_fixed_point():
    y = np.array([0.3, -0.2])
    np.testing.assert_allclose(project_onto_balls([Ball([0, 0], 1.0)], y), y)


def test_dykstra_lens_rightmost_point():
    p = project_onto_balls([Ball([0, 0], 1.0), Ball([1, 0], 1.0)], [4.0, 0.0])
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-6)


def test_dykstra_variational_characterization():
    rng = np.random.default_rng(8)
    balls = [Ball([0.0, 0.0], 1.0), Ball([0.8, 0.0], 1.0)]
    y = np.array([3.0, 2.0])
    cs = ConstraintSet([ball_constraint(b) for b in balls])
    res = dykstra_project_full(cs, y)
    p = res.point
    assert res.converged
    assert cs.worst_residual(p) <= 1e-8
    # (y - p) . (q - p) <= 0 for all q in the intersection
    for _ in range(500):
        q = rng.uniform(-1.0, 2.0, 2)
        if all(np.linalg.norm(q - b.center) <= b.radius for b in balls):
            assert float((y - p) @ (q - p)) <= 1e-8


def test_inclusion_single_disk_nonempty():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = check_inclusion(bi, OuterBall([5.0, 0.0], 5.9))
    assert rep.verdict is InclusionVerdict.NONEMPTY_DIFFERENCE
    # the witness certifies membership in the difference
    assert max(rep.residuals_fk) <= 1e-7
    assert rep.dist_xstar_to_c >= 5.9 - 1e-6
    # d(c, C1) = 4, so the margin over R = 1 is 3
    assert rep.precondition_margin == pytest.approx(3.0, abs=1e-6)


def test_inclusion_single_disk_included():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = check_inclusion(bi, OuterBall([5.0, 0.0], 6.1))
    assert rep.verdict is InclusionVerdict.INCLUDED


def test_unconverged_refinement_is_not_included(monkeypatch):
    # with full budget this instance is Included (see above) and the dual
    # closes it with no iteration; with no Newton step the refinement runs,
    # and one starved of iterations cannot localize the minimizer of G
    monkeypatch.setattr("hullscope.dual.DUAL_STEPS", 0)
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = check_inclusion(bi, OuterBall([5.0, 0.0], 6.1), SolverConfig(max_iters=3))
    assert rep.verdict is InclusionVerdict.UNDETERMINED
    assert rep.iters <= 3


def assert_exact_witness_bound(bi: BallIntersection, ob: OuterBall, rep) -> None:
    """``rep.g_lower``, re-checked in ``Fraction`` arithmetic from ``rep.multipliers``.

    The multipliers ``(w, t)`` lie in the polytope ``0 <= w_i <= 1``,
    ``sum w >= 1``, ``0 <= t <= 1``, so ``G(x) >= sum w_i f_i(x) - t f(x)``
    at every ``x``; the minimum of the right-hand side over ``x``,
    ``t r^2 + S - |v|^2 / (s - t)`` about ``c``, or else ``-R^2``, which
    bounds ``G`` from below by itself, must be at least ``g_lower``. ``R^2``
    and ``r^2`` are the float squares, as ``G`` reads them.
    """
    *w, t = [Fraction(u) for u in rep.multipliers]
    assert len(w) == len(bi.centers)
    assert all(0 <= wi <= 1 for wi in w) and 0 <= t <= 1 <= sum(w) and sum(w) > t
    cf = [Fraction(u) for u in ob.center.tolist()]
    d = [[Fraction(u) - ci for u, ci in zip(ck.tolist(), cf)] for ck in bi.centers]
    R2, r2 = Fraction(bi.radius * bi.radius), Fraction(ob.radius * ob.radius)
    v = [sum(wi * di[j] for wi, di in zip(w, d)) for j in range(len(cf))]
    S = sum(wi * (sum(u * u for u in di) - R2) for wi, di in zip(w, d))
    bound = t * r2 + S - sum(vj * vj for vj in v) / (sum(w) - t)
    assert Fraction(rep.g_lower) <= max(bound, -R2)


def _witness_instances():
    """Random intersections at n = 2-5, m = 1-5, with outer radii around ``r*``.

    ``r*`` comes from ``solve_farthest``, whose bracket is proof for any
    dimension; the radii are ``r*`` times 0.75, 0.97, 1.03 and 1.25.
    """
    rng = np.random.default_rng(41)
    for i in range(16):
        bi, z0 = random_ball_intersection(rng, 1 + i % 5, 2 + i % 4)
        c = far_center(rng, bi, z0)
        r_star = solve_farthest(bi, c, BisectionConfig(eps=1e-7)).r_star
        for factor in (0.75, 0.97, 1.03, 1.25):
            expected = (InclusionVerdict.NONEMPTY_DIFFERENCE if factor < 1.0
                        else InclusionVerdict.INCLUDED)
            yield f"instance {i}, factor {factor}", bi, OuterBall(c, factor * r_star), expected


def test_witness_dual_bound_is_exact_and_agrees_with_forced_fallback(monkeypatch):
    for label, bi, ob, expected in _witness_instances():
        rep = check_inclusion(bi, ob)
        assert rep.verdict is expected, label
        assert rep.iters == 0, label
        assert rep.g_at_xstar - rep.g_lower <= 1e-10, label
        assert_exact_witness_bound(bi, ob, rep)
        with monkeypatch.context() as patch:
            patch.setattr("hullscope.dual.DUAL_STEPS", 0)
            forced = check_inclusion(bi, ob)
        assert forced.iters > 0, label
        assert forced.verdict is rep.verdict, label
        assert_exact_witness_bound(bi, ob, forced)


def exact_G(bi: BallIntersection, ob: OuterBall, x: np.ndarray) -> Fraction:
    """``G(x)`` in ``Fraction`` arithmetic, with the float squares ``R^2`` and ``r^2``."""
    xf = [Fraction(u) for u in x.tolist()]

    def sq(p):
        return sum((xi - Fraction(u)) ** 2 for xi, u in zip(xf, p.tolist()))

    f = sq(ob.center) - Fraction(ob.radius * ob.radius)
    fk = [sq(ck) - Fraction(bi.radius * bi.radius) for ck in bi.centers]
    return -min(f, 0) + sum(max(v, 0) for v in fk) + min(max(fk), 0)


def test_g_at_xstar_is_an_exact_upper_bound():
    # g_lower <= min G <= G(x*) <= g_at_xstar, the middle evaluated exactly
    for label, bi, c in dual_sweep():
        r_star = solve_farthest(bi, c).r_star
        for factor in (0.8, 0.99, 1.01, 1.2):
            ob = OuterBall(c, factor * r_star)
            rep = check_inclusion(bi, ob)
            exact = exact_G(bi, ob, rep.x_star)
            assert Fraction(rep.g_lower) <= exact <= Fraction(rep.g_at_xstar), f"{label}, factor {factor}"


def test_refinement_after_a_witness_dual_gap_keeps_a_proven_verdict():
    # c at R + delta from C1 with m > n: three of the five weights go to 0 and
    # the witness dual can stop short of g_at_xstar, leaving the bracket to the
    # subgradient refinement with no patched budget; the verdict stays proven
    bi = BallIntersection([[-0.9290171170020123, -0.7130423623225867, -0.8504678713864561],
                           [-1.003780944531152, -0.6136985645965134, -0.8552461471830556],
                           [-0.9487368762657822, -0.6535380630427401, -0.8989088135223052],
                           [-0.9414965331333754, -0.7349867242016758, -0.8767397956194812],
                           [-1.0269262779600619, -0.5387903984441883, -0.9130841218088739]],
                          0.8204027477525963)
    ob = OuterBall([0.5102275675404979, 1.1582264089613727, -2.009036061193122], 2.687096417899654)
    rep = check_inclusion(bi, ob)
    assert rep.verdict is InclusionVerdict.NONEMPTY_DIFFERENCE
    assert rep.g_at_xstar <= 0
    assert Fraction(rep.g_lower) <= exact_G(bi, ob, rep.x_star) <= Fraction(rep.g_at_xstar)
    assert_exact_witness_bound(bi, ob, rep)


def test_inclusion_precondition_failure():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    with pytest.raises(PreconditionFailed):
        check_inclusion(bi, OuterBall([1.5, 0.0], 1.0))


def test_precondition_gate_at_a_known_margin():
    # c sits R + delta beyond a boundary point p of C1 along the outward normal
    # there, so delta is d(c, C1) - R exactly; the gate's margin is a proven
    # lower bound, so it passes above tol and refuses below it
    rng = np.random.default_rng(20)
    tol = SolverConfig().tol
    passing, refused = (1.0, 1e-2, 1e-4, 1e-6, 3e-8), (5e-9, -1e-3)
    for n in (2, 3, 5):
        for m in range(1, 8):
            for _ in range(5):
                bi, z0 = random_ball_intersection(rng, m, n)
                p, nu = _boundary_point(rng, bi, z0)
                for delta in passing + refused:
                    ob = OuterBall(p + (bi.radius + delta) * nu, bi.radius + delta + 1.0)
                    if delta in refused:
                        with pytest.raises(PreconditionFailed):
                            check_inclusion(bi, ob)
                        continue
                    margin = check_inclusion(bi, ob).precondition_margin
                    assert tol < margin <= delta + 1e-12, (n, m, delta, margin)


def test_inclusion_path_runs_no_projection(monkeypatch, problems_dir):
    # the distance precondition rests on the dual bound, not on a projection
    def refuse(self, y):
        raise AssertionError("ConstraintSet.project called on the inclusion path")

    monkeypatch.setattr(ConstraintSet, "project", refuse)
    ran = 0
    for path in sorted(problems_dir.glob("*.json")):
        problem = load_problem(path)
        if problem.ball_intersection is None or problem.outer is None:
            continue
        try:
            check_inclusion(problem.ball_intersection, problem.outer)
            solve_farthest(problem.ball_intersection, problem.outer.center)
        except PreconditionFailed:
            assert path.stem == "c-inside"
        ran += 1
    assert ran >= 4


def test_sqrt_of_a_negative_numerator_rounds_to_zero():
    # run apart with a timeout, since a hang would stall the suite: rounding
    # down from a first guess of 0.0 must not search below it, where
    # nextafter(0.0, 0.0) stays 0.0
    code = "from hullscope.dual import _sqrt; print(_sqrt(-1, 1, up=False), _sqrt(-1, 1, up=True))"
    env = {**os.environ, "PYTHONPATH": str(Path(hullscope.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["0.0", "0.0"]


def test_inclusion_empty_intersection():
    bi = BallIntersection([[0.0, 0.0], [5.0, 0.0]], 1.0)
    with pytest.raises(EmptyIntersection):
        check_inclusion(bi, OuterBall([10.0, 0.0], 3.0))


def test_inclusion_lens_both_sides():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    rep = check_inclusion(bi, OuterBall([4.0, 0.0], 3.5))
    assert rep.verdict is InclusionVerdict.NONEMPTY_DIFFERENCE
    rep = check_inclusion(bi, OuterBall([4.0, 0.0], 4.5))
    assert rep.verdict is InclusionVerdict.INCLUDED


def test_sign_characterization_sampled():
    rng = np.random.default_rng(20)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    G = build_G(bi, ob)
    X = rng.uniform(-2.0, 3.0, (4000, 2))
    vals = np.array([value(G, x) for x in X])
    R2 = bi.radius ** 2
    in_c1 = np.ones(len(X), dtype=bool)
    for c in bi.centers:
        D = X - c
        in_c1 &= np.einsum("ij,ij->i", D, D) <= R2
    D = X - ob.center
    outside_c0 = np.einsum("ij,ij->i", D, D) >= ob.radius ** 2
    assert np.all(vals[~in_c1] > -1e-9)
    assert np.all(vals[in_c1 & outside_c0] <= 1e-9)


def test_oracle_equivalence_quick():
    rng = np.random.default_rng(2718)
    factors = [0.7, 0.9, 1.1, 1.3]
    for i in range(12):
        bi, z0 = random_ball_intersection(rng, 1 + i % 3)
        c = far_center(rng, bi, z0)
        box = 1.05 * bi.radius
        coarse = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 4e-3))
        loc = 0.02
        fine = grid_max_distance(
            bi, c, GridSpec(coarse.arg - loc, coarse.arg + loc, 2.5e-4))
        r_star = max(coarse.r_max, fine.r_max)
        r = r_star * factors[i % len(factors)]
        rep = check_inclusion(bi, OuterBall(c, r))
        expected = (InclusionVerdict.NONEMPTY_DIFFERENCE if r_star >= r
                    else InclusionVerdict.INCLUDED)
        assert rep.verdict is expected, f"instance {i}: r*={r_star}, r={r}"


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_ball_intersection_refuses_bad_radius(radius):
    with pytest.raises(ValueError):
        BallIntersection([[0.0, 0.0]], radius)


@pytest.mark.parametrize("centers", [[], [[0.0, float("nan")]], [[1.0, 0.0], [float("inf"), 0.0]]])
def test_ball_intersection_refuses_bad_centers(centers):
    with pytest.raises(ValueError):
        BallIntersection(centers, 1.0)


def test_ball_intersection_refuses_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        BallIntersection([[0.0, 0.0], [1.0, 0.0, 0.0]], 1.0)


def test_ball_intersection_is_a_constraint_set():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    assert isinstance(bi, ConstraintSet)
    assert bi.constraint_set() is bi
    assert bi.centers.shape == (2, 2) and not bi.centers.flags.writeable
    rep = check_feasibility(bi)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    assert bi.worst_residual(rep.witness) <= 1e-8
