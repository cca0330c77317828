import numpy as np
import pytest

from hullscope import (Ball, BallIntersection, ConstraintSet, EmptyIntersection, GridSpec,
                       InclusionVerdict, OuterBall, PreconditionFailed, SolverConfig,
                       ball_constraint, build_G, build_Gk, check_inclusion,
                       dykstra_project_full, grid_max_distance)


def project_onto_balls(balls, y):
    return dykstra_project_full(ConstraintSet([ball_constraint(b) for b in balls]), y).point

from conftest import far_center, random_ball_intersection


def literal_Gk(bi: BallIntersection, ob: OuterBall, k: int, x: np.ndarray) -> float:
    """Independent literal evaluation: f_k - min(f, 0) + sum_{i != k} max(f_i, 0)."""
    R2 = bi.radius ** 2
    r2 = ob.radius ** 2
    f = float((x - ob.center) @ (x - ob.center)) - r2
    fk = [float((x - c) @ (x - c)) - R2 for c in bi.centers]
    total = fk[k] - min(f, 0.0)
    total += sum(max(fk[i], 0.0) for i in range(bi.m) if i != k)
    return total


def test_build_Gk_single_ball_values():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    ob = OuterBall([5.0, 0.0], 5.0)
    G0 = build_Gk(bi, ob, 0)
    assert G0.value([-1.0, 0.0]) == pytest.approx(0.0)
    assert G0.value([5.0, 0.0]) == pytest.approx(49.0)


def test_build_Gk_index_out_of_range():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    ob = OuterBall([5.0, 0.0], 5.0)
    with pytest.raises(IndexError):
        build_Gk(bi, ob, 1)
    with pytest.raises(IndexError):
        build_Gk(bi, ob, -1)


def test_tree_matches_literal_formula():
    rng = np.random.default_rng(42)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0], [0.4, 0.6]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    trees = [build_Gk(bi, ob, k) for k in range(bi.m)]
    for _ in range(1000):
        x = rng.normal(0.0, 3.0, 2)
        for k, tree in enumerate(trees):
            lit = literal_Gk(bi, ob, k, x)
            assert tree.value(x) == pytest.approx(lit, rel=1e-12, abs=1e-12)


def test_build_G_is_max_of_Gk():
    rng = np.random.default_rng(3)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    G = build_G(bi, ob)
    for _ in range(300):
        x = rng.normal(0.0, 2.5, 2)
        vals = [literal_Gk(bi, ob, k, x) for k in range(bi.m)]
        v, _, idx = G.eval_with_index(np.asarray(x))
        assert v == pytest.approx(max(vals), rel=1e-12, abs=1e-12)
        assert v >= vals[idx] - 1e-12
        assert vals[idx] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_build_G_single_term():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    ob = OuterBall([5.0, 0.0], 5.0)
    G = build_G(bi, ob)
    G0 = build_Gk(bi, ob, 0)
    for x in ([0.3, -0.4], [-1.0, 0.0], [5.0, 0.0]):
        assert G.value(x) == G0.value(x)


def test_Gk_and_G_are_midpoint_convex():
    rng = np.random.default_rng(12)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    ob = OuterBall([4.0, 0.0], 3.5)
    fns = [build_Gk(bi, ob, k) for k in range(bi.m)] + [build_G(bi, ob)]
    for fn in fns:
        for _ in range(1000):
            x = rng.normal(0.0, 3.0, 2)
            y = rng.normal(0.0, 3.0, 2)
            assert fn.value(0.5 * (x + y)) <= 0.5 * (fn.value(x) + fn.value(y)) + 1e-9


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


def test_unconverged_refinement_is_not_included():
    # with full budget this instance is Included (see above); a refinement
    # starved of iterations cannot localize the minimizer of G
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = check_inclusion(bi, OuterBall([5.0, 0.0], 6.1), SolverConfig(max_iters=3))
    assert rep.verdict is InclusionVerdict.UNDETERMINED
    assert rep.iters <= 3


def test_inclusion_precondition_failure():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    with pytest.raises(PreconditionFailed):
        check_inclusion(bi, OuterBall([1.5, 0.0], 1.0))


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
    vals = G.values(X)
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
