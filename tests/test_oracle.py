import numpy as np
import pytest

from hullscope import (Ball, BallIntersection, ConstraintSet, PositivePart, ball_constraint,
                       halfspace_constraint)

from conftest import value
from oracles import (EmptySample, GridSpec, GridTooLarge, check_lemma_2_5, check_lemma_2_6,
                     check_lemma_2_7, check_lemma_2_8, grid_feasible, grid_max_distance)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec([0.0], [0.0], 0.1)
    with pytest.raises(ValueError):
        GridSpec([0.0], [1.0], 0.0)
    with pytest.raises(GridTooLarge):
        GridSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-4)


def test_grid_feasible_disjoint_disks():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    res = grid_feasible(cs, GridSpec([-2.0, -2.0], [5.0, 2.0], 1e-2))
    assert not res.feasible
    assert res.witness is None
    assert res.min_g_tilde == pytest.approx(2.5, abs=1e-2)


def test_grid_feasible_overlapping_disks():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([1, 0], 1.0))])
    res = grid_feasible(cs, GridSpec([-2.0, -2.0], [5.0, 2.0], 1e-2))
    assert res.feasible
    np.testing.assert_allclose(res.witness, [0.5, 0.0], atol=2e-2)
    assert res.min_g_tilde == 0.0


def test_grid_feasible_single_disk():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    res = grid_feasible(cs, GridSpec([-1.5, -1.5], [1.5, 1.5], 1e-2))
    assert res.feasible
    assert res.min_g_tilde == 0.0


def test_grid_feasible_halfspace_leaves():
    # the strip 0 <= x1 <= 1 cut by the unit disk at the origin
    cs = ConstraintSet([halfspace_constraint([-1.0, 0.0], 0.0), halfspace_constraint([1.0, 0.0], 1.0),
                        ball_constraint(Ball([0, 0], 1.0))])
    res = grid_feasible(cs, GridSpec([-1.5, -1.5], [1.5, 1.5], 1e-2))
    assert res.feasible
    assert res.min_g_tilde == 0.0
    # the deepest points (worst residual -0.5) form the segment x1 = 0.5, |x2| <= 0.5
    assert res.witness[0] == pytest.approx(0.5, abs=1e-2)
    assert max(value(g, res.witness) for g in cs.constraints) == pytest.approx(-0.5, abs=1e-2)


def test_grid_feasible_rejects_composite_nodes():
    cs = ConstraintSet([PositivePart(ball_constraint(Ball([0, 0], 1.0)))])
    with pytest.raises(TypeError):
        grid_feasible(cs, GridSpec([-1.5, -1.5], [1.5, 1.5], 1e-1))


def test_grid_max_distance_single_disk():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    res = grid_max_distance(bi, [5.0, 0.0], GridSpec([-1.05, -1.05], [1.05, 1.05], 1e-3))
    assert res.r_max == pytest.approx(6.0, abs=2e-3)
    np.testing.assert_allclose(res.arg, [-1.0, 0.0], atol=5e-3)


def test_grid_max_distance_lens():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    res = grid_max_distance(bi, [4.0, 0.0], GridSpec([-0.1, -1.0], [1.05, 1.0], 1e-3))
    assert res.r_max == pytest.approx(4.0, abs=2e-3)
    np.testing.assert_allclose(res.arg, [0.0, 0.0], atol=5e-3)


def test_grid_max_distance_center_inside():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    res = grid_max_distance(bi, [0.0, 0.0], GridSpec([-1.05, -1.05], [1.05, 1.05], 5e-3))
    assert res.r_max == pytest.approx(1.0, abs=1e-2)


def test_grid_max_distance_empty_sample():
    bi = BallIntersection([[10.0, 10.0]], 0.5)
    with pytest.raises(EmptySample):
        grid_max_distance(bi, [0.0, 0.0], GridSpec([-1.0, -1.0], [1.0, 1.0], 0.1))


def test_grid_refinement_never_decreases_max():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    coarse_step = 4e-2
    coarse = grid_max_distance(bi, [4.0, 0.0], GridSpec([-0.1, -1.0], [1.05, 1.0], coarse_step))
    fine = grid_max_distance(bi, [4.0, 0.0], GridSpec([-0.1, -1.0], [1.05, 1.0], coarse_step / 2))
    assert fine.r_max >= coarse.r_max - 1e-12
    assert fine.r_max <= coarse.r_max + coarse_step


def test_lemma_2_5_worked_example():
    a, b, x = np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([0.5, 0.0])
    assert float((x - b) @ (a - b)) == pytest.approx(3.0)


def test_lemma_2_6_worked_examples():
    x, y, c1 = np.array([0.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 0.0])
    assert float((x - y) @ (c1 - y)) == pytest.approx(9.0)
    y = np.array([4.0, 0.0])
    x = np.array([0.5, 0.5])
    for ck in (np.array([0.0, 0.0]), np.array([1.0, 0.0])):
        assert float((x - y) @ (ck - y)) > 0.0


def test_lemma_2_7_collinear_example():
    y, c1, c2, z = (np.array([0.0, 0.0]), np.array([0.0, 1.0]),
                    np.array([0.0, -1.0]), np.array([0.0, -1.0]))
    assert np.linalg.norm(z - c1) >= np.linalg.norm(z - c2)
    p = y + 2.0 * (z - y)
    assert np.linalg.norm(p - c1) == pytest.approx(3.0)
    assert np.linalg.norm(p - c2) == pytest.approx(1.0)


def test_lemma_2_8_symmetric_tie_example():
    y = np.array([0.0, 0.0])
    centers = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 0.1])]
    v = np.array([0.0, 1.0])
    for t in np.linspace(1e-4, 0.05, 20):
        q = y + t * v
        d = [np.linalg.norm(q - c) for c in centers]
        assert max(d[0], d[1]) >= d[2]


@pytest.mark.parametrize("checker,trials", [
    (check_lemma_2_5, 2000),
    (check_lemma_2_6, 400),
    (check_lemma_2_7, 800),
    (check_lemma_2_8, 600),
])
def test_lemma_checkers_smoke(checker, trials):
    res = checker(trials, seed=9)
    assert res.passed, res.counterexample
    assert res.trials == trials
    assert res.seed == 9


def test_lemma_result_shape():
    res = check_lemma_2_5(50, seed=1)
    assert res.passed
    assert res.counterexample is None
    assert (res.trials, res.seed) == (50, 1)


def test_trial_seeding_is_order_independent():
    a = check_lemma_2_7(200, seed=3)
    b = check_lemma_2_7(200, seed=3)
    assert a == b
