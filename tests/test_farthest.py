import math

import numpy as np
import pytest

from hullscope import (BallIntersection, BisectionConfig, GridSpec, InnerUndetermined,
                       PreconditionFailed, SolverConfig, grid_max_distance, solve_farthest)

from conftest import far_center, random_ball_intersection


def initial_bracket(bi, c) -> tuple[float, float]:
    """The bracket solve_farthest starts from: an eps this wide takes no step."""
    rep = solve_farthest(bi, c, BisectionConfig(eps=1e3))
    assert rep.bisection_steps == 0
    return rep.r_lo, rep.r_hi


def test_bracket_single_disk():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    assert initial_bracket(bi, [5.0, 0.0]) == (1.0, 7.0)


def test_bracket_lens():
    # the witness is the centroid (0.5, 0) of the centers
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    r_lo, r_hi = initial_bracket(bi, [4.0, 0.0])
    assert r_lo == 1.0
    assert r_hi == pytest.approx(5.5)


def test_bracket_contains_oracle_max():
    rng = np.random.default_rng(14)
    for i in range(8):
        bi, z0 = random_ball_intersection(rng, 1 + i % 3)
        c = far_center(rng, bi, z0)
        r_lo, r_hi = initial_bracket(bi, c)
        box = 1.05 * bi.radius
        oracle = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 2e-3))
        assert r_lo < oracle.r_max < r_hi


def test_farthest_single_disk():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = solve_farthest(bi, [5.0, 0.0], BisectionConfig(eps=1e-4))
    assert rep.r_star == pytest.approx(6.0, abs=2e-4)
    np.testing.assert_allclose(rep.x_witness, [-1.0, 0.0], atol=1e-3)
    width = rep.r_hi - rep.r_lo
    assert rep.r_lo <= rep.r_star <= rep.r_hi
    assert width <= 2e-4 * 2


def test_farthest_lens():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    rep = solve_farthest(bi, [4.0, 0.0], BisectionConfig(eps=1e-4))
    assert rep.r_star == pytest.approx(4.0, abs=2e-4)
    np.testing.assert_allclose(rep.x_witness, [0.0, 0.0], atol=1e-3)


def test_farthest_precondition():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    with pytest.raises(PreconditionFailed):
        solve_farthest(bi, [0.5, 0.0])


def test_inner_undetermined_is_surfaced(monkeypatch):
    import hullscope.inclusion as incl_mod
    from hullscope import InclusionVerdict
    from hullscope.inclusion import InclusionReport

    def fake_inclusion(bi, ob, cfg, start, margin):
        return InclusionReport(verdict=InclusionVerdict.UNDETERMINED,
                               x_star=np.zeros(2), g_at_xstar=0.0, residuals_fk=[0.0],
                               dist_xstar_to_c=0.0, precondition_margin=margin, iters=1)

    monkeypatch.setattr(incl_mod, "_inclusion_at", fake_inclusion)
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    with pytest.raises(InnerUndetermined):
        solve_farthest(bi, [5.0, 0.0])


def test_starved_step_is_inner_undetermined():
    # a step whose refinement runs out of budget cannot shrink the bracket
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    with pytest.raises(InnerUndetermined):
        solve_farthest(bi, [4.0, 0.0], BisectionConfig(eps=1e-4, inner=SolverConfig(max_iters=5)))


def test_step_bound():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    eps = 1e-4
    rep = solve_farthest(bi, [5.0, 0.0], BisectionConfig(eps=eps))
    width0 = 7.0 - 1.0
    assert rep.bisection_steps <= math.ceil(math.log2(width0 / eps))


def test_witness_invariants():
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    eps = 1e-4
    rep = solve_farthest(bi, [4.0, 0.0], BisectionConfig(eps=eps))
    assert max(bi.constraint_set().residuals(rep.x_witness)) <= 1e-6
    assert np.linalg.norm(rep.x_witness - np.array([4.0, 0.0])) >= rep.r_star - 2 * eps


def test_farthest_thin_lens():
    # centers 1.9 apart leave a thin lens; leftmost point (-0.05, 0) is farthest
    bi = BallIntersection([[-0.95, 0.0], [0.95, 0.0]], 1.0)
    rep = solve_farthest(bi, [6.0, 0.0], BisectionConfig(eps=1e-3))
    assert rep.r_star == pytest.approx(6.05, abs=2e-3)


def test_farthest_nearly_redundant_ball():
    bi = BallIntersection([[0.0, 0.0], [0.01, 0.0]], 1.0)
    c = [4.0, 1.0]
    rep = solve_farthest(bi, c, BisectionConfig(eps=1e-3))
    oracle = grid_max_distance(bi, c, GridSpec([-1.1, -1.1], [1.1, 1.1], 1e-3))
    assert rep.r_star == pytest.approx(oracle.r_max, abs=3e-3)


def test_emptiness_monotone_in_radius():
    # once the difference is empty at r it stays empty for larger r
    rng = np.random.default_rng(100)
    bi, z0 = random_ball_intersection(rng, 2)
    c = far_center(rng, bi, z0)
    box = 1.05 * bi.radius
    oracle = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 2e-3))
    radii = np.linspace(bi.radius, oracle.r_max + 1.0, 40)
    empties = [oracle.r_max < r for r in radii]
    assert empties == sorted(empties)


def test_intersection_diameter_within_2R():
    rng = np.random.default_rng(4)
    bi, z0 = random_ball_intersection(rng, 3)
    cs = bi.constraint_set()
    pts = []
    while len(pts) < 60:
        x = z0 + rng.uniform(-1.5 * bi.radius, 1.5 * bi.radius, 2)
        if max(cs.residuals(x)) <= 0.0:
            pts.append(x)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) <= 2.0 * bi.radius + 1e-12
