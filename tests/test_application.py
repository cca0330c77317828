import json
import logging
import math

import numpy as np
import pytest

from hullscope import (Affine, Ball, BallIntersection, BallQuad, BisectionConfig, ConstraintSet,
                       DimensionMismatch, HypothesisViolation, PositivePart, ProblemFileError,
                       UnboundedRegion, ball_constraint, bound_max_distance,
                       extract_boundary_point, halfspace_constraint, load_problem, project_region)
from hullscope.application import _exits
from hullscope.dual import _dual_ascent, distance_above, distance_margin
from hullscope.inclusion import dykstra_project_full

from oracles import GridSpec, grid_max_distance


def box(lo: float, hi: float) -> ConstraintSet:
    """The square [lo, hi]^2 as four halfspaces."""
    return ConstraintSet([
        halfspace_constraint([1.0, 0.0], hi), halfspace_constraint([-1.0, 0.0], -lo),
        halfspace_constraint([0.0, 1.0], hi), halfspace_constraint([0.0, -1.0], -lo)])


def unit_square_shifted():
    """The box [-0.5, 1.5]^2."""
    return box(-0.5, 1.5)


def disk_region():
    return ConstraintSet([ball_constraint(Ball([0.5, 0.5], 1.0))])


def inner_disk():
    return BallIntersection([[0.5, 0.5]], 1.0)


C = [4.0, 0.5]


def square_corner_max_distance() -> float:
    """Oracle for the true maximum over the square: attained at a corner."""
    corners = [(-0.5, -0.5), (-0.5, 1.5), (1.5, -0.5), (1.5, 1.5)]
    return max(math.dist(C, p) for p in corners)


def test_square_and_disk_sandwich():
    v_s = square_corner_max_distance()
    assert v_s == pytest.approx(math.sqrt(21.25), abs=1e-12)
    rep = bound_max_distance(unit_square_shifted(), inner_disk(), C, 0.42)
    assert rep.v_c == pytest.approx(4.5, abs=1e-3)
    assert rep.v_c - 1e-3 <= v_s <= rep.v_c + 0.42 + 1e-3
    assert rep.v_c - 1e-3 <= rep.dist_x_hat <= rep.v_c + 0.42 + 1e-3


def test_covering_constant_of_square_fixture():
    # worst point of the square is a corner at distance sqrt(2) - 1 from the disk
    worst = math.dist((-0.5, -0.5), (0.5, 0.5)) - 1.0
    assert worst == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert worst <= 0.42


def test_degenerate_delta_zero():
    rep = bound_max_distance(disk_region(), inner_disk(), C, 0.0)
    assert rep.dist_x_hat == pytest.approx(rep.v_c, abs=1e-3)
    assert rep.v_c == pytest.approx(4.5, abs=1e-3)


def test_big_square_rejected_with_counterexample():
    big = box(-10.0, 10.0)
    with pytest.raises(HypothesisViolation) as exc_info:
        bound_max_distance(big, inner_disk(), C, 0.42)
    err = exc_info.value
    assert err.counterexample is not None
    assert err.distance > 0.42
    # the counterexample really is a region point far from the inner disk
    assert big.worst_residual(err.counterexample) <= 1e-6
    true_d = np.linalg.norm(np.asarray(err.counterexample) - np.array([0.5, 0.5])) - 1.0
    assert true_d == pytest.approx(err.distance, abs=1e-6)


def test_containment_violation_detected():
    # region that does not contain the inner intersection
    small = ConstraintSet([
        halfspace_constraint([1.0, 0.0], 0.6), halfspace_constraint([-1.0, 0.0], 0.5),
        halfspace_constraint([0.0, 1.0], 1.5), halfspace_constraint([0.0, -1.0], 0.5)])
    with pytest.raises(HypothesisViolation):
        bound_max_distance(small, inner_disk(), C, 0.42)
    # a region that excludes the inner center: the deep point is the counterexample
    shifted = box(0.6, 2.0)
    with pytest.raises(HypothesisViolation, match="not contained") as exc_info:
        bound_max_distance(shifted, inner_disk(), C, 0.42)
    err = exc_info.value
    np.testing.assert_allclose(err.counterexample, [0.5, 0.5], atol=1e-12)
    assert err.distance == pytest.approx(0.1, abs=1e-12)


def test_farthest_point_past_the_region_is_a_containment_counterexample():
    # the disk pokes 1e-5 past the faces x = -0.49999 and y = -0.49999, each
    # along an arc of 9e-3 rad, which the 200 rays of seed 0 miss; the
    # farthest point from c lies on the first arc, and it is refused there
    # rather than cast a ray from
    region = box(-0.49999, 1.5)
    with pytest.raises(HypothesisViolation, match="not contained") as exc_info:
        bound_max_distance(region, inner_disk(), C, 0.42, seed=0)
    err = exc_info.value
    assert inner_disk().worst_residual(err.counterexample) <= 0.0
    assert err.distance == pytest.approx(1e-5, rel=1e-3)


def test_disk_leaving_the_square_by_a_hundredth_is_caught_on_every_seed():
    # the disk pokes 0.01 past the face x = 1.5 along an arc of 0.28 rad, so a
    # ray from its centre exits there with probability 0.045 and all 200 rays
    # miss it with probability about 1e-4
    shifted_disk = BallIntersection([[0.51, 0.5]], 1.0)
    for seed in range(20):
        with pytest.raises(HypothesisViolation, match="not contained"):
            bound_max_distance(unit_square_shifted(), shifted_disk, C, 0.42, seed=seed)


@pytest.mark.parametrize("region,bi,c", [
    (unit_square_shifted(), BallIntersection([[0.5, 0.5, 0.0]], 1.0), [4.0, 0.5, 0.0]),
    (ConstraintSet([ball_constraint(Ball([0.0, 0.0, 0.0], 2.0))]),
     BallIntersection([[0.0]], 1.0), [4.0]),
    (unit_square_shifted(), inner_disk(), [4.0, 0.5, 0.0]),
    (unit_square_shifted(), inner_disk(), 4.0),
])
def test_dimension_mismatch_raised_before_sampling(monkeypatch, region, bi, c):
    import hullscope.application as application

    def fail(*args, **kwargs):
        raise AssertionError("sampled before checking dimensions")

    monkeypatch.setattr(application, "deep_point", fail)
    monkeypatch.setattr(application, "_exits", fail)
    with pytest.raises(DimensionMismatch):
        bound_max_distance(region, bi, c, 0.42)


@pytest.mark.parametrize("c", [[math.nan, 0.5], [4.0, math.inf]])
def test_non_finite_center_raised_before_sampling(monkeypatch, c):
    import hullscope.application as application

    def fail(*args, **kwargs):
        raise AssertionError("sampled before checking the outer center")

    monkeypatch.setattr(application, "deep_point", fail)
    monkeypatch.setattr(application, "_exits", fail)
    with pytest.raises(ValueError, match="finite"):
        bound_max_distance(unit_square_shifted(), inner_disk(), c, 0.42)


def three_balls():
    return BallIntersection([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]], 1.0)


def test_appbound_solves_one_deep_point(monkeypatch):
    # the mean of the centers has depth -0.679; the dual ascent goes deeper,
    # towards the centre of the smallest circle enclosing the three centers
    import hullscope.application as application

    exits = application._exits
    starts = []

    def recording(region, x0, d):
        starts.append(np.array(x0))
        return exits(region, x0, d)

    monkeypatch.setattr(application, "_exits", recording)
    bi = three_balls()
    c1 = bi.constraint_set()
    assert c1.worst_residual(np.mean(bi.centers, axis=0)) > -0.68
    rep = bound_max_distance(c1, bi, [5.0, 0.3], 0.0, BisectionConfig(eps=1e-2))
    # both checks start from the one deep point, the boundary point from x_star_c
    assert len(starts) == 3
    np.testing.assert_array_equal(starts[0], starts[1])
    assert c1.worst_residual(starts[0]) <= -0.69
    np.testing.assert_array_equal(starts[2], rep.x_star_c)


def balls_and_halfspaces(n: int) -> ConstraintSet:
    """Three radius-2 balls near the origin and four halfspaces at distance 1 from it."""
    rng = np.random.default_rng(n)
    balls = [ball_constraint(Ball(0.3 * rng.standard_normal(n), 2.0)) for _ in range(3)]
    normals = rng.standard_normal((4, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return ConstraintSet(balls + [halfspace_constraint(a, 1.0) for a in normals])


def unit_rays(count: int, n: int, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [2, 5])
def test_exits_are_where_the_rays_leave(n):
    region = balls_and_halfspaces(n)
    x0 = np.full(n, 0.05)
    assert region.worst_residual(x0) < -0.5
    d = unit_rays(300, n, 3)
    t = _exits(region, x0, d)
    assert (t > 0).all()
    assert max(abs(region.worst_residual(x)) for x in x0 + t[:, None] * d) <= 1e-12


@pytest.mark.parametrize("n", [2, 5])
def test_half_space_is_refused_as_unbounded(n):
    half = ConstraintSet([halfspace_constraint(np.eye(n)[0], 1.0)])
    d = unit_rays(50, n, 0)
    t = _exits(half, np.zeros(n), d)
    np.testing.assert_array_equal(np.isinf(t), d[:, 0] <= 1e-14)
    np.testing.assert_allclose(t[d[:, 0] > 1e-14], 1.0 / d[d[:, 0] > 1e-14, 0], rtol=1e-15)
    with pytest.raises(UnboundedRegion, match=r"unbounded along direction \["):
        bound_max_distance(half, BallIntersection([-np.eye(n)[0]], 1.0), np.full(n, 4.0), 0.42)


@pytest.mark.parametrize("scale", [1e5, 1e9])
@pytest.mark.parametrize("centers", [[[1.5, 0.5]], [[1.0, 0.0], [2.0, 0.0], [1.5, 0.8]]],
                         ids=["disk", "three-balls"])
def test_ball_shared_with_the_region_passes_both_checks_at_large_scale(centers, scale):
    # every exit lies on a ball of both sets: there the residual
    # |x - c|^2 - R^2 reads rounding of about ulp(R^2) (2e-6 at R = 1e5),
    # and the distance to C1 rounding of about ulp(|x|) (2e-7 at 1e9)
    bi = BallIntersection(scale * np.array(centers), scale)
    for seed in range(5):
        rep = bound_max_distance(bi.constraint_set(), bi, [5 * scale, 0.3 * scale], 0.0,
                                 BisectionConfig(eps=1e-2 * scale), seed=seed)
        assert rep.dist_x_hat == pytest.approx(rep.v_c, rel=1e-6)


def test_deep_point_ascent_stops_when_the_dual_stops_rising():
    bi = three_balls()
    _, deep, D, steps = _dual_ascent(bi)
    assert steps < 100
    assert D <= -0.69
    assert bi.worst_residual(deep) <= -0.69


def test_three_ball_boundary_point_is_on_the_boundary_and_no_nearer_c():
    region = three_balls()
    c = np.array([5.0, 0.3])
    for x_star_c in ([0.5, 0.0], [0.2, 0.1], [0.0, 0.0]):
        x_hat = extract_boundary_point(region, x_star_c, c)
        assert abs(region.worst_residual(x_hat)) <= 1e-12
        assert np.linalg.norm(x_hat - c) >= np.linalg.norm(np.asarray(x_star_c) - c)


def test_boundary_point_of_x_star_c_on_the_boundary_is_no_nearer_c():
    # x_star_c on a circle of radius 1e6 that passes near the origin, the ray
    # pointing out of it: |x - center|^2 - R^2 reads rounding of ulp(1e12),
    # so about a quarter of the exits read -1e-10 to -4e-10, far above the
    # ulps of x, and would move x_hat towards c unless clamped
    R = 1e6
    center = np.array([R, 0.0])
    region = ConstraintSet([ball_constraint(Ball(center, R))])
    c = np.array([3.0, 0.3])
    rng = np.random.default_rng(0)
    exits = []
    for phi in math.pi + rng.uniform(-1e-5, 1e-5, 200):
        x_star_c = center + R * np.array([math.cos(phi), math.sin(phi)])
        d = (x_star_c - c) / np.linalg.norm(x_star_c - c)
        exits.append(_exits(region, x_star_c, d[None])[0])
        x_hat = extract_boundary_point(region, x_star_c, c)
        assert np.linalg.norm(x_hat - c) >= np.linalg.norm(x_star_c - c)
    assert sum(t < 0.0 for t in exits) >= 20


def test_boundary_point_refuses_an_x_star_c_outside_the_region(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("cast a ray from a point outside the region")

    monkeypatch.setattr("hullscope.application._exits", fail)
    # 0.1 outside the disk about (0.5, 0.8), and 1e-6 outside the square
    with pytest.raises(ValueError, match="not in the region"):
        extract_boundary_point(three_balls(), [0.5, -0.3], [5.0, 0.3])
    with pytest.raises(ValueError, match="not in the region"):
        extract_boundary_point(unit_square_shifted(), [-0.500001, 0.5], C)


def test_three_ball_sandwich():
    bi = three_balls()
    region = bi.constraint_set()
    c = [5.0, 0.3]
    eps = 1e-2
    rep = bound_max_distance(region, bi, c, 0.0, BisectionConfig(eps=eps))
    oracle = grid_max_distance(bi, c, GridSpec([-0.05, -0.25], [1.05, 0.9], 1e-3)).r_max
    assert rep.v_c == pytest.approx(oracle, abs=2 * eps)
    assert rep.v_c - 2 * eps <= rep.dist_x_hat <= rep.v_c + rep.delta + 2 * eps
    assert region.worst_residual(rep.x_hat) <= 1e-8


def three_disks():
    """C1: unit disks about (0, 0), (1, 0) and (0.5, 0.8); the region: the same disks at radius 1.3."""
    bi = three_balls()
    return ConstraintSet([ball_constraint(Ball(center, 1.3)) for center in bi.centers]), bi


THREE_DISK_C = [5.0, 0.3]
# the farthest region point from C1 is the region's top vertex (0.5, 1.2),
# and its nearest point of C1 is C1's top vertex (0.5, sqrt(0.75))
THREE_DISK_WORST = 1.2 - math.sqrt(0.75)


def dykstra_distance(bi, x) -> float:
    return float(np.linalg.norm(x - dykstra_project_full(bi, x).point))


def covering_exits(monkeypatch, region, bi, c, delta, seed):
    """The covering exits of one ``bound_max_distance`` run and their ray gaps."""
    import hullscope.application as application

    exits = application._exits
    calls = []

    def recording(reg, x0, d):
        calls.append((x0, d, exits(reg, x0, d)))
        return calls[-1][2]

    monkeypatch.setattr(application, "_exits", recording)
    try:
        bound_max_distance(region, bi, c, delta, seed=seed)
    except HypothesisViolation:
        pass
    (deep, d, reach), (_, _, t) = calls[:2]
    return deep + reach[200:, None] * d[200:], reach[200:] - t[200:]


@pytest.mark.parametrize("case, seed", [("square-and-disk", seed) for seed in range(5)]
                         + [("three-disk", 0)])
def test_covering_bounds_hold_against_dykstra(monkeypatch, case, seed):
    # the ray gap bounds an exit's distance to C1 from above and the dual
    # bound from below. Dykstra stops at a sweep that moves the point by at
    # most 1e-11, and at the three-disk vertex it reads 3.9e-12 above the
    # exact distance, where the gap is exact: the margin is its stopping rule
    if case == "square-and-disk":
        region, bi, c, delta = unit_square_shifted(), inner_disk(), C, 0.42
    else:
        (region, bi), c, delta = three_disks(), THREE_DISK_C, 0.34
    exits, gaps = covering_exits(monkeypatch, region, bi, c, delta, seed)
    assert len(exits) >= 1000
    for x, gap in zip(exits, gaps):
        dyk = dykstra_distance(bi, x)
        assert gap >= dyk - 1e-11
        limit = delta + 1e-7 * max(1.0, float(np.linalg.norm(x)))
        assert distance_margin(bi, x, 0.0, limit) <= dyk + 1e-12


@pytest.mark.parametrize("delta, refused", [(0.34, False), (0.5, False),
                                            (0.33, True), (0.3313, True), (0.332, True)])
def test_three_disk_covering_verdicts(delta, refused):
    region, bi = three_disks()
    if not refused:
        rep = bound_max_distance(region, bi, THREE_DISK_C, delta)
        assert rep.dist_x_hat >= rep.v_c
        return
    with pytest.raises(HypothesisViolation, match="covering constant") as exc_info:
        bound_max_distance(region, bi, THREE_DISK_C, delta)
    err = exc_info.value
    np.testing.assert_allclose(err.counterexample, [0.5, 1.2], rtol=0, atol=1e-15)
    assert delta < err.distance <= dykstra_distance(bi, err.counterexample)
    assert err.distance == pytest.approx(THREE_DISK_WORST, abs=1e-14)


def test_covering_refusal_rests_on_an_exact_lower_bound(monkeypatch, caplog):
    import hullscope.application as application

    readings = []

    def reading(cs, x, R, tol):
        readings.append((np.array(x), tol, distance_margin(cs, x, R, tol)))
        return readings[-1][2]

    monkeypatch.setattr(application, "distance_margin", reading)
    region, bi = three_disks()
    with pytest.raises(HypothesisViolation) as exc_info:
        bound_max_distance(region, bi, THREE_DISK_C, 0.33)
    err = exc_info.value
    x, tol, lower = readings[-1]
    np.testing.assert_array_equal(err.counterexample, x)
    assert err.distance == lower > tol
    assert all(lo <= limit for _, limit, lo in readings[:-1])
    # with the Newton solve stopped before its first step the lower bounds
    # read 0: no exit is refused, and each one left between its bounds
    # passes with a warning
    monkeypatch.setattr("hullscope.dual.DUAL_STEPS", 0)
    readings.clear()
    with caplog.at_level(logging.WARNING, logger="hullscope.application"):
        bound_max_distance(region, bi, THREE_DISK_C, 0.33)
    assert readings and max(lo for _, _, lo in readings) <= 0.33
    assert "lies between 0 and" in caplog.text


def test_covering_exit_within_the_threshold_passes_on_a_member_of_c1(monkeypatch, caplog):
    # at 0.33 the first random exits whose gaps exceed the threshold lie
    # within it: the member of C1 the distance dual finds shows it
    import hullscope.application as application

    uppers = []

    def reading(cs, x, toward):
        uppers.append((np.array(x), distance_above(cs, x, toward)))
        return uppers[-1][1]

    monkeypatch.setattr(application, "distance_above", reading)
    region, bi = three_disks()
    with caplog.at_level(logging.WARNING, logger="hullscope.application"):
        with pytest.raises(HypothesisViolation):
            bound_max_distance(region, bi, THREE_DISK_C, 0.33)
    assert uppers
    for x, upper in uppers:
        assert dykstra_distance(bi, x) - 1e-11 <= upper <= 0.33
    assert caplog.text == ""


def test_thin_inner_intersection_has_a_deep_point():
    # eight unit balls on the circle of radius sqrt(1 - 1e-7) around the
    # origin: C1 has depth -1e-7 and lies within 1e-3 of the origin
    rho = math.sqrt(1.0 - 1e-7)
    angles = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.5, 4.2]
    bi = BallIntersection([[rho * math.cos(t), rho * math.sin(t)] for t in angles], 1.0)
    c = [5.0, 0.3]
    eps = 1e-2
    rep = bound_max_distance(bi.constraint_set(), bi, c, 0.0, BisectionConfig(eps=eps))
    assert rep.v_c == pytest.approx(math.hypot(*c), abs=2 * eps)


def test_empty_inner_intersection_rejected():
    bi = BallIntersection([[0.0, 0.0], [3.0, 0.0]], 1.0)
    with pytest.raises(HypothesisViolation, match="no usable interior"):
        bound_max_distance(bi.constraint_set(), bi, [5.0, 0.3], 0.0)


def test_extract_boundary_point_square_face():
    x_hat = extract_boundary_point(unit_square_shifted(), [-0.5, 0.5], C)
    assert x_hat[0] == pytest.approx(-0.5, abs=1e-4)
    assert -0.5 - 1e-9 <= x_hat[1] <= 1.5 + 1e-9


def test_extract_boundary_point_stops_at_fixed_point(monkeypatch):
    # the square face x = -0.5 is normal to the direction: the ray from a
    # point on it leaves at once, and nothing is projected
    calls = []

    def counting(region, y, **kwargs):
        calls.append(1)
        return project_region(region, y, **kwargs)

    monkeypatch.setattr("hullscope.application.project_region", counting)
    x_hat = extract_boundary_point(unit_square_shifted(), [-0.5, 0.5], C)
    np.testing.assert_array_equal(x_hat, [-0.5, 0.5])
    assert calls == []


def test_extract_boundary_point_zero_direction():
    with pytest.raises(ValueError):
        extract_boundary_point(unit_square_shifted(), C, C)


@pytest.mark.parametrize("x_star_c, c", [
    ([-0.5, 0.5, 0.0], [4.0, 0.5, 0.0]),   # both 3-D on the 2-D square
    ([-0.5, 0.5], 4.0),                     # a scalar c would broadcast to (4, 4)
    ([-0.5, 0.5], [4.0, 0.5, 0.0]),
])
def test_extract_boundary_point_dimension_mismatch(x_star_c, c):
    with pytest.raises(DimensionMismatch):
        extract_boundary_point(unit_square_shifted(), x_star_c, c)


@pytest.mark.parametrize("x_star_c, c", [
    ([math.nan, 0.5], [4.0, 0.5]),
    ([-0.5, 0.5], [math.inf, 0.5]),
])
def test_extract_boundary_point_non_finite_raised_before_projecting(monkeypatch, x_star_c, c):
    def fail(*args, **kwargs):
        raise AssertionError("projected before checking finiteness")

    monkeypatch.setattr("hullscope.application._exits", fail)
    with pytest.raises(ValueError, match="finite"):
        extract_boundary_point(unit_square_shifted(), x_star_c, c)


def test_project_non_finite_raised_before_sweeping(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("swept before checking finiteness")

    monkeypatch.setattr("hullscope.feasibility._projector", fail)
    for y in ([math.nan, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            unit_square_shifted().project(y)


def test_extract_boundary_point_single_ball():
    # direction (0, 0.7): the exit is center + radius * d / ||d||
    x_hat = extract_boundary_point(disk_region(), [0.5, 1.2], [0.5, 0.5])
    np.testing.assert_allclose(x_hat, [0.5, 1.5], atol=1e-12)


def test_x_hat_feasible_and_objective_dominates_start():
    region = unit_square_shifted()
    x_star_c = np.array([-0.49996, 0.5])
    c = np.asarray(C)
    x_hat = extract_boundary_point(region, x_star_c, c)
    assert region.worst_residual(x_hat) <= 1e-8
    d = (x_star_c - c) / np.linalg.norm(x_star_c - c)
    assert float(d @ x_hat) >= float(d @ x_star_c) - 1e-9


def test_projection_step_is_monotone_in_objective():
    # moving along d then projecting never decreases d.x on a convex region
    rng = np.random.default_rng(17)
    region = unit_square_shifted()
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    x = project_region(region, rng.uniform(-0.5, 1.5, 2))
    for k in range(50):
        step = 2.0 / math.sqrt(k + 1)
        x_next = project_region(region, x + step * d)
        assert float(d @ x_next) >= float(d @ x) - 1e-9
        x = x_next


def test_region_validation(tmp_path):
    with pytest.raises(ValueError):
        ConstraintSet([])
    # every region operation refuses a zero halfspace normal or a non-leaf constraint
    flat = ConstraintSet([halfspace_constraint([0.0, 0.0], 1.0), ball_constraint(Ball([0.0, 0.0], 1.0))])
    with pytest.raises(ValueError, match="normal"):
        project_region(flat, [0.0, 0.0])
    with pytest.raises(ValueError, match="normal"):
        bound_max_distance(flat, inner_disk(), C, 0.42)
    with pytest.raises(TypeError):
        project_region(ConstraintSet([PositivePart(Affine([1.0, 0.0], 0.0))]), [0.0, 0.0])
    with pytest.raises(ValueError, match="offset"):
        project_region(ConstraintSet([BallQuad([0.0, 0.0], 1.0)]), [0.0, 0.0])
    # and a problem file is refused at load, as the file format always did
    doc = {"version": 1, "dimension": 2,
           "region": {"halfspaces": [{"a": [0.0, 0.0], "b": 1.0}]}}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="normal"):
        load_problem(path)
    doc["region"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError):
        load_problem(path)
