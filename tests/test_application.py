import json
import math

import numpy as np
import pytest

from hullscope import (Affine, Ball, BallIntersection, BallQuad, ConstraintSet,
                       HypothesisViolation, PositivePart, ProblemFileError, ball_constraint,
                       bound_max_distance, extract_boundary_point, halfspace_constraint,
                       load_problem, project_region)


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


def test_extract_boundary_point_square_face():
    x_hat = extract_boundary_point(unit_square_shifted(), [-0.5, 0.5], C)
    assert x_hat[0] == pytest.approx(-0.5, abs=1e-4)
    assert -0.5 - 1e-9 <= x_hat[1] <= 1.5 + 1e-9


def test_extract_boundary_point_zero_direction():
    with pytest.raises(ValueError):
        extract_boundary_point(unit_square_shifted(), C, C)


def test_extract_boundary_point_single_ball():
    # direction (0, 1.1): the maximizer is center + radius * d / ||d||
    x_hat = extract_boundary_point(disk_region(), [0.5, 1.6], [0.5, 0.5])
    np.testing.assert_allclose(x_hat, [0.5, 1.5], atol=1e-4)


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
    with pytest.raises(ValueError, match="normal"):
        load_problem(path)
    doc["region"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError):
        load_problem(path)
