import numpy as np
import pytest

from hullscope import Ball, ConstraintSet, DimensionMismatch, as_vector, ball_constraint


def test_contains_boundary():
    # a ball is closed: its worst residual is 0 on the boundary sphere
    ball = ConstraintSet([ball_constraint(Ball((0, 0), 1.0))])
    assert ball.worst_residual((1, 0)) == 0.0
    assert ball.worst_residual((0.5, 0)) < 0.0
    assert ball.worst_residual((1.5, 0)) > 0.0


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ConstraintSet([ball_constraint(Ball((0, 0), 1.0))]).project((1, 0, 0))


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        Ball((0, 0), 0.0)
    with pytest.raises(ValueError):
        Ball((0, 0), -1.0)


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_as_vector_is_frozen():
    v = as_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v[0] = 3.0


def test_project_to_ball():
    # the projector recovers the radius from the offset -r^2 exactly
    b = ConstraintSet([ball_constraint(Ball((0, 0), 0.1))])
    assert b.project((5, 0)).point.tolist() == [0.1, 0.0]
    np.testing.assert_allclose(b.project((0.02, 0.01)).point, [0.02, 0.01])
