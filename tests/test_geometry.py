import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hullscope import Ball, ConstraintSet, DimensionMismatch, as_vector, ball_constraint
from hullscope.geometry import as_point


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


@st.composite
def points(draw):
    """Coordinates of shape ``()``, ``(k,)`` or ``(k, 1)`` and a ``dim``, with NaN or inf put in."""
    dim = draw(st.integers(1, 5))
    k = draw(st.one_of(st.just(dim), st.integers(1, 6)))
    shape = draw(st.sampled_from([(), (k,), (k, 1)]))
    size = math.prod(shape)
    coords = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=size, max_size=size))).reshape(shape)
    flat = coords.reshape(-1)  # a view: writing it writes coords
    for i in draw(st.sets(st.integers(0, size - 1), max_size=2)):
        flat[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return coords, dim


@given(points())
def test_as_point_refuses_exactly_a_wrong_shape_then_a_non_finite_coordinate(case):
    coords, dim = case
    if coords.shape != (dim,):
        with pytest.raises(DimensionMismatch):
            as_point(coords, dim)
    elif not np.isfinite(coords).all():
        with pytest.raises(ValueError, match="point has non-finite") as info:
            as_point(coords, dim)
        assert not isinstance(info.value, DimensionMismatch)
    else:
        v = as_point(coords.tolist(), dim)
        assert v.dtype == np.float64 and not v.flags.writeable
        np.testing.assert_array_equal(v, coords)


def test_project_to_ball():
    # the projector recovers the radius from the offset -r^2 exactly
    b = ConstraintSet([ball_constraint(Ball((0, 0), 0.1))])
    assert b.project((5, 0)).point.tolist() == [0.1, 0.0]
    np.testing.assert_allclose(b.project((0.02, 0.01)).point, [0.02, 0.01])
