import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hullscope import (Ball, ConstraintSet, DimensionMismatch, as_vector, ball_constraint,
                       halfspace_constraint)
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


@pytest.mark.parametrize("radius", [1e160, 1e-170, math.inf, math.nan])
def test_ball_refuses_a_radius_whose_square_is_not_a_positive_float(radius):
    # the constraint is ||x - c||^2 - r^2: 1e160 squares to inf, 1e-170 to 0
    with pytest.raises(ValueError, match=re.escape(f"radius {radius!r} must be positive")):
        Ball((0, 0), radius)


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


# each halfspace (a, b) is a.x <= b; the projections were solved as QPs
STALLED_SHIFT = [
    ((-6.3, 3.7), [(0.04, 0.65), (-0.02, 0.59)],
     [((-1.25, -1.0), 0.095), ((0.12, 2.85), 2.57), ((0.77, -0.59), 0.51), ((1.15, 0.52), 1.1)],
     (-0.82519970951554, 0.93649963689188)),
    ((2.7, -12.0), [(-0.09, 0.81), (-0.23, 0.99), (0.08, 0.99)],
     [((-0.93, -1.82), -1.19), ((2.95, -0.18), 0.37), ((-0.42, -2.09), -1.73)],
     (0.17379949047444, 0.79282498277547)),
]


@pytest.mark.parametrize("y, centers, halfspaces, projection", STALLED_SHIFT)
def test_projection_converges_only_once_its_corrections_settle(y, centers, halfspaces, projection):
    # a stop on the point's move alone reports these converged after 90 and
    # 31 sweeps, with worst residuals 0.053 and 0.079, while the corrections
    # still drift
    cs = ConstraintSet([ball_constraint(Ball(c, 1.0)) for c in centers]
                       + [halfspace_constraint(a, b) for a, b in halfspaces])
    res = cs.project(y)
    assert res.converged and res.last_shift <= 1e-11
    assert cs.worst_residual(res.point) <= 1e-9
    np.testing.assert_allclose(res.point, projection, rtol=0, atol=1e-9)


def _direction(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


@st.composite
def regions(draw):
    """Unit balls within ``0.5 / sqrt(n)`` of a point ``z`` and halfspaces passing 0.05-1 beyond it, and a ``y``.

    0-3 balls, then 0-5 halfspaces, or 2-5 when no ball was drawn.
    """
    n = draw(st.sampled_from([2, 3, 5, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1.0, 1.0, n)
    leaves = [ball_constraint(Ball(z + rng.uniform(0.0, 0.5 / math.sqrt(n)) * _direction(rng, n), 1.0))
              for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0 if leaves else 2, 5))):
        a = rng.uniform(0.5, 3.0) * _direction(rng, n)
        leaves.append(halfspace_constraint(a, float(a @ z) + np.linalg.norm(a) * rng.uniform(0.05, 1.0)))
    order = draw(st.permutations(range(len(leaves))))
    y = z + rng.uniform(0.5, 5.0) * _direction(rng, n)
    return ConstraintSet([leaves[i] for i in order]), y, z, rng


@given(regions())
def test_a_converged_projection_is_in_the_set_and_nearest(case):
    cs, y, z, rng = case
    res = cs.project(y)
    if not res.converged:
        return
    p = res.point
    assert cs.worst_residual(p) <= 1e-9
    # (y - p).(q - p) <= 0 for every member q when p is the projection
    members = [z] + [q for q in z + rng.uniform(-2.0, 2.0, (64, z.size)) if cs.worst_residual(q) <= 0.0]
    for q in members:
        assert float((y - p) @ (q - p)) <= 1e-8
