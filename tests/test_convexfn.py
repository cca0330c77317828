import numpy as np
import pytest

from hullscope import (Affine, Ball, BallQuad, DimensionMismatch, Max, PositivePart,
                       Sum, ball_constraint, halfspace_constraint, minimize)


def abs_value_1d():
    return Max([Affine([1.0], 0.0), Affine([-1.0], 0.0)])


def test_positive_part_of_ball_quad_outside():
    fn = PositivePart(BallQuad([0.0, 0.0], -1.0))
    v, g = fn.eval(np.array([2.0, 0.0]))
    assert v == pytest.approx(3.0)
    np.testing.assert_allclose(g, [4.0, 0.0])


def test_positive_part_of_ball_quad_inside():
    fn = PositivePart(BallQuad([0.0, 0.0], -1.0))
    v, g = fn.eval(np.array([0.5, 0.0]))
    assert v == 0.0
    np.testing.assert_allclose(g, [0.0, 0.0])


def test_max_achieving_index():
    fn = abs_value_1d()
    v, g, i = fn.eval_with_index(np.array([5.0]))
    assert v == 5.0
    np.testing.assert_allclose(g, [1.0])
    assert i == 0


def test_max_tie_takes_lowest_index():
    fn = Max([Affine([1.0], 0.0), Affine([1.0], 0.0)])
    _, _, i = fn.eval_with_index(np.array([2.0]))
    assert i == 0


def test_positive_part_semantics():
    base = Affine([1.0], 0.0)
    wrapped = PositivePart(base)
    assert wrapped.value([-2.0]) == 0.0
    assert wrapped.value([2.0]) == 2.0
    assert wrapped.value([0.0]) == 0.0


def test_dimension_mismatch_raises():
    fn = BallQuad([0.0, 0.0], 0.0)
    with pytest.raises(DimensionMismatch):
        minimize(fn, [1.0, 2.0, 3.0])


def test_mixed_dimension_terms_rejected():
    with pytest.raises(DimensionMismatch):
        Sum([Affine([1.0], 0.0), Affine([1.0, 2.0], 0.0)])
    with pytest.raises(DimensionMismatch):
        Max([BallQuad([0.0], 0.0), BallQuad([0.0, 0.0], 0.0)])


def test_constraint_builders():
    g = ball_constraint(Ball([1.0, 0.0], 2.0))
    assert g.value([1.0, 0.0]) == pytest.approx(-4.0)
    assert g.value([4.0, 0.0]) == pytest.approx(5.0)
    h = halfspace_constraint([1.0, 0.0], 1.0)  # x1 <= 1
    assert h.value([0.0, 7.0]) == pytest.approx(-1.0)
    assert h.value([3.0, 0.0]) == pytest.approx(2.0)


def _random_trees(rng, n):
    """A zoo of trees covering every node kind at dimension n."""
    a1 = rng.standard_normal(n)
    a2 = rng.standard_normal(n)
    c1 = rng.standard_normal(n)
    c2 = rng.standard_normal(n)
    yield Affine(a1, rng.standard_normal())
    yield BallQuad(c1, rng.standard_normal())
    yield PositivePart(BallQuad(c1, -abs(rng.standard_normal())))
    yield PositivePart(Affine(a2, rng.standard_normal()))
    yield Sum([PositivePart(BallQuad(c1, -1.0)), PositivePart(BallQuad(c2, -1.0))])
    yield Max([Affine(a1, 0.0), Affine(a2, 0.0), BallQuad(c2, -2.0)])
    yield Max([Sum([Affine(a1, 1.0), PositivePart(BallQuad(c1, -1.0))]),
               Sum([Affine(a2, -1.0), PositivePart(BallQuad(c2, -1.0))])])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_midpoint_convexity(n):
    rng = np.random.default_rng(2024 + n)
    trees = list(_random_trees(rng, n))
    trials_per_tree = 1000 // len(trees) + 1
    for fn in trees:
        for _ in range(trials_per_tree):
            x = rng.normal(0.0, 3.0, n)
            y = rng.normal(0.0, 3.0, n)
            fm = fn.value(0.5 * (x + y))
            assert fm <= 0.5 * (fn.value(x) + fn.value(y)) + 1e-9


@pytest.mark.parametrize("n", [1, 2, 5])
def test_subgradient_inequality(n):
    rng = np.random.default_rng(77 + n)
    for fn in _random_trees(rng, n):
        for _ in range(200):
            x = rng.normal(0.0, 3.0, n)
            y = rng.normal(0.0, 3.0, n)
            fx, g = fn.eval(x)
            assert fn.value(y) >= fx + float(g @ (y - x)) - 1e-9


@pytest.mark.parametrize("n", [1, 2, 5])
def test_positive_part_equals_clamped_inner(n):
    rng = np.random.default_rng(5 + n)
    inner = BallQuad(rng.standard_normal(n), -1.0)
    fn = PositivePart(inner)
    for _ in range(300):
        x = rng.normal(0.0, 2.0, n)
        assert fn.value(x) == max(inner.value(x), 0.0)


def test_batch_values_match_pointwise():
    rng = np.random.default_rng(99)
    for fn in _random_trees(rng, 3):
        X = rng.normal(0.0, 2.0, (50, 3))
        batch = fn.values(X)
        single = np.array([fn.value(x) for x in X])
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-13)
