import math

import numpy as np
import pytest

from hullscope import (Affine, Ball, BallQuad, ConstraintSet, DimensionMismatch, Max,
                       NonFiniteValue, SolverConfig, ball_constraint,
                       build_g_tilde, minimize, refine_minimum)

from conftest import value


def abs_value():
    return Max([Affine([1.0], 0.0), Affine([-1.0], 0.0)])


def disjoint_disks_merit():
    cs = ConstraintSet([ball_constraint(Ball([0.0, 0.0], 1.0)),
                        ball_constraint(Ball([3.0, 0.0], 1.0))])
    return build_g_tilde(cs)


def scan_disjoint_disks_merit() -> float:
    """Independent 1-d oracle: the merit restricted to the axis, dense scan.

    Both disk centers sit on the x-axis, so by symmetry the minimum is
    attained at y = 0 and the 2-d problem reduces to one variable.
    """
    t = np.linspace(-1.0, 4.0, 50_001)
    vals = np.maximum(t ** 2 - 1.0, 0.0) + np.maximum((3.0 - t) ** 2 - 1.0, 0.0)
    return float(vals.min())


def test_abs_value_polyak():
    res = minimize(abs_value(), [5.0], SolverConfig(), target=0.0)
    assert res.converged
    assert abs(res.x_best[0]) <= 1e-8


def test_smooth_quadratic_polyak_high_accuracy():
    fn = BallQuad([1.0, 2.0], 0.0)
    res = minimize(fn, [0.0, 0.0], SolverConfig(), target=0.0)
    assert res.converged
    np.testing.assert_allclose(res.x_best, [1.0, 2.0], atol=1e-4)


def test_f_best_matches_eval_at_x_best():
    fn = disjoint_disks_merit()
    res = minimize(fn, [0.2, -0.7], SolverConfig(max_iters=3000))
    assert res.f_best == value(fn, res.x_best)


def test_f_best_is_running_minimum():
    fn = disjoint_disks_merit()
    seen = []
    orig = fn.eval

    class Tracker:
        dim = fn.dim

        def eval(self, x):
            v, g = orig(x)
            seen.append(v)
            return v, g

    res = minimize(Tracker(), [0.0, 0.0], SolverConfig(max_iters=2000))
    running = np.minimum.accumulate(seen)
    assert res.f_best == running[-1]
    assert np.all(np.diff(running) <= 0.0)


def test_polyak_never_overshoots_exact_target():
    # both functions have optimal value exactly 0
    for fn, x0 in ((abs_value(), [7.0]), (BallQuad([1.0, 2.0], 0.0), [-3.0, 0.5])):
        res = minimize(fn, x0, SolverConfig(), target=0.0)
        assert res.f_best >= -1e-8


def test_zero_subgradient_returns_immediately():
    fn = Affine([0.0, 0.0], 3.0)
    res = minimize(fn, [1.0, 1.0], SolverConfig())
    assert res.converged
    assert res.iters == 1
    assert res.f_best == 3.0


def test_non_finite_value_aborts():
    class Bad:
        dim = 1

        def eval(self, x):
            return float("nan"), np.array([1.0])

    with pytest.raises(NonFiniteValue):
        minimize(Bad(), [0.0], SolverConfig())


class Unevaluated:
    dim = 2

    def eval(self, x):
        raise AssertionError("evaluated before checking the arguments")


def test_non_finite_start_is_a_value_error_before_any_evaluation():
    # NonFiniteValue is kept for evaluations; a bad start is the caller's input
    with pytest.raises(ValueError, match="x0 has non-finite"):
        minimize(Unevaluated(), [math.nan, 0.0], SolverConfig())


@pytest.mark.parametrize("x0, error, text", [([math.nan, 0.0], ValueError, "non-finite"),
                                             ([0.0, 0.0, 0.0], DimensionMismatch, "shape")])
def test_refine_minimum_refuses_a_bad_start(x0, error, text):
    # a NaN row of the merit reads as satisfied, so an unchecked NaN start
    # would close the bracket at 0 on the empty set of two disjoint disks
    with pytest.raises(error, match=text):
        refine_minimum(disjoint_disks_merit(), x0, lower_bound=0.0, value_gap=1e-8, max_iters=100)


@pytest.mark.parametrize("lower_bound", [math.inf, -math.inf, math.nan])
def test_refine_minimum_refuses_a_non_finite_lower_bound(lower_bound):
    # inf would close the bracket with no probe and -inf would reach minimize
    # as target; a NaN bound would leave the bracket unconverged in silence
    with pytest.raises(ValueError, match="lower_bound"):
        refine_minimum(Unevaluated(), [1.5, 0.0], lower_bound=lower_bound, value_gap=1e-8, max_iters=100)


def test_refine_minimum_accepts_a_lower_bound_above_the_start_value():
    # the inclusion check passes an exact dual bound that G in floats can read
    # below by rounding: the bracket closes at once, with no probe
    fn = disjoint_disks_merit()
    f0 = value(fn, [1.5, 0.0])
    ref = refine_minimum(fn, [1.5, 0.0], lower_bound=f0 + 1e-15, value_gap=1e-8, max_iters=100)
    assert ref.converged and ref.iters == 0 and ref.f_best == f0


def test_stall_marks_converged():
    # unattainable target: the run stalls above it and reports converged
    fn = disjoint_disks_merit()
    res = minimize(fn, [0.0, 0.0],
                   SolverConfig(max_iters=30_000), target=0.0)
    assert res.converged
    assert res.f_best > 1.0


def test_refine_minimum_reaches_known_value():
    fn = disjoint_disks_merit()
    first = minimize(fn, [0.0, 0.0], SolverConfig(), target=0.0)
    ref = refine_minimum(fn, first.x_best, lower_bound=0.0, value_gap=1e-8, max_iters=50_000)
    assert ref.converged
    oracle = scan_disjoint_disks_merit()
    assert oracle == pytest.approx(2.5, abs=1e-6)
    assert ref.f_best == pytest.approx(oracle, abs=1e-6)


def test_refine_minimum_without_lower_bound():
    # a loose lower bound, far below the minimum, still closes the bracket
    fn = BallQuad([2.0, -1.0], -4.0)  # minimum value -4
    ref = refine_minimum(fn, [0.0, 0.0], lower_bound=-100.0, value_gap=1e-7, max_iters=50_000)
    assert ref.converged
    assert ref.f_best == pytest.approx(-4.0, abs=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        minimize(abs_value(), [0.0], target=float("inf"))
    # a float budget is refused when the config is built, not later in range()
    for bad in (1e5, 2.5):
        with pytest.raises(TypeError):
            SolverConfig(max_iters=bad)


def test_refine_minimum_budget_caps_probe_iterations():
    fn = disjoint_disks_merit()
    ref = refine_minimum(fn, [0.0, 0.0], lower_bound=0.0, value_gap=1e-8, max_iters=25)
    assert ref.iters <= 25
    assert not ref.converged
    assert ref.f_best >= 2.5 - 1e-9
