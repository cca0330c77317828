import numpy as np
import pytest

from hullscope import (Ball, ConstraintSet, FeasibilityVerdict, GridSpec, SolverConfig,
                       ball_constraint, build_g_tilde, check_feasibility, default_start,
                       grid_feasible, halfspace_constraint)

from conftest import disk_grid_bounds, disks_to_constraints, random_disk_instance


def test_g_tilde_single_halfspace_interior():
    cs = ConstraintSet([halfspace_constraint([1.0, 0.0], 0.0)])  # x1 <= 0
    gt = build_g_tilde(cs)
    assert gt.value([-1.0, 0.0]) == 0.0


def test_g_tilde_disjoint_disks_value():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    gt = build_g_tilde(cs)
    assert gt.value([1.5, 0.0]) == pytest.approx(2.5)


def test_g_tilde_point_in_both_disks():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([1, 0], 1.0))])
    gt = build_g_tilde(cs)
    assert gt.value([0.5, 0.0]) == 0.0


def test_feasible_overlapping_disks_from_far_start():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([1, 0], 1.0))])
    rep = check_feasibility(cs, x0=[10.0, 10.0])
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    assert max(rep.residuals) <= 1e-8
    assert rep.witness is not None


def test_infeasible_disjoint_disks_value():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    rep = check_feasibility(cs, x0=[0.0, 0.0])
    assert rep.verdict is FeasibilityVerdict.INFEASIBLE
    assert rep.g_tilde_min == pytest.approx(2.5, abs=1e-3)
    assert rep.witness is None


def test_budget_caps_the_refinement_too():
    # the Infeasible verdict above takes ~16k iterations, nearly all of them
    # in the refinement; a smaller budget must bound the whole check
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    rep = check_feasibility(cs, x0=[0.0, 0.0], cfg=SolverConfig(max_iters=50))
    assert rep.iters <= 50
    assert rep.verdict is FeasibilityVerdict.UNDETERMINED


def test_single_ball_start_already_feasible():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    rep = check_feasibility(cs, x0=[0.0, 0.0])
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    np.testing.assert_allclose(rep.witness, [0.0, 0.0])
    assert rep.residuals[0] == pytest.approx(-1.0)


def test_default_start_is_centroid_for_balls():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([4, 2], 1.0))])
    np.testing.assert_allclose(default_start(cs), [2.0, 1.0])


def test_default_start_zero_with_halfspaces():
    cs = ConstraintSet([halfspace_constraint([1.0, 0.0], 0.0), ball_constraint(Ball([0, 0], 1.0))])
    np.testing.assert_allclose(default_start(cs), [0.0, 0.0])


def test_halfspace_infeasible_pair_detected():
    # x1 <= 0 and x1 >= 1: the merit plateaus at 1, detected via zero subgradient
    cs = ConstraintSet([halfspace_constraint([1.0], 0.0), halfspace_constraint([-1.0], -1.0)])
    rep = check_feasibility(cs, x0=[0.5])
    assert rep.verdict is FeasibilityVerdict.INFEASIBLE
    assert rep.g_tilde_min == pytest.approx(1.0, abs=1e-6)


def test_feasible_verdict_is_sound_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        cs = disks_to_constraints(random_disk_instance(rng, 2 + int(rng.integers(0, 2))))
        rep = check_feasibility(cs)
        if rep.verdict is FeasibilityVerdict.FEASIBLE:
            assert max(rep.residuals) <= 1e-8


def test_oracle_agreement_quick():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        disks = random_disk_instance(rng, 2)
        cs = disks_to_constraints(disks)
        lo, hi = disk_grid_bounds(disks)
        oracle = grid_feasible(cs, GridSpec(lo, hi, 1e-2))
        if oracle.feasible:
            margin = -max(g.value(oracle.witness) for g in cs.constraints)
        else:
            margin = oracle.min_g_tilde
        if margin <= 1e-4:
            continue
        checked += 1
        rep = check_feasibility(cs)
        expected = FeasibilityVerdict.FEASIBLE if oracle.feasible else FeasibilityVerdict.INFEASIBLE
        assert rep.verdict is expected
    assert checked >= 15


def test_merit_zero_on_oracle_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(10):
        disks = random_disk_instance(rng, 2)
        cs = disks_to_constraints(disks)
        lo, hi = disk_grid_bounds(disks)
        oracle = grid_feasible(cs, GridSpec(lo, hi, 2e-2))
        if not oracle.feasible:
            continue
        gt = build_g_tilde(cs)
        assert gt.value(oracle.witness) <= 1e-12


def test_report_iters_positive():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    rep = check_feasibility(cs)
    assert rep.iters >= 1
