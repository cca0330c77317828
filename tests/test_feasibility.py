import math
from fractions import Fraction

import numpy as np
import pytest

from hullscope import (Affine, Ball, BallQuad, ConstraintSet, DimensionMismatch, FeasibilityVerdict,
                       InfeasibilityCertificate, Max, PositivePart, SolverConfig, Sum,
                       ball_constraint, build_g_tilde, check_feasibility, default_start,
                       halfspace_constraint)

from hullscope.dual import _bound, _dyadic_rows, certify_empty, proves_empty

from conftest import (disk_grid_bounds, disks_to_constraints, mixed_instance,
                      random_disk_instance, value)
from oracles import GridSpec, grid_feasible


def test_g_tilde_single_halfspace_interior():
    cs = ConstraintSet([halfspace_constraint([1.0, 0.0], 0.0)])  # x1 <= 0
    gt = build_g_tilde(cs)
    assert value(gt, [-1.0, 0.0]) == 0.0


def test_g_tilde_disjoint_disks_value():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    gt = build_g_tilde(cs)
    assert value(gt, [1.5, 0.0]) == pytest.approx(2.5)


def test_g_tilde_point_in_both_disks():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([1, 0], 1.0))])
    gt = build_g_tilde(cs)
    assert value(gt, [0.5, 0.0]) == 0.0


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
    # the target-0 run stalls after one short window and the certificate decides
    assert rep.iters <= 1_000
    assert rep.certificate is not None


def test_budget_caps_the_refinement_too():
    # a Max node is not a ball row, so no dual certificate applies and the
    # Infeasible verdict takes about 12.5k iterations, nearly all of them in the
    # refinement; a smaller budget must bound the whole check
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)),
                        Max([ball_constraint(Ball([3, 0], 1.0))])])
    rep = check_feasibility(cs, x0=[0.0, 0.0], cfg=SolverConfig(max_iters=50))
    assert rep.iters <= 50
    assert rep.verdict is FeasibilityVerdict.UNDETERMINED
    assert rep.certificate is None
    rep = check_feasibility(cs, x0=[0.0, 0.0])
    assert rep.verdict is FeasibilityVerdict.INFEASIBLE
    assert rep.iters > 10_000
    assert rep.certificate is None


def test_certificate_proves_infeasible_within_the_budget():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    rep = check_feasibility(cs, x0=[0.0, 0.0], cfg=SolverConfig(max_iters=50))
    assert rep.iters <= 50
    assert rep.verdict is FeasibilityVerdict.INFEASIBLE
    assert rep.certificate is not None
    assert rep.certificate.verify(cs)
    # the midpoint of the centres has D = (|c1|^2 - 1 + |c2|^2 - 1) / 2 - |x|^2 = 3.5 - 2.25
    assert rep.certificate.weights == (0.5, 0.5)
    assert rep.certificate.bound == 1.25
    assert rep.certificate.steps == 0



def test_certificate_outranks_a_point_within_tol():
    # a gap of 1e-9 leaves a merit of 2e-9 at (1, 0), within tol, yet the
    # centres' midpoint weights prove the pair empty; a tangent pair, whose
    # touching point is feasible, has no such proof
    near = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)),
                          ball_constraint(Ball([2.0 + 1e-9, 0], 1.0))])
    rep = check_feasibility(near)
    assert rep.verdict is FeasibilityVerdict.INFEASIBLE and rep.witness is None
    assert 0.0 < rep.g_tilde_min <= 1e-8
    assert rep.certificate is not None and rep.certificate.verify(near)
    assert rep.certificate.weights == (0.5, 0.5) and rep.certificate.steps == 0
    tangent = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([2, 0], 1.0))])
    rep = check_feasibility(tangent)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE and rep.certificate is None

def _cert(weights):
    return InfeasibilityCertificate(weights=tuple(weights), bound=0.0, steps=0)


def test_verifier_accepts_valid_multipliers():
    disks = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    assert _cert([0.5, 0.5]).verify(disks)
    # lambda need not sum to one: D = S - |v|^2 / s = 7 - 9 / 2
    assert _cert([1.0, 1.0]).verify(disks)
    # the unit disk and x1 >= 2, i.e. -x1 + 2 <= 0: D = -1 + 2 mu - mu^2 / 4 = 2 at mu = 2
    mixed = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)),
                           halfspace_constraint([-1.0, 0.0], -2.0)])
    assert _cert([1.0, 2.0]).verify(mixed)
    # the halfspace listed first: weights follow constraint order
    swapped = ConstraintSet(mixed.constraints[::-1])
    assert _cert([2.0, 1.0]).verify(swapped)
    assert not _cert([1.0, 2.0]).verify(swapped)
    # a row of weight 0 takes no part, whatever its kind
    with_max = ConstraintSet(disks.constraints + (Max([ball_constraint(Ball([3, 0], 1.0))]),))
    assert _cert([0.5, 0.5, 0.0]).verify(with_max)
    # the node between the disks and x1 - 5 <= 0 after them, at mu = 1/4:
    # D = 1.25 - 3.5 mu - mu^2 / 4 = 23/64, so the rows must take the weights
    # of their own constraints, not of their positions
    between = ConstraintSet([disks.constraints[0], Max([ball_constraint(Ball([3, 0], 1.0))]),
                             disks.constraints[1], halfspace_constraint([1.0, 0.0], -5.0)])
    assert _cert([0.5, 0.0, 0.5, 0.25]).verify(between)
    # a weighted node of another kind proves nothing
    assert not _cert([0.5, 1.0, 0.5, 0.25]).verify(between)


def test_verifier_rejects_what_only_a_wrong_formula_accepts():
    # both systems are feasible (the origin, and (3, 0)), so nothing may verify
    disk_and_plane = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)),
                                    halfspace_constraint([1.0, 0.0], 5.0)])   # x1 - 5 <= 0
    # a negative mu: S = -1 + 5 = 4 and |v|^2 = 1/4 would pass
    assert not _cert([1.0, -1.0]).verify(disk_and_plane)
    # mu entering S as -mu b: S = -1 + 5 and |v|^2 = 1/4 would pass
    assert not _cert([1.0, 1.0]).verify(disk_and_plane)
    # dropping |x|^2: S = |c|^2 - r^2 = 8 would pass, D = 8 - 9
    far_disk = ConstraintSet([ball_constraint(Ball([3, 0], 1.0))])
    assert not _cert([1.0]).verify(far_disk)
    # degenerate multipliers
    disks = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([3, 0], 1.0))])
    assert not _cert([0.0, 0.0]).verify(disks)
    assert not _cert([0.5]).verify(disks)
    assert not _cert([0.5, float("nan")]).verify(disks)
    assert not _cert([0.5, float("inf")]).verify(disks)
    # a general convex node carries no closed-form dual term
    assert not _cert([0.5, 0.5]).verify(ConstraintSet([ball_constraint(Ball([0, 0], 1.0)),
                                                       Max([ball_constraint(Ball([3, 0], 1.0))])]))


def _fraction_sums(cs, weights, origin):
    """``s``, ``S``, ``v`` and the row values at ``origin`` in ``Fraction`` arithmetic."""
    z = [Fraction(u) for u in origin]
    s = S = Fraction(0)
    v = [Fraction(0)] * len(z)
    values = []
    for g, w in zip(cs.constraints, map(Fraction, weights)):
        if isinstance(g, BallQuad):
            d = [Fraction(u) - zu for u, zu in zip(g.center.tolist(), z)]
            q = sum(u * u for u in d) + Fraction(g.offset)
            s += w
            v = [vk + w * u for vk, u in zip(v, d)]
        else:
            q = sum(Fraction(u) * zu for u, zu in zip(g.a.tolist(), z)) + Fraction(g.b)
            v = [vk - w * Fraction(u) / 2 for vk, u in zip(v, g.a.tolist())]
        S += w * q
        values.append(q)
    return s, S, v, values


def test_dyadic_kernel_matches_fraction_formula():
    # touching unit disks: weights (1/2, 1/2) give S s - |v|^2 = 1 - 1 = 0
    # exactly, and the set {(1, 0)} is not empty
    touching = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), ball_constraint(Ball([2, 0], 1.0))])
    cases = [(touching, [0.5, 0.5], [0.0, 0.0])]
    rng = np.random.default_rng(41)
    for n in (2, 5):
        for feasible in (True, False):
            constraints, z = mixed_instance(rng, n, 3, 2, feasible)
            # halfspaces first, to check that ``rows.order`` keeps the weights with their rows
            cs = ConstraintSet(constraints[3:] + constraints[:3])
            for _ in range(10):
                weights = rng.uniform(0.0, 2.0, 5) * (rng.uniform(size=5) < 0.8)
                cases.append((cs, weights.tolist(), rng.uniform(-3.0, 3.0, n).tolist()))
            # weight on the halfspaces alone: s = 0
            cases.append((cs, [1.0, 0.5, 0.0, 0.0, 0.0], z.tolist()))
            found = certify_empty(cs)
            if found is not None and found[1] is not None:
                cases.append((cs, list(found[1].weights), z.tolist()))
    proofs = 0
    bounds = {0: [0, 0], -1: [0, 0]}  # per anchor weight: [None, fraction] counts
    for cs, weights, origin in cases:
        # the anchor row |x - origin|^2 at weight -1 adds -1 to s and nothing to S or v
        anchored = ConstraintSet(cs.constraints + (BallQuad(origin, 0.0),))
        for anchor, rows_cs, row_weights in ((0, cs, list(weights)),
                                             (-1, anchored, list(weights) + [-1.0])):
            s, S, v, values = _fraction_sums(rows_cs, row_weights, origin)
            order = rows_cs.rows.order
            rows = _dyadic_rows(rows_cs.rows, origin)
            assert [Fraction(u, 2 ** (2 * rows.b)) for u in rows.values] == [values[i] for i in order]
            # the kernel's own anchor at weight 0 adds nothing
            bound = _bound(rows, 0.0, [row_weights[i] for i in order] + [0.0])
            if s <= 0:
                assert bound is None
            else:
                num, den = bound
                assert den > 0 and Fraction(num, den) == S - sum(u * u for u in v) / s
            bounds[anchor][bound is not None] += 1
        s0, S0, v0, _ = _fraction_sums(cs, weights, [0.0] * cs.dimension)
        expected = s0 > 0 and S0 * s0 > sum(u * u for u in v0)
        assert proves_empty(cs, weights) is expected
        proofs += expected
    assert 0 < proofs < len(cases)
    assert all(min(counts) > 0 for counts in bounds.values())
    assert _fraction_sums(touching, [0.5, 0.5], [0.0, 0.0])[:3] == (1, 1, [1, 0])
    rows = _dyadic_rows(touching.rows, [0.0, 0.0])
    assert _bound(rows, 0.0, [0.5, 0.5, 0.0])[0] == 0
    assert not proves_empty(touching, [0.5, 0.5])
    # with the anchor at weight -1, s = 0 and s < 0 leave the Lagrangian unbounded below
    assert _bound(rows, 0.0, [0.5, 0.5, -1.0]) is None
    assert _bound(rows, 0.0, [0.25, 0.5, -1.0]) is None


def test_single_ball_start_already_feasible():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    rep = check_feasibility(cs, x0=[0.0, 0.0])
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    np.testing.assert_allclose(rep.witness, [0.0, 0.0])
    assert rep.residuals[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("x0", [0.0, [0.0], [0.0, 0.0, 0.0], [[0.0], [0.0]]])
def test_start_of_wrong_shape_is_dimension_mismatch(x0):
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    with pytest.raises(DimensionMismatch):
        check_feasibility(cs, x0=x0)


def _unit_box():
    return ConstraintSet([halfspace_constraint(a, 1.0) for a in ([1.0, 0.0], [-1.0, 0.0],
                                                                 [0.0, 1.0], [0.0, -1.0])])


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf]])
@pytest.mark.parametrize("system", ["disk", "box"])
def test_non_finite_start_is_refused_before_either_route(monkeypatch, system, x0):
    # the disk goes the dual route, the box the merit route; both refuse first
    def fail(*args, **kwargs):
        raise AssertionError("decided before checking x0")

    monkeypatch.setattr("hullscope.feasibility.certify_empty", fail)
    monkeypatch.setattr("hullscope.feasibility.minimize", fail)
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))]) if system == "disk" else _unit_box()
    with pytest.raises(ValueError, match="x0 has non-finite"):
        check_feasibility(cs, x0=x0)


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.0], 0.0, [math.nan, 0.0], [0.0, -math.inf]])
def test_point_of_wrong_shape_is_dimension_mismatch(x):
    # a point of the right shape with a non-finite coordinate is refused too
    box = _unit_box()
    error, text = (DimensionMismatch, "shape") if np.shape(x) != (2,) else (ValueError, "non-finite")
    for op in (box.residuals, box.worst_residual, box.project):
        with pytest.raises(error, match=text):
            op(x)


def test_worst_residual_takes_any_constraint():
    cs = ConstraintSet([Max([ball_constraint(Ball([0, 0], 1.0)), halfspace_constraint([1.0, 0.0], 0.5)]),
                        ball_constraint(Ball([1.0, 0.0], 1.0))])
    for x in ([0.0, 0.0], [0.75, 0.25], [3.0, -1.0]):
        assert cs.worst_residual(x) == max(cs.residuals(x))
    # the region operations still refuse the Max node
    with pytest.raises(TypeError):
        cs.project([0.0, 0.0])


_BALL = ball_constraint(Ball([0.0, 0.0, 1.0], 1.0))
_HALFSPACE = halfspace_constraint([1.0, 0.0, 0.0], 0.5)


@pytest.mark.parametrize("constraints, balls, halfspaces", [
    ([_BALL, _BALL], 2, 0), ([_HALFSPACE], 0, 1), ([Max([_BALL, _HALFSPACE])], 0, 0),
], ids=["balls", "halfspaces", "max"])
def test_rows_give_a_missing_kind_an_empty_block(constraints, balls, halfspaces):
    cs = ConstraintSet(constraints)
    rows = cs.rows
    for block, values, count in ((rows.centers, rows.offsets, balls), (rows.normals, rows.shifts, halfspaces)):
        assert block.shape == (count, 3)
        assert block.dtype == np.float64
        assert not block.flags.writeable
        assert isinstance(values, list) and len(values) == count
    if not rows.others:
        # a region of one kind reads the same blocks
        assert cs.region_rows is rows


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
    # no ball row: the dual is linear in mu, so the closed form does not apply
    assert rep.certificate is None


def test_feasible_verdict_is_sound_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        cs = disks_to_constraints(random_disk_instance(rng, 2 + int(rng.integers(0, 2))))
        rep = check_feasibility(cs)
        if rep.verdict is FeasibilityVerdict.FEASIBLE:
            assert max(rep.residuals) <= 1e-8
            assert rep.certificate is None
        elif rep.certificate is not None:
            assert rep.certificate.verify(cs)


def test_oracle_agreement_quick():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        disks = random_disk_instance(rng, 2)
        cs = disks_to_constraints(disks)
        lo, hi = disk_grid_bounds(disks)
        oracle = grid_feasible(cs, GridSpec(lo, hi, 1e-2))
        if oracle.feasible:
            margin = -max(value(g, oracle.witness) for g in cs.constraints)
        else:
            margin = oracle.min_g_tilde
        if margin <= 1e-4:
            continue
        checked += 1
        rep = check_feasibility(cs)
        expected = FeasibilityVerdict.FEASIBLE if oracle.feasible else FeasibilityVerdict.INFEASIBLE
        assert rep.verdict is expected
        assert (rep.certificate is not None) is (not oracle.feasible)
        assert rep.certificate is None or rep.certificate.verify(cs)
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
        assert value(gt, oracle.witness) <= 1e-12


def exactly_inside(cs, x) -> bool:
    """Every constraint of ``cs`` holds at ``x``, in ``Fraction`` arithmetic."""
    return max(_fraction_sums(cs, [0.0] * len(cs.constraints), x)[3]) <= 0


def test_dual_decides_a_single_ball_with_no_iteration():
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0))])
    rep = check_feasibility(cs)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    assert rep.iters == 0
    assert exactly_inside(cs, rep.witness)


def test_report_iters_positive():
    # a Max node is not a ball row, so the merit route decides and counts
    # its subgradient iterations
    cs = ConstraintSet([Max([ball_constraint(Ball([0, 0], 1.0))])])
    rep = check_feasibility(cs)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE
    assert rep.iters >= 1


def dual_route_systems():
    """Random disk systems, and mixed ball and halfspace systems in both row orders."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        yield disks_to_constraints(random_disk_instance(rng, 2 + int(rng.integers(0, 2))))
    # the ascent passes points where a ball row lies between 0 and |x - z|^2,
    # so a stop that left out the |x - z|^2 of the ball rows would end there
    for disks in ([([-0.1, -0.29], 0.92), ([0.35, -1.51], 1.43), ([0.74, 1.3], 1.4)],
                  [([0.11, 1.41], 0.68), ([-0.1, 0.33], 1.27), ([1.76, 0.2], 1.42)]):
        yield disks_to_constraints([Ball(c, r) for c, r in disks])
    rng = np.random.default_rng(61)
    for n, mb, mh in ((2, 3, 2), (5, 3, 2), (20, 15, 14), (50, 16, 16)):
        for feasible in (True, False):
            constraints, _ = mixed_instance(rng, n, mb, mh, feasible)
            yield ConstraintSet(constraints)
            yield ConstraintSet(constraints[::-1])


def test_dual_route_verdicts_are_proofs():
    # every ball and halfspace system here is decided by the ascent alone:
    # a witness exactly in C, or a certificate that verifies
    verdicts = []
    for cs in dual_route_systems():
        rep = check_feasibility(cs)
        assert rep.iters == 0
        if rep.verdict is FeasibilityVerdict.FEASIBLE:
            assert rep.certificate is None
            assert exactly_inside(cs, rep.witness)
        else:
            assert rep.verdict is FeasibilityVerdict.INFEASIBLE and rep.witness is None
            assert rep.certificate.verify(cs)
        verdicts.append(rep.verdict)
    assert 10 <= verdicts.count(FeasibilityVerdict.FEASIBLE) <= len(verdicts) - 10


def test_ascent_point_outside_is_no_witness(monkeypatch):
    # the unit disk and x1 >= 0.5: with no ascent step the primal point is the
    # disk's centre, which the halfspace cuts off, so the merit route decides
    cs = ConstraintSet([ball_constraint(Ball([0, 0], 1.0)), halfspace_constraint([-1.0, 0.0], -0.5)])
    rep = check_feasibility(cs)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE and rep.iters == 0
    assert exactly_inside(cs, rep.witness)
    monkeypatch.setattr("hullscope.dual.CERTIFICATE_STEPS", 0)
    rep = check_feasibility(cs)
    assert rep.verdict is FeasibilityVerdict.FEASIBLE and rep.iters > 0
    assert max(rep.residuals) <= 1e-8


def test_dual_route_agrees_with_forced_fallback(monkeypatch):
    systems = list(dual_route_systems())
    decided = [check_feasibility(cs) for cs in systems]
    monkeypatch.setattr("hullscope.feasibility.certify_empty", lambda cs: None)
    for cs, rep in zip(systems, decided):
        forced = check_feasibility(cs)
        assert forced.iters > 0 and forced.certificate is None
        assert forced.verdict is rep.verdict


# (n, balls, halfspaces) for the closed-form merit against the literal tree
MERIT_SHAPES = [(1, 0, 2), (2, 2, 0), (2, 3, 0), (10, 8, 0), (20, 15, 14), (50, 16, 16)]


def merit_sets(rng):
    """The shapes above, one set mixing in a ``Max`` of affines, one with offsets >= 0.

    Yields ``(label, constraints, anchor)``; every constraint holds at the
    anchor except the balls with a non-negative offset.
    """
    for n, mb, mh in MERIT_SHAPES:
        constraints, z = mixed_instance(rng, n, mb, mh, feasible=True)
        yield (n, mb, mh), constraints, z
    constraints, z = mixed_instance(rng, 3, 2, 2, feasible=True)
    a1, a2 = rng.standard_normal((2, 3))
    kinked = Max([Affine(a1, -float(a1 @ z) - 0.3), Affine(a2, -float(a2 @ z) - 0.5)])
    yield "max-of-affines", constraints[:2] + [kinked] + constraints[2:], z
    constraints, z = mixed_instance(rng, 3, 2, 2, feasible=True)
    yield "offset>=0", constraints + [BallQuad(z, 0.0), BallQuad(z + 0.5, 0.3)], z


def literal_merit(constraints, x):
    """Value and subgradient of ``Sum(PositivePart(g_k))``, plus the sum of the terms' norms."""
    v, g = Sum([PositivePart(c) for c in constraints]).eval(x)
    terms = [c.eval(x) for c in constraints]
    return v, g, sum(float(np.linalg.norm(tg)) for tv, tg in terms if tv > 0.0)


def merit_points(rng, z, count):
    """Points around the anchor, out to 6 along random directions."""
    u = rng.standard_normal((count, z.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return z + rng.uniform(0.0, 6.0, (count, 1)) * u


def test_merit_matches_literal_sum_of_positive_parts():
    rng = np.random.default_rng(51)
    for label, constraints, z in merit_sets(rng):
        merit = build_g_tilde(ConstraintSet(constraints))
        X = merit_points(rng, z, 1000)
        for x in X:
            v, g = merit.eval(x)
            v_ref, g_ref, scale = literal_merit(constraints, x)
            assert abs(v - v_ref) <= 1e-12 * v_ref, (label, x)
            assert float(np.linalg.norm(g - g_ref)) <= 1e-12 * scale, (label, x)
        residuals = np.array([[c.eval(x)[0] for c in constraints] for x in X])
        # every residual that can be negative is visited on both sides of zero
        can_be_negative = residuals.min(axis=0) < 0.0
        assert (residuals.max(axis=0) > 0.0).all(), label
        if label != "offset>=0":
            assert can_be_negative.all(), label
        else:
            assert can_be_negative.tolist() == [True] * (len(constraints) - 2) + [False, False]


def test_merit_subgradient_inequality():
    rng = np.random.default_rng(52)
    for label, constraints, z in merit_sets(rng):
        merit = build_g_tilde(ConstraintSet(constraints))
        for x in merit_points(rng, z, 300):
            fx, g = merit.eval(x)
            y = x + rng.choice([1e-3, 0.1, 1.0, 3.0]) * rng.standard_normal(x.shape[0])
            fy = value(merit, y)
            assert fy >= fx + float(g @ (y - x)) - 1e-9 * max(1.0, fx, fy), (label, x, y)


def test_merit_subgradient_at_kinks():
    """A constraint at exactly zero adds the zero vector, as ``PositivePart`` does."""
    on_sphere = ball_constraint(Ball([0.0, 0.0], 1.0))   # zero at (1, 0)
    on_plane = halfspace_constraint([0.0, 1.0], 0.0)      # zero on x2 = 0
    outside = ball_constraint(Ball([3.0, 0.0], 1.0))     # 3 at (1, 0), gradient (-4, 0)
    x = np.array([1.0, 0.0])
    for constraints in ([on_sphere, on_plane, outside], [outside, on_plane, on_sphere],
                        [on_sphere, outside], [on_plane, outside]):
        v, g = build_g_tilde(ConstraintSet(constraints)).eval(x)
        assert v == 3.0
        np.testing.assert_array_equal(g, [-4.0, 0.0])
    v, g = build_g_tilde(ConstraintSet([on_sphere, on_plane])).eval(x)
    assert v == 0.0
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_wide_mixed_feasible_and_infeasible():
    # n = 20 with 15 balls and 14 halfspaces, the shape of the wide benchmark
    for feasible in (True, False):
        constraints, _ = mixed_instance(np.random.default_rng(0), 20, 15, 14, feasible)
        cs = ConstraintSet(constraints)
        rep = check_feasibility(cs)
        if feasible:
            assert rep.verdict is FeasibilityVerdict.FEASIBLE
            assert max(rep.residuals) <= 1e-8
            assert rep.certificate is None
        else:
            assert rep.verdict is FeasibilityVerdict.INFEASIBLE
            assert rep.g_tilde_min > 0.1
            assert rep.certificate is not None
            assert rep.certificate.verify(cs)
            assert rep.certificate.bound > 0.0
