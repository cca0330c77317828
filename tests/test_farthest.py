import math
from fractions import Fraction

import numpy as np
import pytest

from hullscope import (BallIntersection, BisectionConfig, DimensionMismatch, InclusionVerdict,
                       InnerUndetermined, OuterBall, PreconditionFailed, SolverConfig,
                       check_inclusion, solve_farthest)
from hullscope.dual import BallsAbout, farthest_bracket, witness_dual

from conftest import dual_sweep, far_center, random_ball_intersection, wide_dual_sweep, without_newton
from oracles import GridSpec, grid_max_distance


def assert_exact_dual_bracket(bi, c, rep):
    """A dual-path report, re-checked in ``Fraction`` arithmetic from its multipliers.

    ``r_hi^2 >= phi(multipliers)``, ``x_witness`` lies in every ball row
    ``|x - c_k|^2 + o_k <= 0`` and ``r_lo <= |x_witness - c|``.
    """
    assert rep.bisection_steps == 0 and rep.total_inner_iters == 0
    lam = [Fraction(v) for v in rep.multipliers]
    assert len(lam) == len(bi.centers) and min(lam) >= 0 and sum(lam) > 1
    cf = [Fraction(v) for v in np.asarray(c, dtype=np.float64).tolist()]
    d = [[Fraction(u) - w for u, w in zip(ck.tolist(), cf)] for ck in bi.centers]
    offsets = [Fraction(o) for o in bi.rows.offsets]
    v = [sum(lk * dk[i] for lk, dk in zip(lam, d)) for i in range(len(cf))]
    phi = (sum(vi * vi for vi in v) / (sum(lam) - 1)
           - sum(lk * (sum(u * u for u in dk) + o) for lk, dk, o in zip(lam, d, offsets)))
    assert Fraction(rep.r_hi) ** 2 >= phi
    x = [Fraction(u) for u in rep.x_witness.tolist()]
    for ck, o in zip(bi.centers, offsets):
        assert sum((xi - Fraction(u)) ** 2 for xi, u in zip(x, ck.tolist())) + o <= 0
    assert Fraction(rep.r_lo) ** 2 <= sum((xi - ci) ** 2 for xi, ci in zip(x, cf))


@pytest.fixture
def forced_bisection(monkeypatch):
    """No farthest or witness Newton step: the uniform multipliers leave a bracket that bisection must close.

    Each bisection step then runs its refinement, while the distance gate
    keeps its own solve.
    """
    monkeypatch.setattr("hullscope.farthest.farthest_bracket", without_newton(farthest_bracket))
    monkeypatch.setattr("hullscope.inclusion.witness_dual", without_newton(witness_dual))


def test_bracket_single_disk():
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    rep = solve_farthest(bi, [5.0, 0.0], BisectionConfig(eps=1e-6))
    assert rep.r_lo <= 6.0 <= rep.r_hi
    assert rep.r_hi - rep.r_lo <= 2e-6
    assert_exact_dual_bracket(bi, [5.0, 0.0], rep)


def test_bracket_lens():
    # the farthest point is the lens' leftmost point (0, 0)
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    rep = solve_farthest(bi, [4.0, 0.0], BisectionConfig(eps=1e-6))
    assert rep.r_lo <= 4.0 <= rep.r_hi
    assert rep.r_hi - rep.r_lo <= 2e-6
    assert_exact_dual_bracket(bi, [4.0, 0.0], rep)


def test_bracket_contains_oracle_max():
    # grid points inside C1 bound r* from below: none may beat r_hi, and the
    # exact member behind r_lo must beat them all
    rng = np.random.default_rng(14)
    eps = 1e-6
    for i in range(8):
        bi, z0 = random_ball_intersection(rng, 1 + i % 3)
        c = far_center(rng, bi, z0)
        rep = solve_farthest(bi, c, BisectionConfig(eps=eps))
        box = 1.05 * bi.radius
        oracle = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 2e-3))
        assert oracle.r_max <= rep.r_lo <= rep.r_hi
        assert rep.r_hi - rep.r_lo <= 2 * eps
        assert_exact_dual_bracket(bi, c, rep)


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


def test_inner_undetermined_is_surfaced(monkeypatch, forced_bisection):
    import hullscope.inclusion as incl_mod
    from hullscope import InclusionVerdict
    from hullscope.inclusion import InclusionReport

    def fake_inclusion(bi, ob, cfg, margin):
        return InclusionReport(verdict=InclusionVerdict.UNDETERMINED,
                               x_star=np.zeros(2), g_at_xstar=0.0, residuals_fk=[0.0],
                               dist_xstar_to_c=0.0, precondition_margin=margin, iters=1,
                               g_lower=-1.0, multipliers=(1.0, 0.0))

    monkeypatch.setattr(incl_mod, "_inclusion_at", fake_inclusion)
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    with pytest.raises(InnerUndetermined):
        solve_farthest(bi, [5.0, 0.0])


def test_starved_step_is_inner_undetermined(forced_bisection):
    # a step whose refinement runs out of budget cannot shrink the bracket
    bi = BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0)
    with pytest.raises(InnerUndetermined):
        solve_farthest(bi, [4.0, 0.0], BisectionConfig(eps=1e-4, inner=SolverConfig(max_iters=5)))


def test_step_bound(forced_bisection):
    # an eps this wide takes no step, so it shows the bracket bisection starts from
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    start = solve_farthest(bi, [5.0, 0.0], BisectionConfig(eps=1e3))
    assert start.bisection_steps == 0
    eps = 1e-4
    rep = solve_farthest(bi, [5.0, 0.0], BisectionConfig(eps=eps))
    assert rep.r_lo <= 6.0 <= rep.r_hi
    assert 0 < rep.bisection_steps <= math.ceil(math.log2((start.r_hi - start.r_lo) / eps))


def test_solve_builds_the_rows_about_c_once(forced_bisection, monkeypatch):
    # the distance gate, the dual bracket and every bisection step read the
    # balls about c from the one BallsAbout of the inclusion checker
    built = []
    init = BallsAbout.__init__

    def counted(self, cs, c):
        built.append(c.tolist())
        init(self, cs, c)
    monkeypatch.setattr(BallsAbout, "__init__", counted)
    rep = solve_farthest(BallIntersection([[0.0, 0.0], [1.0, 0.0]], 1.0), [4.0, 0.5], BisectionConfig(eps=1e-4))
    assert rep.bisection_steps > 0
    assert built == [[4.0, 0.5]]


def test_dual_agrees_with_forced_bisection(monkeypatch):
    # the two brackets are proofs, so beyond agreeing within 2 eps they must overlap
    rng = np.random.default_rng(15)
    eps = 5e-2
    cfg = BisectionConfig(eps=eps)
    for i in range(30):
        bi, z0 = random_ball_intersection(rng, 1 + i % 5)
        c = far_center(rng, bi, z0)
        dual = solve_farthest(bi, c, cfg)
        assert_exact_dual_bracket(bi, c, dual)
        with monkeypatch.context() as patch:
            patch.setattr("hullscope.farthest.farthest_bracket", without_newton(farthest_bracket))
            bisected = solve_farthest(bi, c, cfg)
        assert bisected.bisection_steps > 0
        assert abs(dual.r_star - bisected.r_star) <= 2 * eps, f"instance {i}"
        assert bisected.r_lo <= dual.r_hi and dual.r_lo <= bisected.r_hi, f"instance {i}"


def assert_dual_solves_close(sweep):
    """Both duals close every instance of ``sweep``.

    The farthest bracket closes to rounding level, and the inclusion checks
    on either side of ``r_star`` close with no iteration, down to a relative
    1e-8 outside the exact bracket; every verdict is the sign of the exact
    bracket on ``min G``.
    """
    for label, bi, c in sweep:
        rep = solve_farthest(bi, c)
        assert_exact_dual_bracket(bi, c, rep)
        assert rep.r_hi - rep.r_lo <= 1e-12 * rep.r_star, label
        radii = [factor * rep.r_star for factor in (0.8, 0.99, 1.01, 1.2)]
        radii += [rep.r_lo * factor for factor in (0.97, 1.0 - 1e-8)]
        radii += [rep.r_hi * factor for factor in (1.0 + 1e-8, 1.03)]
        for r in radii:
            check = check_inclusion(bi, OuterBall(c, r))
            expected = (InclusionVerdict.NONEMPTY_DIFFERENCE if r < rep.r_star
                        else InclusionVerdict.INCLUDED)
            assert check.verdict is expected and check.iters == 0, f"{label}, r = {r!r}"
            if expected is InclusionVerdict.INCLUDED:
                assert check.g_lower > 0.0, f"{label}, r = {r!r}"
            else:
                assert check.g_at_xstar <= 0.0, f"{label}, r = {r!r}"


def test_dual_solves_close_on_a_random_sweep():
    assert_dual_solves_close(dual_sweep())


def test_dual_solves_close_at_the_wide_shapes():
    # m > 1 at every instance, so each solve runs the Newton steps
    assert_dual_solves_close(wide_dual_sweep())


def _boundary_point(rng, bi, z0):
    """A point ``p`` of the boundary of ``bi`` on a random ray from its interior point ``z0``,
    and the outward normal ``nu`` there, of the sphere the ray leaves through first."""
    u = rng.standard_normal(len(z0))
    u /= np.linalg.norm(u)
    w = z0 - bi.centers
    uw = w @ u
    exits = -uw + np.sqrt(uw * uw - (w * w).sum(axis=1) + bi.radius ** 2)
    k = int(np.argmin(exits))
    p = z0 + exits[k] * u
    return p, (p - bi.centers[k]) / np.linalg.norm(p - bi.centers[k])


def test_dual_bracket_is_exact_near_the_precondition():
    # more balls than dimensions, c at distance R + delta from C1: nu lies in
    # the normal cone of C1 at p, so p is the nearest point of C1 to c. Under
    # the precondition the S-lemma relaxation is exact (dual module
    # docstring), so the dual closes every bracket before any bisection step
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for m in range(n + 1, n + 7):
            for delta in (1e-4, 1e-2, 1.0):
                bi, z0 = random_ball_intersection(rng, m, n)
                p, nu = _boundary_point(rng, bi, z0)
                c = p + (bi.radius + delta) * nu
                rep = solve_farthest(bi, c)
                assert_exact_dual_bracket(bi, c, rep)
                assert rep.r_hi - rep.r_lo <= 1e-12 * rep.r_star, (n, m, delta)


def test_bracket_of_one_ball_centred_at_c():
    # the one-ball optimum lambda = 1 + |c_1 - c| / R is 1 here, which leaves
    # the Lagrangian flat; the uniform start lambda = 2 gives [0, sqrt(2) R]
    bi = BallIntersection([[0.0, 0.0]], 1.0)
    c = np.zeros(2)
    r_lo, r_hi, _, lam = farthest_bracket(BallsAbout(bi, c), c, 0.0)
    assert r_lo <= 1.0 <= r_hi
    assert r_hi == pytest.approx(math.sqrt(2.0)) and lam.tolist() == [2.0]


@pytest.mark.parametrize("centers, c, r, expected", [
    ([[0.0, 0.0], [0.0, 0.0]], [4.0, 0.0], 4.5, InclusionVerdict.NONEMPTY_DIFFERENCE),
    ([[0.0, 0.0], [0.0, 0.0]], [4.0, 0.0], 5.5, InclusionVerdict.INCLUDED),
    ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [4.0, 0.0], 3.5, InclusionVerdict.NONEMPTY_DIFFERENCE),
    ([[0.3, 0.1]] * 3, [5.0, 2.0], 3.0, InclusionVerdict.NONEMPTY_DIFFERENCE)])
def test_coincident_centres(centers, c, r, expected):
    # equal centres leave the dual Hessians singular along their difference
    bi = BallIntersection(centers, 1.0)
    check = check_inclusion(bi, OuterBall(c, r))
    assert check.verdict is expected and check.iters == 0
    rep = solve_farthest(bi, c)
    assert_exact_dual_bracket(bi, c, rep)
    assert rep.r_hi - rep.r_lo <= 1e-12 * rep.r_star


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


@pytest.mark.parametrize("c, error", [([math.nan, 0.0], ValueError), ([math.inf, 0.0], ValueError),
                                      (5.0, DimensionMismatch), ([5.0, 0.0, 0.0], DimensionMismatch)])
def test_bad_outer_center_refused_before_solving(monkeypatch, c, error):
    import hullscope.inclusion as inclusion

    def fail(*args, **kwargs):
        raise AssertionError("solved before checking the outer center")

    monkeypatch.setattr(inclusion, "check_feasibility", fail)
    with pytest.raises(error):
        solve_farthest(BallIntersection([[0.0, 0.0]], 1.0), c)
