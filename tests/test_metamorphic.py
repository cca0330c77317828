"""Verdicts must not depend on where an instance sits, how it is listed or its scale.

Translating an instance, or permuting its centers and constraints, changes
the floating-point arithmetic and the order of merit sums and ``Max`` ties,
but not the geometry, so ``check_feasibility`` and ``check_inclusion`` must
return the same verdict. The merit function groups constraints by kind (balls,
then halfspaces, then any other node), so permuting a mixed list reorders
its sums only within each group.

Scaling the centers and radii by a power of two ``s`` and the tolerance by
``s^2`` scales every float of a run exactly: points and subgradients by
``s``, values by ``s^2``. So the verdict and the iteration count must both
be unchanged. The absolute floors of the solvers (``1e-12`` and ``1e-13`` in
the refinement gaps, the ``1e-6`` boundary tolerance of inclusion) do not
bind at ``s`` in {1/4, 4}; far below 1/4 they start to.

``solve_farthest`` returns a bracket that is a proof for its own instance.
On a reflected, permuted, translated or scaled copy that is exactly the same
instance (centres on a ``2^-20`` grid make the translation exact) the
brackets must therefore overlap once scaled back, and the midpoints agree
within ``2 eps``. Likewise the witness dual's ``g_lower`` proves a bound on
``min G`` that lies within the value gap of it, so on those copies the
verdicts agree and the bounds differ by at most that gap.

``appbound`` draws its ray directions from the seed alone, so a copy with
its constraints or centres permuted, translated or scaled casts the same
rays from the moved deep point: the exit code must agree, and ``v_c``,
``dist_x_hat`` and a refusal's ``distance``, scaled back, up to rounding.
"""

import json

import numpy as np
import pytest

from hullscope import (Ball, BallIntersection, BisectionConfig, ConstraintSet, FeasibilityVerdict,
                       InclusionVerdict, OuterBall, SolverConfig, check_feasibility, check_inclusion,
                       solve_farthest)

from conftest import (disks_to_constraints, far_center, mixed_instance, problem_path,
                      random_ball_intersection, random_disk_instance)
from oracles import GridSpec, grid_max_distance


SCALES = (0.25, 4.0)
TOL = SolverConfig().tol


def _disk_instances():
    """Eight random disk sets, each with a translation and a permutation."""
    rng = np.random.default_rng(31)
    for i in range(8):
        disks = random_disk_instance(rng, 2 + i % 3)
        yield disks, rng.uniform(-3.0, 3.0, 2), rng.permutation(len(disks))


def _inclusion_instances():
    """Two ball intersections with an outer radius and a translation and a permutation each.

    The outer radius is 0.85 and then 1.15 times the grid estimate of ``r*``.
    """
    rng = np.random.default_rng(32)
    for factor in (0.85, 1.15):
        bi, z0 = random_ball_intersection(rng, 2)
        c = far_center(rng, bi, z0)
        box = 1.05 * bi.radius
        r_star = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 4e-3)).r_max
        yield bi, c, factor * r_star, rng.uniform(-3.0, 3.0, 2), rng.permutation(len(bi.centers))


def _assert_certified_iff_infeasible(reports, label):
    """Every Infeasible variant carries a dual certificate, and no other one does."""
    for rep in reports:
        infeasible = rep.verdict is FeasibilityVerdict.INFEASIBLE
        assert (rep.certificate is not None) is infeasible, f"{label}: {rep}"


def test_feasibility_verdict_invariant_under_translation_and_permutation():
    seen = set()
    for i, (disks, shift, order) in enumerate(_disk_instances()):
        moved = [Ball(b.center + shift, b.radius) for b in disks]
        permuted = [disks[j] for j in order]
        reports = [check_feasibility(disks_to_constraints(d)) for d in (disks, moved, permuted)]
        verdicts = [rep.verdict for rep in reports]
        assert verdicts[0] is not FeasibilityVerdict.UNDETERMINED, f"instance {i}"
        assert verdicts == [verdicts[0]] * 3, f"instance {i}: {verdicts}"
        _assert_certified_iff_infeasible(reports, f"instance {i}")
        seen.add(verdicts[0])
    assert seen == {FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.INFEASIBLE}


def test_feasibility_verdict_invariant_under_permuting_mixed_constraints():
    rng = np.random.default_rng(33)
    for feasible in (True, False):
        constraints, _ = mixed_instance(rng, 6, 5, 4, feasible)
        expected = FeasibilityVerdict.FEASIBLE if feasible else FeasibilityVerdict.INFEASIBLE
        for i in range(3):
            order = rng.permutation(len(constraints)) if i else range(len(constraints))
            rep = check_feasibility(ConstraintSet([constraints[j] for j in order]))
            assert rep.verdict is expected, f"feasible={feasible}, permutation {i}"
            _assert_certified_iff_infeasible([rep], f"feasible={feasible}, permutation {i}")


def test_inclusion_verdict_invariant_under_translation_and_permutation():
    seen = set()
    for i, (bi, c, r, shift, order) in enumerate(_inclusion_instances()):
        variants = [
            (bi, c),
            (BallIntersection([ck + shift for ck in bi.centers], bi.radius), c + shift),
            (BallIntersection([bi.centers[j] for j in order], bi.radius), c),
        ]
        verdicts = [check_inclusion(b, OuterBall(cc, r)).verdict for b, cc in variants]
        assert verdicts[0] is not InclusionVerdict.UNDETERMINED, f"instance {i}"
        assert verdicts == [verdicts[0]] * 3, f"instance {i}: {verdicts}"
        seen.add(verdicts[0])
    assert seen == {InclusionVerdict.NONEMPTY_DIFFERENCE, InclusionVerdict.INCLUDED}


def test_feasibility_verdict_and_iterations_invariant_under_scaling():
    for i, (disks, _, _) in enumerate(_disk_instances()):
        runs, reports = [], []
        for s in (1.0, *SCALES):
            scaled = [Ball(s * b.center, s * b.radius) for b in disks]
            rep = check_feasibility(disks_to_constraints(scaled), cfg=SolverConfig(tol=TOL * s * s))
            runs.append((rep.verdict, rep.iters))
            reports.append(rep)
        assert runs == [runs[0]] * 3, f"instance {i}: {runs}"
        _assert_certified_iff_infeasible(reports, f"instance {i}")


def test_inclusion_verdict_and_iterations_invariant_under_scaling():
    for i, (bi, c, r, _, _) in enumerate(_inclusion_instances()):
        runs = []
        for s in (1.0, *SCALES):
            scaled = BallIntersection([s * ck for ck in bi.centers], s * bi.radius)
            rep = check_inclusion(scaled, OuterBall(s * c, s * r), SolverConfig(tol=TOL * s * s))
            runs.append((rep.verdict, rep.iters))
        assert runs == [runs[0]] * 3, f"instance {i}: {runs}"


def _dyadic_farthest_instances():
    """Three ball intersections and outer centres on a ``2^-20`` grid, with a permutation each."""
    rng = np.random.default_rng(34)
    for m in (1, 3, 5):
        bi, z0 = random_ball_intersection(rng, m)
        c = far_center(rng, bi, z0)

        def snap(a):
            return np.round(np.asarray(a) * 2.0 ** 20) / 2.0 ** 20
        yield BallIntersection(snap(bi.centers), float(snap(bi.radius))), snap(c), rng.permutation(m)


def test_farthest_bracket_invariant_under_exact_transforms():
    eps = 1e-6
    flip = np.array([1.0, -1.0])
    shift = np.array([0.75, -1.5])
    for i, (bi, c, order) in enumerate(_dyadic_farthest_instances()):
        base = solve_farthest(bi, c, BisectionConfig(eps=eps))
        variants = {
            "reflection": (1.0, bi.centers * flip, c * flip),
            "permutation": (1.0, bi.centers[order], c),
            "translation": (1.0, bi.centers + shift, c + shift),
            **{f"scale {s}": (s, s * bi.centers, s * c) for s in SCALES},
        }
        for name, (s, centers, cc) in variants.items():
            rep = solve_farthest(BallIntersection(centers, s * bi.radius), cc, BisectionConfig(eps=s * eps))
            assert rep.r_lo <= s * base.r_hi and s * base.r_lo <= rep.r_hi, f"instance {i}, {name}"
            assert abs(rep.r_star - s * base.r_star) <= 2 * s * eps, f"instance {i}, {name}"


def test_witness_dual_invariant_under_exact_transforms():
    # each g_lower is a proof that lies within the value gap (1e-10) of the
    # same min G, so the copies' bounds agree within it
    flip = np.array([1.0, -1.0])
    shift = np.array([0.75, -1.5])
    for i, (bi, c, order) in enumerate(_dyadic_farthest_instances()):
        r_star = solve_farthest(bi, c, BisectionConfig(eps=1e-7)).r_star
        for factor in (0.97, 1.03):
            r = factor * r_star
            base = check_inclusion(bi, OuterBall(c, r))
            assert base.iters == 0, f"instance {i}, factor {factor}"
            variants = {
                "reflection": (bi.centers * flip, c * flip),
                "permutation": (bi.centers[order], c),
                "translation": (bi.centers + shift, c + shift),
            }
            for name, (centers, cc) in variants.items():
                rep = check_inclusion(BallIntersection(centers, bi.radius), OuterBall(cc, r))
                label = f"instance {i}, factor {factor}, {name}"
                assert rep.verdict is base.verdict and rep.iters == 0, label
                assert abs(rep.g_lower - base.g_lower) <= 1e-10, label


THREE_DISK = {"version": 1, "dimension": 2,
              "region": {"balls": [{"center": [0.0, 0.0], "radius": 1.3},
                                   {"center": [1.0, 0.0], "radius": 1.3},
                                   {"center": [0.5, 0.8], "radius": 1.3}]},
              "ball_intersection": {"centers": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]], "radius": 1.0},
              "outer": {"center": [5.0, 0.3], "radius": 6.0}, "delta": 0.34}


def _appbound_variants(doc):
    """``(label, scale, doc)``: the problem with its region's constraints and C1's centres reversed, translated and scaled."""
    region, inner = doc["region"], doc["ball_intersection"]
    shift = np.array([0.3, -1.7])

    def moved(scale, offset):
        def point(p):
            return (scale * np.asarray(p) + offset).tolist()
        return {**doc,
                "region": {"halfspaces": [{"a": h["a"], "b": scale * h["b"] + float(np.dot(h["a"], offset))}
                                          for h in region.get("halfspaces", [])],
                           "balls": [{"center": point(b["center"]), "radius": scale * b["radius"]}
                                     for b in region.get("balls", [])]},
                "ball_intersection": {"centers": [point(p) for p in inner["centers"]],
                                      "radius": scale * inner["radius"]},
                "outer": {"center": point(doc["outer"]["center"]), "radius": scale * doc["outer"]["radius"]},
                "delta": scale * doc["delta"]}

    yield "region permuted", 1.0, {**doc, "region": {kind: rows[::-1] for kind, rows in region.items()}}
    yield "centres permuted", 1.0, {**doc, "ball_intersection": {**inner, "centers": inner["centers"][::-1]}}
    yield "translated", 1.0, moved(1.0, shift)
    for k in (-3, 5):
        yield f"scaled by 2^{k}", 2.0 ** k, moved(2.0 ** k, np.zeros(2))


def _appbound(tmp_path, doc, capsys):
    from hullscope.cli import main

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main(["appbound", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", ["square-and-disk", "big-square", "three-disk"])
def test_appbound_invariant_under_permutation_translation_and_scaling(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv("HULLSCOPE_LOG", "off")
    doc = THREE_DISK if name == "three-disk" else json.loads(problem_path(name).read_text())
    code, base = _appbound(tmp_path, doc, capsys)
    assert code == (4 if name == "big-square" else 0)
    for label, s, variant in _appbound_variants(doc):
        got, out = _appbound(tmp_path, variant, capsys)
        assert got == code, f"{name}, {label}: {out}"
        if code == 0:
            assert out["v_c"] == pytest.approx(s * base["v_c"], rel=1e-12), f"{name}, {label}"
            assert out["dist_x_hat"] == pytest.approx(s * base["dist_x_hat"], rel=1e-12), f"{name}, {label}"
        else:
            assert out["distance"] == pytest.approx(s * base["distance"], rel=1e-12), f"{name}, {label}"
