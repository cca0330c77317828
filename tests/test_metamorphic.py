"""Verdicts must not depend on where an instance sits or how it is listed.

Translating an instance, or permuting its centers and constraints, changes
the floating-point arithmetic and the order of merit sums and ``Max`` ties,
but not the geometry, so ``check_feasibility`` and ``check_inclusion`` must
return the same verdict.
"""

import numpy as np

from hullscope import (Ball, BallIntersection, FeasibilityVerdict, GridSpec, InclusionVerdict,
                       OuterBall, check_feasibility, check_inclusion, grid_max_distance)

from conftest import (disks_to_constraints, far_center, random_ball_intersection,
                      random_disk_instance)


def test_feasibility_verdict_invariant_under_translation_and_permutation():
    rng = np.random.default_rng(31)
    seen = set()
    for i in range(8):
        disks = random_disk_instance(rng, 2 + i % 3)
        shift = rng.uniform(-3.0, 3.0, 2)
        moved = [Ball(b.center + shift, b.radius) for b in disks]
        permuted = [disks[j] for j in rng.permutation(len(disks))]
        verdicts = [check_feasibility(disks_to_constraints(d)).verdict
                    for d in (disks, moved, permuted)]
        assert verdicts[0] is not FeasibilityVerdict.UNDETERMINED, f"instance {i}"
        assert verdicts == [verdicts[0]] * 3, f"instance {i}: {verdicts}"
        seen.add(verdicts[0])
    assert seen == {FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.INFEASIBLE}


def test_inclusion_verdict_invariant_under_translation_and_permutation():
    rng = np.random.default_rng(32)
    seen = set()
    for i, factor in enumerate((0.85, 1.15)):
        bi, z0 = random_ball_intersection(rng, 2)
        c = far_center(rng, bi, z0)
        box = 1.05 * bi.radius
        r_star = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 4e-3)).r_max
        r = factor * r_star
        shift = rng.uniform(-3.0, 3.0, 2)
        order = rng.permutation(bi.m)
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
