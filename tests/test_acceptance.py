"""Acceptance suite: every criterion as one test printing a pass/fail line.

The per-criterion lines print through pytest's capture on any run. Derived expectations come from independent oracles (grid scans,
closed-form geometry) computed inside the tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hullscope import (BisectionConfig, FeasibilityVerdict, InclusionVerdict, OuterBall,
                       SolverConfig, build_G, build_g_tilde, check_feasibility, check_inclusion,
                       load_problem, solve_farthest)

from conftest import (disk_grid_bounds, disks_to_constraints, far_center, problem_path,
                      random_ball_intersection, random_disk_instance, value)
from oracles import (GridSpec, check_lemma_2_5, check_lemma_2_6, check_lemma_2_7, check_lemma_2_8,
                     grid_feasible, grid_max_distance)

FIXTURES = ["disjoint-disks", "overlapping-disks", "single-disk-far-c", "lens-far-c",
            "c-inside", "square-and-disk", "big-square"]


@pytest.fixture
def report(capsys):
    """Emit one pass/fail line per criterion through pytest's capture."""

    def _report(num: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[ACCEPTANCE {num}] {name}: {status}  {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, f"criterion {num} ({name}) failed: {detail}"

    return _report


def _oracle_margin(cs, oracle) -> float:
    if oracle.feasible:
        return -max(value(g, oracle.witness) for g in cs.constraints)
    return oracle.min_g_tilde


def test_criterion_1_feasibility_oracle_agreement(report):
    t0 = time.time()
    rng = np.random.default_rng(20_250_101)
    cfg = SolverConfig(max_iters=200_000)
    compared = mismatches = uncertified = 0
    for i in range(200):
        disks = random_disk_instance(rng, 2 + i % 2)
        cs = disks_to_constraints(disks)
        lo, hi = disk_grid_bounds(disks)
        oracle = grid_feasible(cs, GridSpec(lo, hi, 1e-2))
        if _oracle_margin(cs, oracle) <= 1e-4:
            continue
        compared += 1
        rep = check_feasibility(cs, cfg=cfg)
        expected = (FeasibilityVerdict.FEASIBLE if oracle.feasible
                    else FeasibilityVerdict.INFEASIBLE)
        if rep.verdict is not expected:
            mismatches += 1
        # an Infeasible verdict on this disk-only suite must be proven, not inferred
        if not oracle.feasible and not (rep.certificate is not None and rep.certificate.verify(cs)):
            uncertified += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and uncertified == 0 and compared >= 150 and elapsed < 60.0
    report(1, "feasibility agreement with grid oracle", ok,
            f"compared={compared}/200 mismatches={mismatches} uncertified={uncertified} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_2_disjoint_disks_value(report):
    t0 = time.time()
    problem = load_problem(problem_path("disjoint-disks"))
    from hullscope import ConstraintSet
    rep = check_feasibility(ConstraintSet(problem.constraints))
    elapsed = time.time() - t0
    ok = (rep.verdict is FeasibilityVerdict.INFEASIBLE
          and abs(rep.g_tilde_min - 2.5) <= 1e-3 and elapsed < 1.0)
    report(2, "disjoint-disks merit minimum", ok,
            f"g_tilde_min={rep.g_tilde_min!r} elapsed={elapsed:.2f}s")


def _oracle_r_star(bi, c, z0) -> float:
    """Two-stage grid scan: coarse over the intersection, refined locally."""
    box = 1.05 * bi.radius
    coarse = grid_max_distance(bi, c, GridSpec(z0 - box, z0 + box, 4e-3))
    loc = 0.02
    fine = grid_max_distance(bi, c, GridSpec(coarse.arg - loc, coarse.arg + loc, 2.5e-4))
    return max(coarse.r_max, fine.r_max)


def test_criterion_3_inclusion_oracle_equivalence(report):
    t0 = time.time()
    rng = np.random.default_rng(20_250_303)
    factors = [0.75, 0.9, 0.97, 1.03, 1.1, 1.25]
    compared = mismatches = 0
    for i in range(100):
        bi, z0 = random_ball_intersection(rng, 1 + i % 3)
        c = far_center(rng, bi, z0, margin_min=0.1)
        r_star = _oracle_r_star(bi, c, z0)
        r = r_star * factors[i % len(factors)]
        if abs(r_star - r) <= 1e-3:
            continue
        compared += 1
        rep = check_inclusion(bi, OuterBall(c, r))
        expected = (InclusionVerdict.NONEMPTY_DIFFERENCE if r_star >= r
                    else InclusionVerdict.INCLUDED)
        if rep.verdict is not expected:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and compared >= 90 and elapsed < 120.0
    report(3, "inclusion agreement with grid oracle", ok,
            f"compared={compared}/100 mismatches={mismatches} elapsed={elapsed:.1f}s")


def test_criterion_4_farthest_values(report):
    eps = 1e-4
    results = []

    t0 = time.time()
    single = load_problem(problem_path("single-disk-far-c"))
    rep = solve_farthest(single.ball_intersection, single.outer.center, BisectionConfig(eps=eps))
    t_single = time.time() - t0
    # the dual bracket closes before any bisection step
    results.append(abs(rep.r_star - 6.0) <= 2e-4)
    results.append(rep.bisection_steps == 0)
    results.append(t_single < 10.0)
    detail = f"single: r*={rep.r_star:.6f} steps={rep.bisection_steps}==0 t={t_single:.1f}s"

    t0 = time.time()
    lens = load_problem(problem_path("lens-far-c"))
    rep2 = solve_farthest(lens.ball_intersection, lens.outer.center, BisectionConfig(eps=eps))
    t_lens = time.time() - t0
    results.append(abs(rep2.r_star - 4.0) <= 2e-4)
    results.append(rep2.bisection_steps == 0)
    results.append(t_lens < 10.0)
    detail += f" | lens: r*={rep2.r_star:.6f} steps={rep2.bisection_steps}==0 t={t_lens:.1f}s"

    report(4, "farthest-point values and step bounds", all(results), detail)


def test_criterion_5_lemma_suites(report):
    t0 = time.time()
    r5 = check_lemma_2_5(100_000, seed=1501)
    r6 = check_lemma_2_6(10_000, seed=1601)
    r7 = check_lemma_2_7(10_000, seed=1701)
    r8 = check_lemma_2_8(10_000, seed=1801)
    elapsed = time.time() - t0
    ok = all(r.passed for r in (r5, r6, r7, r8)) and elapsed < 60.0
    report(5, "randomized geometric property suites", ok,
            f"trials=(1e5,1e4,1e4,1e4) elapsed={elapsed:.1f}s")


def _fixture_functions():
    """Every merit / witness function buildable from the shipped fixtures."""
    out = []
    for name in FIXTURES:
        problem = load_problem(problem_path(name))
        if problem.constraints:
            from hullscope import ConstraintSet
            out.append((name + ":g_tilde", build_g_tilde(ConstraintSet(problem.constraints))))
        if problem.ball_intersection is not None and problem.outer is not None:
            out.append((name + ":G", build_G(problem.ball_intersection, problem.outer)))
    return out


def test_criterion_6_convexity_and_subgradient(report):
    t0 = time.time()
    rng = np.random.default_rng(606)
    bad = []
    for label, fn in _fixture_functions():
        for _ in range(1000):
            x = rng.normal(0.0, 3.0, fn.dim)
            y = rng.normal(0.0, 3.0, fn.dim)
            fx, g = fn.eval(x)
            fy = value(fn, y)
            if value(fn, 0.5 * (x + y)) > 0.5 * (fx + fy) + 1e-9:
                bad.append((label, "midpoint", x, y))
                break
            if fy < fx + float(g @ (y - x)) - 1e-9:
                bad.append((label, "subgradient", x, y))
                break
    elapsed = time.time() - t0
    report(6, "convexity and subgradient inequalities on all fixtures", not bad,
            f"functions={len(_fixture_functions())} violations={bad} elapsed={elapsed:.1f}s")


def test_criterion_7_sign_characterization(report):
    t0 = time.time()
    rng = np.random.default_rng(707)
    checked = 0
    ok = True
    detail_parts = []
    for name in FIXTURES:
        problem = load_problem(problem_path(name))
        if problem.ball_intersection is None or problem.outer is None:
            continue
        bi, ob = problem.ball_intersection, problem.outer
        G = build_G(bi, ob)
        center = np.mean([c for c in bi.centers], axis=0)
        span = 2.5 * bi.radius + float(np.linalg.norm(ob.center - center))
        X = rng.uniform(center - span, center + span, (10_000, bi.dimension))
        vals = np.array([value(G, x) for x in X])
        in_c1 = np.ones(len(X), dtype=bool)
        for ck in bi.centers:
            D = X - ck
            in_c1 &= np.einsum("ij,ij->i", D, D) <= bi.radius ** 2
        D = X - ob.center
        on_or_out = np.einsum("ij,ij->i", D, D) >= ob.radius ** 2
        outside_ok = bool(np.all(vals[~in_c1] > -1e-9))
        member_ok = bool(np.all(vals[in_c1 & on_or_out] <= 1e-9))
        ok = ok and outside_ok and member_ok
        checked += 1
        detail_parts.append(f"{name}:{int(np.sum(in_c1 & on_or_out))}in/{int(np.sum(~in_c1))}out")
    elapsed = time.time() - t0
    report(7, "sign characterization of G on fixtures", ok and checked >= 4,
            f"fixtures={checked} [{' '.join(detail_parts)}] elapsed={elapsed:.1f}s")


def test_criterion_8_application_sandwich(report):
    t0 = time.time()
    from hullscope import HypothesisViolation, bound_max_distance
    problem = load_problem(problem_path("square-and-disk"))
    rep = bound_max_distance(problem.region, problem.ball_intersection,
                             problem.outer.center, problem.delta)
    sandwich_ok = (abs(rep.v_c - 4.5) <= 1e-3
                   and rep.v_c - 1e-3 <= rep.dist_x_hat <= rep.v_c + 0.42 + 1e-3)

    big = load_problem(problem_path("big-square"))
    rejected = False
    counterexample = None
    try:
        bound_max_distance(big.region, big.ball_intersection, big.outer.center, big.delta)
    except HypothesisViolation as exc:
        rejected = exc.counterexample is not None and exc.distance > 0.42
        counterexample = exc.counterexample
    elapsed = time.time() - t0
    ok = sandwich_ok and rejected and elapsed < 10.0
    report(8, "distance sandwich and covering rejection", ok,
            f"V_c={rep.v_c:.6f} |x_hat-c|={rep.dist_x_hat:.6f} "
            f"counterexample={np.round(counterexample, 3) if counterexample is not None else None} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_9_cli_determinism(report):
    t0 = time.time()
    import os
    env = dict(os.environ)
    env["HULLSCOPE_LOG"] = "off"

    def run(*args):
        return subprocess.run([sys.executable, "-m", "hullscope.cli", *args],
                              capture_output=True, text=True, env=env)

    commands = [
        ["feas", str(problem_path("disjoint-disks")), "--seed", "11"],
        ["feas", str(problem_path("overlapping-disks")), "--seed", "11"],
        ["inclusion", str(problem_path("single-disk-far-c")), "--seed", "11"],
        ["inclusion", str(problem_path("lens-far-c")), "--r", "4.5", "--seed", "11"],
        ["farthest", str(problem_path("single-disk-far-c")), "--eps", "1e-3", "--seed", "11"],
        ["appbound", str(problem_path("square-and-disk")), "--seed", "11"],
        ["appbound", str(problem_path("big-square")), "--seed", "11"],
    ]
    ok = True
    for args in commands:
        first = run(*args)
        second = run(*args)
        json.loads(first.stdout)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            ok = False
            break
    elapsed = time.time() - t0
    report(9, "CLI determinism (byte-identical reports)", ok,
            f"commands={len(commands)} elapsed={elapsed:.1f}s")
