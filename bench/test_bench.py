"""Tests of the benchmark itself: ground truth, inputs, tracing and the result line.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hullscope as hs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _grid_feasible(centers, radii, step=2e-3) -> bool:
    lo = np.min(centers - radii[:, None], axis=0)
    hi = np.max(centers + radii[:, None], axis=0)
    xs, ys = (np.arange(lo[k], hi[k] + step, step) for k in range(2))
    X, Y = np.meshgrid(xs, ys)
    inside = np.ones(X.shape, dtype=bool)
    for c, r in zip(centers, radii):
        inside &= (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= r * r
    return bool(inside.any())


def test_disks_intersect_known_cases():
    one = np.array([1.0, 1.0])
    assert W.disks_intersect(np.array([[0.0, 0.0], [1.9, 0.0]]), one)
    assert not W.disks_intersect(np.array([[0.0, 0.0], [2.1, 0.0]]), one)
    # nested: the small disk's center is the only witness candidate inside
    assert W.disks_intersect(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([2.0, 0.5]))
    # pairwise overlapping, common intersection empty
    tri = np.array([[0.0, 0.0], [1.8, 0.0], [0.9, 1.8 * 0.866]])
    assert not W.disks_intersect(tri, np.array([0.95, 0.95, 0.95]))


def test_disks_intersect_agrees_with_grid_scan_away_from_threshold():
    checked = 0
    for i in range(60):
        base = W._planar_feas_base(i)
        if base is None:
            continue
        centers, radii = base
        # shrinking by the margin keeps a feasible instance feasible on a grid
        # finer than the margin; growing keeps an infeasible one infeasible
        shrunk = _grid_feasible(centers, radii - W.FEAS_MARGIN / 2)
        grown = _grid_feasible(centers, radii + W.FEAS_MARGIN / 2)
        truth = W.disks_intersect(centers, radii)
        assert (shrunk if truth else grown) is truth
        checked += 1
    assert checked >= 50


def test_farthest_distance_on_fixtures_and_against_sampling():
    assert W.farthest_distance(np.array([[0.0, 0.0]]), 1.0, np.array([5.0, 0.0])) == pytest.approx(6.0)
    lens = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert W.farthest_distance(lens, 1.0, np.array([4.0, 0.0])) == pytest.approx(4.0)
    rng = np.random.default_rng(3)
    for i in range(12):
        base = W._planar_incl_base(i)
        if base is None:
            continue
        centers, R, c, _ = base
        pts = centers[0] + R * np.sqrt(rng.uniform(0, 1, 200_000))[:, None] * np.stack(
            [np.cos(t := rng.uniform(0, 2 * np.pi, 200_000)), np.sin(t)], axis=1)
        inside = np.all(np.linalg.norm(pts[:, None, :] - centers[None], axis=2) <= R, axis=1)
        sampled = np.max(np.linalg.norm(pts[inside] - c, axis=1))
        exact = W.farthest_distance(centers, R, c)
        assert sampled <= exact + 1e-9
        assert exact - sampled < 5e-3


@pytest.mark.parametrize("workload", ["planar-stream", "wide"])
def test_seed_reflects_coordinates_but_keeps_the_work(workload):
    def key(spec):
        return spec.label, spec.expect, tuple(np.abs(spec.data["centers"]).ravel())

    a = W.make_specs(workload, 1, 3)
    b = W.make_specs(workload, 1, 3)
    c = W.make_specs(workload, 2, 3)
    assert all(np.array_equal(x.data["centers"], y.data["centers"]) for x, y in zip(a.flat(), b.flat()))
    assert not all(np.array_equal(x.data["centers"], y.data["centers"]) for x, y in zip(a.flat(), c.flat()))
    for ra, rc in zip(a.rounds, c.rounds):
        assert sorted(map(key, ra)) == sorted(map(key, rc))


def test_reflection_leaves_solver_work_bit_identical():
    label = "feas n=20 infeasible"
    spec = next(s for s in W.make_specs("wide", 1, 1).flat() if s.label == label)
    other = next(s for s in W.make_specs("wide", 2, 1).flat() if s.label == label)
    assert not np.array_equal(spec.data["centers"], other.data["centers"])
    reports = [W.build_query(s, hs, ROOT / "problems").call() for s in (spec, other)]
    assert reports[0].iters == reports[1].iters
    assert reports[0].g_tilde_min == reports[1].g_tilde_min


def test_wide_feasibility_certificates():
    for n in (20, 50):
        centers, radii, A, b, z = W._wide_feas_base(n, True)
        # every constraint holds at the anchor with slack >= 0.2
        assert np.all(np.linalg.norm(centers - z, axis=1) <= radii - 0.2)
        assert np.all(A @ z <= b - 0.2)
        centers, radii, A, b, _ = W._wide_feas_base(n, False)
        # some halfspace leaves a whole ball at least 0.3 away
        gaps = [(A[h] @ centers[k] - radii[k]) - b[h] for h in range(len(b)) for k in range(len(radii))]
        assert max(gaps) >= 0.3


def test_wide_inclusion_sides_are_certain():
    for n, m in W.WIDE_INCL_SHAPES:
        for side in ("nonempty_difference", "included"):
            centers, R, c, r, z0 = W._wide_incl_base(n, m, side)
            off = np.linalg.norm(centers - z0, axis=1)
            dist = float(np.linalg.norm(c - z0))
            assert np.all(off <= 0.5 * R)
            assert dist > 2 * R + off.max()          # so d(c, C1) > R
            if side == "included":
                assert r > dist + R + off.max()      # C1 inside B(z0, R + max_off)
            else:
                assert r < dist                      # z0 in C1 lies outside B(c, r)


def test_tail_rule():
    assert run.tail([1.0] * 5 + [2.0] * 5) == (50.0, 1.5)
    lat = list(range(1, 101))
    p, v = run.tail(lat)
    assert p == 90.0 and v == 90 and sum(x > v for x in lat) == 10


def test_latency_in_ref_units_uses_the_kernels_on_both_sides():
    assert run.in_ref_units([2.0, 6.0], [1.0, 1.0, 3.0]) == [2.0, 3.0]


def _small_queries():
    specs = W.make_specs("planar-stream", 5, 2)
    return [W.build_query(s, hs, ROOT / "problems") for s in specs.flat()]


def test_tracer_restores_bindings_and_reconciles():
    before = hs.feasibility.minimize
    queries = _small_queries()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hs.feasibility.minimize is not before
        _, _, _, failures = run.run_queries(queries, tracer)
    finally:
        tracer.uninstall()
    assert hs.feasibility.minimize is before
    assert not failures
    assert tracing.reconcile(tracer.spans) > 0
    metrics = tracing.layer_metrics(tracer.spans, len(queries))
    assert metrics["minimize.iters"][0] == tracing.deterministic_counters(tracer.spans)["minimize.iters"]


@pytest.mark.parametrize("module, name", [("feasibility", "minimize"), ("minimize", "minimize"),
                                           ("inclusion", "refine_minimum")])
def test_reconcile_catches_a_missed_wrapper(module, name):
    queries = _small_queries()
    tracer = tracing.Tracer()
    tracer.install()
    mod = importlib.import_module(f"hullscope.{module}")
    original = getattr(mod, name).__wrapped__
    setattr(mod, name, original)
    try:
        run.run_queries(queries, tracer)
    finally:
        tracer.uninstall()
    assert getattr(mod, name) is original
    with pytest.raises(W.BenchError):
        tracing.reconcile(tracer.spans)


def _bench(tmp: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp,
                          capture_output=True, text=True, timeout=170)


def _checkout(tmp: Path, full: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(ROOT / "bench", tmp / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if full:
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "problems", tmp / "problems")
    return tmp


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _bench(_checkout(tmp_path, full=False), "--workload", "planar-stream",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_lines_match_the_declaration(tmp_path):
    tmp = _checkout(tmp_path, full=True)
    declared = json.loads((tmp / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        proc = _bench(tmp, "--workload", "planar-stream", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            d["name"]: d["unit"] for d in declared[key]}
    # the second traced run of the same seed compared its counters with the first
    assert "identical to the earlier run" in proc.stdout
