import json
import subprocess
import sys

from conftest import problem_path


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    env["HULLSCOPE_LOG"] = "off"
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "hullscope.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def test_feas_disjoint_exit_and_value():
    proc = run_cli("feas", str(problem_path("disjoint-disks")))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "infeasible"
    assert abs(doc["g_tilde_min"] - 2.5) <= 1e-3


def test_feas_overlapping_exit_and_witness():
    proc = run_cli("feas", str(problem_path("overlapping-disks")))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "feasible"
    assert doc["witness"] is not None
    assert max(doc["residuals"]) <= 1e-8


def test_feas_with_x0_flag():
    proc = run_cli("feas", str(problem_path("overlapping-disks")), "--x0", "10,10")
    assert proc.returncode == 0


def test_malformed_json_exits_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("feas", str(bad))
    assert proc.returncode == 65


def test_schema_violation_exits_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 2, "dimension": 2}))
    proc = run_cli("feas", str(bad))
    assert proc.returncode == 65


def test_missing_block_exits_65():
    proc = run_cli("inclusion", str(problem_path("disjoint-disks")))
    assert proc.returncode == 65


def test_unknown_command_exits_64():
    proc = run_cli("bogus", "x.json")
    assert proc.returncode == 64


def test_bad_x0_exits_64():
    proc = run_cli("feas", str(problem_path("overlapping-disks")), "--x0", "1,banana")
    assert proc.returncode == 64


def test_bad_parameter_values_exit_64():
    assert run_cli("inclusion", str(problem_path("single-disk-far-c")), "--r", "-2").returncode == 64
    assert run_cli("farthest", str(problem_path("single-disk-far-c")), "--eps", "0").returncode == 64
    assert run_cli("feas", str(problem_path("overlapping-disks")), "--tol", "-1").returncode == 64


def test_inclusion_exit_codes():
    assert run_cli("inclusion", str(problem_path("single-disk-far-c"))).returncode == 0
    assert run_cli("inclusion", str(problem_path("single-disk-far-c")), "--r", "6.1").returncode == 1
    assert run_cli("inclusion", str(problem_path("c-inside"))).returncode == 3


def test_farthest_single_disk_values():
    proc = run_cli("farthest", str(problem_path("single-disk-far-c")), "--eps", "1e-4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["r_star"] - 6.0) <= 2e-4
    assert doc["bisection_steps"] <= 16
    assert doc["r_lo"] <= doc["r_star"] <= doc["r_hi"]


def test_farthest_lens_values():
    proc = run_cli("farthest", str(problem_path("lens-far-c")), "--eps", "1e-4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["r_star"] - 4.0) <= 2e-4


def test_appbound_square_fixture():
    proc = run_cli("appbound", str(problem_path("square-and-disk")))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["v_c"] - 4.5) <= 1e-3
    assert doc["v_c"] - 1e-3 <= doc["dist_x_hat"] <= doc["v_c"] + 0.42 + 1e-3


def test_appbound_big_square_rejected():
    proc = run_cli("appbound", str(problem_path("big-square")))
    assert proc.returncode == 4
    doc = json.loads(proc.stdout)
    assert doc["error"] == "hypothesis_violation"
    assert len(doc["counterexample"]) == 2
    assert doc["distance"] > 0.42


def test_max_iters_caps_inclusion_and_farthest():
    args = ("inclusion", str(problem_path("lens-far-c")), "--r", "3.9")
    full = run_cli(*args)
    starved = run_cli(*args, "--max-iters", "1")
    assert full.returncode == 0
    assert starved.stdout != full.stdout
    assert starved.returncode not in (0, 1)
    starved = run_cli("farthest", str(problem_path("lens-far-c")), "--max-iters", "1")
    assert starved.returncode == 2
    assert json.loads(starved.stdout)["error"] == "inner_undetermined"


def test_stdout_is_single_json_document():
    proc = run_cli("feas", str(problem_path("disjoint-disks")), "--json-indent", "2")
    json.loads(proc.stdout)  # parses as exactly one document


def test_report_round_trip_bit_identical():
    proc = run_cli("inclusion", str(problem_path("single-disk-far-c")))
    doc = json.loads(proc.stdout)
    assert json.dumps(doc) == proc.stdout.strip()
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_determinism_byte_identical():
    for args in (["feas", str(problem_path("disjoint-disks"))],
                 ["inclusion", str(problem_path("single-disk-far-c"))],
                 ["farthest", str(problem_path("lens-far-c")), "--eps", "1e-3"],
                 ["appbound", str(problem_path("square-and-disk")), "--seed", "3"]):
        out1 = run_cli(*args).stdout
        out2 = run_cli(*args).stdout
        assert out1 == out2


def test_verdict_exit_code_map_is_total():
    from hullscope.cli import _FEAS_CODES, _INCLUSION_CODES
    from hullscope import FeasibilityVerdict, InclusionVerdict
    assert set(_FEAS_CODES) == set(FeasibilityVerdict)
    assert set(_INCLUSION_CODES) == set(InclusionVerdict)
    assert len(set(_FEAS_CODES.values())) == len(_FEAS_CODES)
    assert len(set(_INCLUSION_CODES.values())) == len(_INCLUSION_CODES)


def test_empty_intersection_exits_5(tmp_path):
    doc = {"version": 1, "dimension": 2,
           "ball_intersection": {"centers": [[0.0, 0.0], [5.0, 0.0]], "radius": 1.0},
           "outer": {"center": [10.0, 0.0], "radius": 3.0}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("inclusion", str(path))
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["error"] == "empty_intersection"


def test_log_env_controls_stderr():
    info = run_cli("feas", str(problem_path("overlapping-disks")), env_extra={"HULLSCOPE_LOG": "info"})
    off = run_cli("feas", str(problem_path("overlapping-disks")), env_extra={"HULLSCOPE_LOG": "off"})
    assert "verdict" in info.stderr
    assert off.stderr == ""
