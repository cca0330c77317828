import copy
import json
import re
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import example, given, strategies as st

from hullscope.dual import witness_dual
from hullscope.problemfile import ProblemFileError, load_problem

from conftest import PROBLEMS_DIR, problem_path, without_newton


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


def halfspaces_file(tmp_path, rows):
    """A problem file of the halfspaces ``a.x <= b`` alone, one per ``(a, b)`` of ``rows``."""
    path = tmp_path / "halfspaces.json"
    path.write_text(json.dumps({"version": 1, "dimension": len(rows[0][0]),
                                "constraints": [{"type": "halfspace", "a": a, "b": b} for a, b in rows]}))
    return path


def test_feas_on_a_box_with_no_ball_finds_a_witness(tmp_path):
    # no ball row, so no dual certificate: the merit route decides
    proc = run_cli("feas", str(halfspaces_file(tmp_path, [([1, 0], 1), ([-1, 0], 1), ([0, 1], 1)])))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "feasible"
    assert doc["certificate"] is None
    assert max(doc["residuals"]) <= 0.0


def test_feas_on_two_parallel_halfspaces_apart_is_infeasible(tmp_path):
    # x <= -1 and x >= 1: the merit is 2 everywhere between them
    proc = run_cli("feas", str(halfspaces_file(tmp_path, [([1], -1), ([-1], -1)])))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "infeasible"
    assert doc["g_tilde_min"] == 2.0
    assert doc["certificate"] is None


def test_feas_with_x0_flag():
    proc = run_cli("feas", str(problem_path("overlapping-disks")), "--x0", "10,10")
    assert proc.returncode == 0


def test_malformed_json_exits_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("feas", str(bad))
    assert proc.returncode == 65


@pytest.mark.parametrize("content", [
    b'{"version": 1, "dimension": 2, \xff}',
    # nested deeper than the JSON decoder's recursion limit
    b'{"version": 1, "dimension": 2, "constraints": ' + b"[" * 3000 + b"]" * 3000 + b"}",
    # an integer longer than int() converts from a string
    b'{"version": 1, "dimension": ' + b"9" * 5000 + b"}",
], ids=["not-utf8", "too-deep", "long-int"])
def test_undecodable_file_exits_65(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = run_cli("feas", str(bad))
    assert proc.returncode == 65
    assert proc.stderr.startswith("hullscope: bad problem file: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_schema_violation_exits_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 2, "dimension": 2}))
    proc = run_cli("feas", str(bad))
    assert proc.returncode == 65


def test_runs_without_jsonschema(tmp_path):
    # jsonschema is a test dependency only: with it unimportable, every
    # fixture command and every file the schema rejects keeps its exit code
    import os
    rejected = {"version-2": {"version": 2, "dimension": 2},
                "zero-radius": {"version": 1, "dimension": 2,
                                "constraints": [{"type": "ball", "center": [0, 0], "radius": 0}]},
                "extra-key": {"version": 1, "dimension": 2, "extra": 1}}
    runs = [(["feas", "disjoint-disks"], 1), (["feas", "overlapping-disks"], 0),
            (["inclusion", "single-disk-far-c", "--r", "6.1"], 1), (["inclusion", "lens-far-c"], 0),
            (["inclusion", "c-inside"], 3), (["farthest", "lens-far-c"], 0),
            (["farthest", "single-disk-far-c"], 0), (["appbound", "square-and-disk"], 0),
            (["appbound", "big-square"], 4)]
    argvs = [[command, str(problem_path(name)), *rest] for (command, name, *rest), _ in runs]
    for name, doc in rejected.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["feas", str(path)])
    code = f"""
import io, sys
from contextlib import redirect_stdout
sys.modules["jsonschema"] = None
from hullscope import cli
codes = []
for argv in {argvs!r}:
    with redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "HULLSCOPE_LOG": "off"})
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.splitlines() == [str([want for _, want in runs] + [65] * len(rejected))]
    assert proc.stderr.count("hullscope: bad problem file: schema violation: ") == len(rejected)


def test_zero_region_normal_exits_65(tmp_path):
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps({"version": 1, "dimension": 2,
                               "region": {"halfspaces": [{"a": [0, 0], "b": 1}]}}))
    proc = run_cli("appbound", str(bad))
    assert proc.returncode == 65
    assert "bad problem file" in proc.stderr


def test_unbounded_region_exits_70(tmp_path):
    doc = json.loads(problem_path("single-disk-far-c").read_text())
    doc["region"] = {"halfspaces": [{"a": [1, 0], "b": 10}]}
    doc["delta"] = 0.5
    path = tmp_path / "half-plane.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("appbound", str(path))
    assert proc.returncode == 70
    assert "region is unbounded along direction [" in proc.stderr
    assert "array(" not in proc.stderr


def packaged_schema() -> dict:
    """The schema file as shipped in the package, ``$ref``s and all."""
    from importlib import resources

    return json.loads(resources.files("hullscope").joinpath("schema/problem-v1.schema.json").read_text())


@cache
def shipped_validator():
    """jsonschema's validator of the schema as shipped, ``$ref``s and all."""
    import jsonschema

    schema = packaged_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def test_packaged_schema_is_valid():
    # loading trusts the packaged schema, so check the shipped file here once
    import jsonschema

    schema = packaged_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def schema_rejection(doc, path) -> str | None:
    """The message of ``load_problem``'s refusal of ``doc`` on schema grounds; None if the schema passes it."""
    path.write_text(json.dumps(doc))
    try:
        load_problem(path)
    except ProblemFileError as exc:
        if str(exc).startswith("schema violation: "):
            return str(exc)
    return None


def names_an_entry_of(doc, message: str) -> bool:
    """Whether the entry a schema violation names, such as ``constraints[0].center``, is in ``doc``.

    "the file" names the root, which is always there.
    """
    entry = message.removeprefix("schema violation: ")
    if entry.startswith("the file "):
        return True
    entry = entry.split(" ", 1)[0]
    if not re.fullmatch(r"[a-z_]+(\.[a-z_]+|\[\d+\])*", entry):
        return False
    node = doc
    for key, index in re.findall(r"([a-z_]+)|\[(\d+)\]", entry):
        if key and isinstance(node, dict) and key in node:
            node = node[key]
        elif index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return True


MUTATIONS = [0, -1, 0.5, 2, "x", None, True, [], {}, [1, "a"], [[0, 0]],
             {"radius": 1}, {"type": "ball", "center": [0], "radius": 0}]


def mutated(rng, doc, values=MUTATIONS):
    """``doc`` with one to three random edits: a node deleted, replaced by a ``values`` entry, or given an extra key."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots, stack = [], [doc]
        while stack:
            node = stack.pop()
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
        node, key = rng.choice(slots)
        edit = rng.randrange(3)
        if edit == 0:
            del node[key]
        elif edit == 1:
            node[key] = copy.deepcopy(rng.choice(values))
        elif isinstance(node[key], dict):
            node[key]["extra"] = 1
        else:
            doc[rng.choice(["extra", "delta", "outer", "region", "constraints"])] = node[key]
    return doc


def test_inlined_validator_matches_the_packaged_schema(problems_dir, tmp_path):
    # the loader inlines the schema's $refs; on the fixtures and 600 seeded
    # mutations of them it must refuse exactly what the schema as shipped
    # refuses, naming an entry of the file
    import random

    from hullscope.problemfile import _schema, _violation

    shipped = shipped_validator()
    assert "$ref" not in json.dumps(_schema())
    fixtures = [json.loads(path.read_text()) for path in sorted(problems_dir.glob("*.json"))]
    for doc in fixtures:
        assert shipped.is_valid(doc) and _violation(_schema(), doc) is None
    rng = random.Random(23)
    invalid = 0
    for _ in range(600):
        doc = mutated(rng, rng.choice(fixtures))
        message = schema_rejection(doc, tmp_path / "mutated.json")
        assert (message is None) == shipped.is_valid(doc), doc
        if message is not None:
            invalid += 1
            assert names_an_entry_of(doc, message), (message, doc)
    assert invalid >= 300


# values jsonschema treats specially: bools are no numbers, 2.0 is an
# integer, 1.0 equals the const 1 and true does not, -0.0 and 0 are no
# positive radius, and NaN passes every minimum
EDGE_VALUES = [True, False, 0, -0.0, 0.0, 1, 1.0, 2, 2.0, -1, 1e-300, float("nan"), float("inf"),
               float("-inf"), "", "1", "ball", "halfspace", None, [], {}, [0.0], [True], [[0.0, 0.0]]]


@st.composite
def edge_documents(draw):
    """A fixture with one to three edits that bring in ``EDGE_VALUES`` or an extra key."""
    path = draw(st.sampled_from(sorted(PROBLEMS_DIR.glob("*.json"))))
    return mutated(draw(st.randoms(use_true_random=False)), json.loads(path.read_text()), EDGE_VALUES)


@given(doc=edge_documents())
@example(doc={"version": 1, "dimension": 2.0})
@example(doc={"version": 1.0, "dimension": 2})
@example(doc={"version": True, "dimension": 2})
@example(doc={"version": 1, "dimension": True})
@example(doc={"version": 1, "dimension": 1, "delta": float("nan")})
@example(doc={"version": 1, "dimension": 1, "delta": -0.0})
@example(doc={"version": 1, "dimension": 1, "outer": {"center": [0], "radius": -0.0}})
@example(doc={"version": 1, "dimension": 1, "outer": {"center": [0], "radius": 0}})
@example(doc={"version": 1, "dimension": 1, "outer": {"center": [0], "radius": float("nan")}})
@example(doc={"version": 1, "dimension": 1, "constraints": [{"type": "ball", "center": [True], "radius": 1}]})
def test_walk_accepts_what_jsonschema_accepts(doc, tmp_path_factory):
    message = schema_rejection(doc, tmp_path_factory.getbasetemp() / "edge.json")
    assert (message is None) == shipped_validator().is_valid(doc)
    assert message is None or names_an_entry_of(doc, message), message


def test_walk_holds_one_of_for_exactly_one_branch():
    # the packaged schema's oneOf branches exclude each other by their type
    # const, so only overlapping branches show that one match is required
    import jsonschema

    from hullscope.problemfile import _violation

    node = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    for doc in (1, 2.0, 1.5, True, "x"):
        assert (_violation(node, doc) is None) == jsonschema.Draft202012Validator(node).is_valid(doc), doc


def test_walk_implements_every_keyword_of_the_packaged_schema():
    # the walk is checked against jsonschema only where the schema's keywords
    # reach; a keyword it does not implement must stop the schema from loading
    from hullscope.problemfile import _ANNOTATIONS, _KEYWORDS, _schema, _walkable

    def keywords(node):
        found = set(node)
        for child in [*node.get("$defs", {}).values(), *node.get("properties", {}).values(),
                      *node.get("oneOf", ()), *([node["items"]] if "items" in node else ())]:
            found |= keywords(child)
        return found

    assert keywords(packaged_schema()) - {"$defs", "$ref"} <= _KEYWORDS | _ANNOTATIONS
    schema = copy.deepcopy(_schema())
    _walkable(schema)
    schema["properties"]["constraints"]["items"]["oneOf"][1]["properties"]["center"]["maxItems"] = 3
    with pytest.raises(NotImplementedError, match="maxItems"):
        _walkable(schema)


@pytest.mark.parametrize("constraints, entry", [
    ('[{"type": "ball", "center": [0, 0], "radius": NaN}]', "constraints[0]"),
    ('[{"type": "ball", "center": [0, 0], "radius": Infinity}]', "constraints[0]"),
    ('[{"type": "ball", "center": [0, 0], "radius": 1e400}]', "constraints[0]"),
    ('[{"type": "ball", "center": [0, 0], "radius": 1' + "0" * 400 + '}]', "constraints[0]"),
    ('[{"type": "ball", "center": [0, 0], "radius": 1}, {"type": "ball", "center": [-Infinity, 0], "radius": 1}]',
     "constraints[1]"),
    ('[{"type": "halfspace", "a": [1, 0], "b": NaN}]', "constraints[0]"),
])
def test_non_finite_number_exits_65(tmp_path, constraints, entry):
    # the schema passes these, and the constructors refuse them: that must be
    # a bad problem file naming the entry, not a usage error or a traceback
    path = tmp_path / "non-finite.json"
    path.write_text(f'{{"version": 1, "dimension": 2, "constraints": {constraints}}}')
    proc = run_cli("feas", str(path))
    assert proc.returncode == 65
    assert proc.stderr.startswith(f"hullscope: bad problem file: {entry}: "), proc.stderr


@pytest.mark.parametrize("command", ["inclusion", "farthest"])
def test_outer_radius_whose_square_overflows_exits_65(tmp_path, command):
    # 1e160 squares to inf: the loader must refuse the outer ball before any
    # solve, where it used to reach the duals and warn of invalid values
    doc = json.loads(problem_path("lens-far-c").read_text())
    doc["outer"]["radius"] = 1e160
    path = tmp_path / "huge-outer.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path))
    assert proc.returncode == 65
    assert proc.stderr.startswith("hullscope: bad problem file: outer: radius 1e+160 "), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_r_whose_square_overflows_exits_64_before_any_solve():
    proc = run_cli("inclusion", str(problem_path("lens-far-c")), "--r", "1e160")
    assert proc.returncode == 64
    assert proc.stderr.startswith("hullscope: usage error: radius 1e+160 "), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_non_finite_delta_exits_65(tmp_path):
    doc = problem_path("square-and-disk").read_text().replace('"delta": 0.42', '"delta": NaN')
    assert "NaN" in doc
    path = tmp_path / "nan-delta.json"
    path.write_text(doc)
    proc = run_cli("appbound", str(path))
    assert proc.returncode == 65
    assert proc.stderr.startswith("hullscope: bad problem file: delta: "), proc.stderr


def test_integral_float_dimension_loads_as_an_int(tmp_path):
    doc = problem_path("overlapping-disks").read_text()
    path = tmp_path / "float-dimension.json"
    path.write_text(re.sub(r'"dimension": 2\b', '"dimension": 2.0', doc))
    assert '"dimension": 2.0' in path.read_text()
    dimension = load_problem(path).dimension
    assert dimension == 2 and type(dimension) is int


def test_missing_block_exits_65():
    proc = run_cli("inclusion", str(problem_path("disjoint-disks")))
    assert proc.returncode == 65


def test_unknown_command_exits_64():
    proc = run_cli("bogus", "x.json")
    assert proc.returncode == 64


@pytest.mark.parametrize("x0", ["1,banana", "nan,0", "1e400,0", "1", "1,2,3"])
def test_bad_x0_exits_64(x0):
    # a wrong length is a DimensionMismatch from check_feasibility, which is
    # a ValueError and a HullscopeError: a usage error, not a solver abort
    proc = run_cli("feas", str(problem_path("overlapping-disks")), "--x0", x0)
    assert proc.returncode == 64
    assert proc.stderr.startswith("hullscope: usage error: "), proc.stderr
    assert "x0" in proc.stderr and "Traceback" not in proc.stderr


def test_parser_defaults_are_the_config_defaults():
    from hullscope import BisectionConfig, SolverConfig, cli

    parser = cli.build_arg_parser()
    for command in ("feas", "farthest", "appbound"):
        args = parser.parse_args([command, "x.json"])
        assert (args.tol, args.max_iters) == (SolverConfig().tol, SolverConfig().max_iters), command
        if command != "feas":
            assert args.eps == BisectionConfig().eps, command


@pytest.mark.parametrize("r", ["1e20", "1e100"])
def test_inclusion_proven_by_the_dual_runs_no_probe(r):
    # g_lower > 0 proves Included, so no refinement probe runs: none can
    # overflow at 1e100 or spend the whole budget at 1e20
    proc = run_cli("inclusion", str(problem_path("lens-far-c")), "--r", r)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "included"
    assert doc["g_lower"] > 0
    assert doc["iters"] == 0


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
    assert doc["bisection_steps"] == 0
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


def test_max_iters_caps_inclusion_and_farthest(monkeypatch, capsys):
    import logging

    from hullscope import cli

    args = ("inclusion", str(problem_path("lens-far-c")), "--r", "3.9")
    full = run_cli(*args)
    # the dual closes the refinement with no subgradient iteration, so the
    # cap leaves the verdict whole
    starved = run_cli(*args, "--max-iters", "1")
    assert full.returncode == starved.returncode == 0
    assert json.loads(starved.stdout)["iters"] == 0
    # with no Newton step in the witness dual the refinement runs, and the
    # cap stops it short
    monkeypatch.setattr("hullscope.inclusion.witness_dual", without_newton(witness_dual))
    monkeypatch.setenv("HULLSCOPE_LOG", "off")
    try:
        code = cli.main([*args, "--max-iters", "1"])
    finally:
        # main gives the package logger a stderr handler and a level
        logger = logging.getLogger("hullscope")
        logger.handlers.clear()
        logger.setLevel(logging.NOTSET)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["verdict"] == "undetermined" and doc["iters"] == 1
    # the dual closes the farthest bracket without a subgradient iteration, so
    # the cap binds only a bisection step (test_starved_step_is_inner_undetermined)
    starved = run_cli("farthest", str(problem_path("lens-far-c")), "--max-iters", "1")
    assert starved.returncode == 0
    doc = json.loads(starved.stdout)
    assert doc["bisection_steps"] == 0 and doc["total_inner_iters"] == 0
    assert doc["r_lo"] <= 4.0 <= doc["r_hi"]


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


def test_the_parser_is_built_once_and_keeps_no_flags(monkeypatch, capsys, tmp_path):
    # one process runs a sequence of commands on one parser, flags and then
    # none: each call must print what it prints on a parser of its own
    import logging

    from hullscope import cli

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    feas = ["feas", str(problem_path("overlapping-disks"))]
    sequence = [
        ["bogus", "x.json"],
        ["inclusion", str(problem_path("single-disk-far-c")), "--r", "6.1"],
        ["inclusion", str(problem_path("single-disk-far-c"))],
        ["appbound", str(problem_path("square-and-disk")), "--delta", "0.5"],
        ["appbound", str(problem_path("square-and-disk"))],
        [*feas, "--x0", "1,2"],
        feas,
        [*feas, "--json-indent", "2"],
        feas,
        ["feas", str(bad)],
    ]
    monkeypatch.setenv("HULLSCOPE_LOG", "off")

    def run(argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    try:
        cli.build_arg_parser.cache_clear()
        shared = [run(argv) for argv in sequence]
        assert cli.build_arg_parser.cache_info().misses == 1
        assert cli.build_arg_parser().parse_args(feas).x0 is None
        fresh = []
        for argv in sequence:
            cli.build_arg_parser.cache_clear()
            fresh.append(run(argv))
    finally:
        logger = logging.getLogger("hullscope")
        logger.handlers.clear()
        logger.setLevel(logging.NOTSET)
    assert [code for code, _, _ in shared] == [64, 1, 0, 0, 0, 0, 0, 0, 0, 65]
    assert shared == fresh
    assert shared[1][1] != shared[2][1] and shared[3][1] != shared[4][1]
    assert shared[7][1] != shared[8][1]
