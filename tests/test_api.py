"""The public surface of the package: exactly these names, and no test code."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hullscope

PUBLIC = [
    "Affine", "AppBoundReport", "Ball", "BallIntersection", "BallQuad", "BisectionConfig",
    "ConstraintSet", "ConvexFn", "DimensionMismatch", "EmptyIntersection", "FarthestReport",
    "FeasibilityReport", "FeasibilityVerdict", "HullscopeError", "HypothesisViolation",
    "InclusionReport", "InclusionVerdict", "InfeasibilityCertificate", "InnerUndetermined", "Max",
    "MinimizeResult",
    "NonFiniteValue", "OuterBall", "PositivePart", "PreconditionFailed",
    "ProblemFile", "ProblemFileError", "ProjectionResult", "SolverConfig", "Sum",
    "UnboundedRegion", "Vector", "as_vector", "ball_constraint", "bound_max_distance", "build_G",
    "build_g_tilde", "check_feasibility", "check_inclusion", "default_start",
    "dykstra_project_full", "extract_boundary_point", "halfspace_constraint", "load_problem",
    "minimize", "project_region", "refine_minimum", "solve_farthest",
]

TEST_MODULES = {"tests", "conftest", "oracles"}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 48
    assert sorted(hullscope.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in hullscope.__all__:
        assert getattr(hullscope, name) is not None, name


def test_oracles_are_not_in_the_package():
    assert importlib.util.find_spec("hullscope.oracle") is None


def test_package_does_not_import_test_code():
    sources = sorted(Path(hullscope.__file__).parent.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in TEST_MODULES, f"{path.name} imports {module}"


def test_package_modules_import_no_private_names():
    # a name one module takes from another belongs to that module's interface,
    # so it carries no leading underscore
    sources = sorted(Path(hullscope.__file__).parent.rglob("*.py"))
    private = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "hullscope"):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_package_has_no_unused_import_or_private_definition():
    # a simplification that leaves dead code behind fails here: an import the
    # module never reads (unless ``__all__`` re-exports it), a module-level
    # private function or class that no module of the package references, or
    # a module-level assignment, of a name or of each name of a tuple, that no
    # module reads and ``__all__`` does not export (dunder names aside)
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(hullscope.__file__).parent.rglob("*.py"))}
    referenced, loaded = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                loaded.add(node.attr)
    exports = {name: {elt.value for node in tree.body if isinstance(node, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                      for elt in node.value.elts}
               for name, tree in trees.items()}
    exported = set().union(*exports.values())
    dead = []
    for name, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exports[name]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            dead += [f"{name}: import {b}" for b in bound if b not in read]
        dead += [f"{name}: {node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name.startswith("_") and node.name not in referenced]
        dead += [f"{name}: {bound.id}" for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for bound in (target.elts if isinstance(target, ast.Tuple) else [target])
                 if isinstance(bound, ast.Name) and bound.id not in loaded | exported
                 and not (bound.id.startswith("__") and bound.id.endswith("__"))]
    assert dead == []


def _rows_method(tree):
    """The ``rows`` method of ``ConstraintSet`` in a module's syntax tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ConstraintSet":
            return next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "rows")
    raise AssertionError("feasibility.py defines no ConstraintSet")


def test_only_feasibility_tells_constraint_kinds_apart():
    # ``ConstraintSet.rows`` sorts the constraints into balls, halfspaces and
    # other nodes; all other code, feasibility.py's own included, reads the
    # rows and asks no node its kind
    found = []
    for path in sorted(Path(hullscope.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set(ast.walk(_rows_method(tree))) if path.name == "feasibility.py" else set()
        for node in ast.walk(tree):
            if node in allowed or not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                       and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {getattr(kind, "id", None) or getattr(kind, "attr", None) for kind in kinds}
            if names & {"BallQuad", "Affine"}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_leaves_the_schema_validator_unloaded(tmp_path):
    # jsonschema is a test dependency only: importing the package, loading a
    # valid problem file and refusing an invalid one must all leave it unloaded
    env = {**os.environ, "PYTHONPATH": str(Path(hullscope.__file__).parent.parent)}
    fixture = Path(__file__).resolve().parent.parent / "problems" / "lens-far-c.json"
    version_2 = tmp_path / "version-2.json"
    version_2.write_text('{"version": 2, "dimension": 2}')
    code = f"""
import sys, hullscope
print('jsonschema' in sys.modules)
hullscope.load_problem({str(fixture)!r})
print('jsonschema' in sys.modules)
try:
    hullscope.load_problem({str(version_2)!r})
except hullscope.ProblemFileError as exc:
    print(exc)
print('jsonschema' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "False", "schema violation: version must be 1", "False"]
