"""The public surface of the package: exactly these names, and no test code."""

import ast
import importlib.util
from pathlib import Path

import hullscope

PUBLIC = [
    "Affine", "AppBoundReport", "Ball", "BallIntersection", "BallQuad", "BisectionConfig",
    "ConstraintSet", "ConvexFn", "DimensionMismatch", "EmptyIntersection", "FarthestReport",
    "FeasibilityReport", "FeasibilityVerdict", "HullscopeError", "HypothesisViolation",
    "InclusionReport", "InclusionVerdict", "InfeasibilityCertificate", "InnerUndetermined", "Max",
    "MinimizeResult",
    "NonFiniteValue", "OuterBall", "PolyakWithTarget", "PositivePart", "PreconditionFailed",
    "ProblemFile", "ProblemFileError", "ProjectionResult", "SolverConfig", "Sum",
    "UnboundedRegion", "Vector", "as_vector", "ball_constraint", "bound_max_distance", "build_G",
    "build_g_tilde", "check_feasibility", "check_inclusion", "default_start",
    "dykstra_project_full", "extract_boundary_point", "halfspace_constraint", "load_problem",
    "minimize", "project_region", "refine_minimum", "solve_farthest",
]

TEST_MODULES = {"tests", "conftest", "oracles"}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 49
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
