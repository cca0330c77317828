"""Loading and validating JSON problem files (schema version 1).

A problem file carries the ambient dimension plus whichever of the four
optional blocks a command needs: a constraint list (feasibility), a ball
intersection and an outer ball (inclusion / farthest), and a region with a
covering constant (distance bounding). Validation is two-stage: the JSON
Schema shipped with the package, then semantic checks the schema cannot
express (vector lengths against the dimension).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .convexfn import ConvexFn, ball_constraint, halfspace_constraint
from .errors import HullscopeError
from .feasibility import ConstraintSet
from .geometry import Ball
from .inclusion import BallIntersection, OuterBall

SCHEMA_VERSION = 1


class ProblemFileError(HullscopeError, ValueError):
    """The problem file does not parse or does not validate."""


@dataclass
class ProblemFile:
    """Parsed problem: only the blocks present in the file are non-None."""

    version: int
    dimension: int
    constraints: list[ConvexFn] | None
    ball_intersection: BallIntersection | None
    outer: OuterBall | None
    region: ConstraintSet | None
    delta: float | None


def _schema() -> dict:
    text = resources.files("hullscope").joinpath("schema/problem-v1.schema.json").read_text()
    return json.loads(text)


def _check_dim(name: str, vec, n: int) -> None:
    if len(vec) != n:
        raise ProblemFileError(f"{name} has length {len(vec)}, expected dimension {n}")


def _leaves(specs, name: str, n: int) -> list[ConvexFn]:
    """Halfspaces ``{a, b}`` and balls ``{center, radius}`` of a constraint list."""
    out = []
    for i, spec in enumerate(specs):
        if "a" in spec:
            _check_dim(f"{name}[{i}].a", spec["a"], n)
            out.append(halfspace_constraint(spec["a"], spec["b"]))
        else:
            _check_dim(f"{name}[{i}].center", spec["center"], n)
            out.append(ball_constraint(Ball(spec["center"], spec["radius"])))
    return out


def load_problem(path) -> ProblemFile:
    """Parse and validate a problem file; raises ProblemFileError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"malformed JSON: {exc}") from exc

    try:
        jsonschema.validate(raw, _schema())
    except jsonschema.ValidationError as exc:
        raise ProblemFileError(f"schema violation: {exc.message}") from exc

    n = raw["dimension"]

    constraints = None
    if "constraints" in raw:
        constraints = _leaves(raw["constraints"], "constraints", n)

    bi = None
    if "ball_intersection" in raw:
        block = raw["ball_intersection"]
        for i, ctr in enumerate(block["centers"]):
            _check_dim(f"ball_intersection.centers[{i}]", ctr, n)
        bi = BallIntersection(block["centers"], block["radius"])

    outer = None
    if "outer" in raw:
        _check_dim("outer.center", raw["outer"]["center"], n)
        outer = OuterBall(raw["outer"]["center"], raw["outer"]["radius"])

    region = None
    if "region" in raw:
        block = raw["region"]
        leaves = (_leaves(block.get("halfspaces", []), "region.halfspaces", n)
                  + _leaves(block.get("balls", []), "region.balls", n))
        if not leaves:
            raise ProblemFileError("region must list at least one halfspace or ball")
        region = ConstraintSet(leaves, dimension=n)
        # region operations refuse a zero halfspace normal: refuse it at load
        region.halfspaces

    return ProblemFile(
        version=raw["version"],
        dimension=n,
        constraints=constraints,
        ball_intersection=bi,
        outer=outer,
        region=region,
        delta=raw.get("delta"),
    )
