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
from functools import cache
from importlib import resources

from .convexfn import ConvexFn, ball_constraint, halfspace_constraint
from .errors import HullscopeError
from .feasibility import ConstraintSet
from .geometry import Ball
from .inclusion import BallIntersection, OuterBall


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


def _inline(node, defs):
    """``node`` with each ``{"$ref": "#/$defs/<name>"}`` replaced by ``defs[name]``, recursively."""
    if isinstance(node, dict):
        if "$ref" in node:
            return _inline(defs[node["$ref"].removeprefix("#/$defs/")], defs)
        return {key: _inline(value, defs) for key, value in node.items()}
    if isinstance(node, list):
        return [_inline(value, defs) for value in node]
    return node


@cache
def _validator():
    """Validator of the packaged schema, built once per process; the tests check the schema itself.

    The schema's ``$ref``s point into its own acyclic ``$defs``, so they are
    resolved once, here, by inlining each definition where it is used, rather
    than again at every visit of every load.
    """
    import jsonschema  # here, not at module level: only a problem file needs it

    text = resources.files("hullscope").joinpath("schema/problem-v1.schema.json").read_text()
    schema = json.loads(text)
    defs = schema.pop("$defs")
    return jsonschema.validators.validator_for(schema)(_inline(schema, defs))


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

    from jsonschema.exceptions import best_match

    # best_match picks the error jsonschema.validate would raise
    error = best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ProblemFileError(f"schema violation: {error.message}")

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
        region = ConstraintSet(leaves)
        try:  # region operations refuse a zero halfspace normal: refuse it at load
            region.region_rows
        except ValueError as exc:
            raise ProblemFileError(f"region: {exc}") from exc

    return ProblemFile(
        version=raw["version"],
        dimension=n,
        constraints=constraints,
        ball_intersection=bi,
        outer=outer,
        region=region,
        delta=raw.get("delta"),
    )
