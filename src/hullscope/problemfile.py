"""Loading and validating JSON problem files (schema version 1).

A problem file carries the ambient dimension plus whichever of the four
optional blocks a command needs: a constraint list (feasibility), a ball
intersection and an outer ball (inclusion / farthest), and a region with a
covering constant (distance bounding). Validation is two-stage: the JSON
Schema shipped with the package, then semantic checks the schema cannot
express (vector lengths against the dimension, and every number finite).

The schema stage is ``_violation``, a walk of the packaged schema that
implements the few keywords it uses with jsonschema's semantics. It both
decides validity and words a rejection, naming the first entry that breaks
a rule the way the semantic checks name theirs. The schema file stays the
one statement of the rules: ``_schema()`` refuses to build from a schema
with a keyword the walk does not implement, so a later edit to the file
cannot be ignored silently.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from importlib import resources
from numbers import Number

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


# Each JSON type the schema names, tested as jsonschema 4's draft 2020-12
# type checker tests it: a bool is neither a number nor an integer, and a
# float with an integral value is an integer.
_TYPES = {
    "object": lambda doc: isinstance(doc, dict),
    "array": lambda doc: isinstance(doc, list),
    "number": lambda doc: isinstance(doc, Number) and not isinstance(doc, bool),
    "integer": lambda doc: ((isinstance(doc, int) and not isinstance(doc, bool))
                            or (isinstance(doc, float) and doc.is_integer())),
}
_KEYWORDS = frozenset({"type", "required", "properties", "additionalProperties", "items",
                       "minItems", "oneOf", "const", "minimum", "exclusiveMinimum"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})


def _walkable(node) -> None:
    """Raise unless ``_violation`` implements every keyword and value in the schema ``node``."""
    unknown = node.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise NotImplementedError(f"problem schema keywords {sorted(unknown)} are not implemented")
    kind = node.get("type", "object")
    if not isinstance(kind, str) or kind not in _TYPES:
        raise NotImplementedError(f"problem schema type {kind!r} is not implemented")
    if node.get("additionalProperties", False) is not False:
        raise NotImplementedError("problem schema additionalProperties other than false is not implemented")
    # _violation compares a const with ==, which is jsonschema's equality for a
    # string or a number that is no bool
    const = node.get("const", "")
    if isinstance(const, bool) or not isinstance(const, (str, int, float)):
        raise NotImplementedError(f"problem schema const {const!r} is not implemented")
    for child in [*node.get("properties", {}).values(), *node.get("oneOf", ()),
                  *([node["items"]] if "items" in node else ())]:
        _walkable(child)


@cache
def _schema() -> dict:
    """The packaged schema with its ``$ref``s inlined, read once per process.

    The ``$ref``s point into the schema's own acyclic ``$defs``, so they are
    resolved once, here, by inlining each definition where it is used, rather
    than again at every visit of every load.
    """
    text = resources.files("hullscope").joinpath("schema/problem-v1.schema.json").read_text()
    schema = json.loads(text)
    defs = schema.pop("$defs")
    schema = _inline(schema, defs)
    _walkable(schema)
    return schema


def _violation(node, doc, path=""):
    """The first entry of ``doc`` that breaks the schema ``node``, as ``(entry, rule)``; None if ``doc`` is valid.

    ``entry`` is written as the loader's other messages write one
    (``outer.radius``, ``constraints[0]``), or is "the file" for the root.
    Validity is decided as jsonschema 4 decides it: each keyword applies only
    to instances of its own type; a NaN passes ``minimum`` and
    ``exclusiveMinimum``, whose failure tests are ``<`` and ``<=``; ``oneOf``
    holds when exactly one branch does.
    """
    entry = path or "the file"
    if "type" in node and not _TYPES[node["type"]](doc):
        return entry, f"must be of type {node['type']}"
    if "const" in node and (isinstance(doc, bool) or doc != node["const"]):
        return entry, f"must be {node['const']!r}"
    if "oneOf" in node and sum(_violation(branch, doc) is None for branch in node["oneOf"]) != 1:
        return entry, f"must match exactly one of {len(node['oneOf'])} forms"
    if isinstance(doc, dict):
        properties = node.get("properties", {})
        for key in node.get("required", ()):
            if key not in doc:
                return entry, f"lacks the required {key!r}"
        for key, value in doc.items():
            if key not in properties:
                if "additionalProperties" in node:
                    return entry, f"has the unexpected {key!r}"
            elif found := _violation(properties[key], value, f"{path}.{key}" if path else key):
                return found
    elif isinstance(doc, list):
        if len(doc) < node.get("minItems", 0):
            return entry, f"must have {node['minItems']} or more items"
        for i, item in enumerate(doc):
            if "items" in node and (found := _violation(node["items"], item, f"{path}[{i}]")):
                return found
    elif _TYPES["number"](doc):
        if "minimum" in node and doc < node["minimum"]:
            return entry, f"must be at least {node['minimum']}"
        if "exclusiveMinimum" in node and doc <= node["exclusiveMinimum"]:
            return entry, f"must be above {node['exclusiveMinimum']}"


def _check_dim(name: str, vec, n: int) -> None:
    if len(vec) != n:
        raise ProblemFileError(f"{name} has length {len(vec)}, expected dimension {n}")


@contextmanager
def _refused(name: str):
    """Report a value a constructor refuses against ``name``.

    The constructors refuse a NaN, an infinity and an int too large for a float.
    """
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ProblemFileError(f"{name}: {exc}") from exc


def _leaves(specs, name: str, n: int) -> list[ConvexFn]:
    """Halfspaces ``{a, b}`` and balls ``{center, radius}`` of a constraint list."""
    out = []
    for i, spec in enumerate(specs):
        entry = f"{name}[{i}]"
        if "a" in spec:
            _check_dim(f"{entry}.a", spec["a"], n)
            with _refused(entry):
                out.append(halfspace_constraint(spec["a"], spec["b"]))
        else:
            _check_dim(f"{entry}.center", spec["center"], n)
            with _refused(entry):
                out.append(ball_constraint(Ball(spec["center"], spec["radius"])))
    return out


def load_problem(path) -> ProblemFile:
    """Parse and validate a problem file; raises ProblemFileError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad syntax, bytes that are not UTF-8, an integer of more digits than
        # int() converts, or nesting deeper than the decoder's recursion limit
        raise ProblemFileError(f"malformed JSON: {exc}") from exc

    if (found := _violation(_schema(), raw)) is not None:
        raise ProblemFileError(f"schema violation: {' '.join(found)}")

    n = int(raw["dimension"])  # the schema admits an integral float such as 2.0

    constraints = None
    if "constraints" in raw:
        constraints = _leaves(raw["constraints"], "constraints", n)

    bi = None
    if "ball_intersection" in raw:
        block = raw["ball_intersection"]
        for i, ctr in enumerate(block["centers"]):
            _check_dim(f"ball_intersection.centers[{i}]", ctr, n)
        with _refused("ball_intersection"):
            bi = BallIntersection(block["centers"], block["radius"])

    outer = None
    if "outer" in raw:
        _check_dim("outer.center", raw["outer"]["center"], n)
        with _refused("outer"):
            outer = OuterBall(raw["outer"]["center"], raw["outer"]["radius"])

    region = None
    if "region" in raw:
        block = raw["region"]
        leaves = (_leaves(block.get("halfspaces", []), "region.halfspaces", n)
                  + _leaves(block.get("balls", []), "region.balls", n))
        if not leaves:
            raise ProblemFileError("region must list at least one halfspace or ball")
        region = ConstraintSet(leaves)
        with _refused("region"):  # region operations refuse a zero halfspace normal: refuse it at load
            region.region_rows

    delta = raw.get("delta")
    with _refused("delta"):
        if delta is not None and not math.isfinite(delta):
            raise ValueError(f"must be finite, got {delta!r}")

    return ProblemFile(
        version=raw["version"],
        dimension=n,
        constraints=constraints,
        ball_intersection=bi,
        outer=outer,
        region=region,
        delta=delta,
    )
