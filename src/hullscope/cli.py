"""Batch front-end: JSON problem files in, JSON reports out.

stdout carries exactly one JSON document per invocation; human-readable
summaries go to stderr (verbosity via the HULLSCOPE_LOG environment
variable: off, info or trace). Exit codes encode the verdict:

    feas       0 feasible        1 infeasible   2 undetermined
    inclusion  0 nonempty diff   1 included     2 undetermined  3 precondition
    farthest   0 solved          2 inner undetermined           3 precondition
    appbound   0 solved          3 precondition 4 hypothesis spot-check failed

    shared     5 empty intersection   64 usage   65 bad file   70 solver abort

A solver abort (70) reports a library error with no code of its own: a
non-finite value, or an ``appbound`` region that a ray never leaves.

Reports are deterministic given identical flags and seed; floats are
serialized with Python's shortest round-trip representation, so a report
parses back bit-identically.

The argument parser is built once per process, by the first ``main`` call,
and reused: each ``parse_args`` returns a fresh namespace, so no call's
flags carry over to the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import logging
import os
import sys
from functools import cache

import numpy as np

from .application import bound_max_distance
from .errors import (EmptyIntersection, HullscopeError, HypothesisViolation,
                     InnerUndetermined, PreconditionFailed)
from .farthest import BisectionConfig, solve_farthest
from .feasibility import ConstraintSet, FeasibilityVerdict, check_feasibility
from .inclusion import InclusionVerdict, OuterBall, check_inclusion
from .minimize import SolverConfig
from .problemfile import ProblemFile, ProblemFileError, load_problem

EXIT_USAGE = 64
EXIT_BAD_FILE = 65
EXIT_SOLVER_ABORT = 70
EXIT_PRECONDITION = 3
EXIT_HYPOTHESIS = 4
EXIT_EMPTY_INTERSECTION = 5

_FEAS_CODES = {
    FeasibilityVerdict.FEASIBLE: 0,
    FeasibilityVerdict.INFEASIBLE: 1,
    FeasibilityVerdict.UNDETERMINED: 2,
}
_INCLUSION_CODES = {
    InclusionVerdict.NONEMPTY_DIFFERENCE: 0,
    InclusionVerdict.INCLUDED: 1,
    InclusionVerdict.UNDETERMINED: 2,
}

log = logging.getLogger("hullscope.cli")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_default(obj):
    """``json.dumps`` hook for what JSON lacks: arrays, enums and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(doc, indent) -> None:
    sys.stdout.write(json.dumps(doc, indent=indent, default=_json_default) + "\n")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iters=args.max_iters, tol=args.tol)


def _require(problem: ProblemFile, field: str):
    value = getattr(problem, field)
    if value is None:
        raise ProblemFileError(f"problem file lacks the '{field}' block required by this command")
    return value


def _parse_x0(text: str) -> list[float]:
    """The coordinates of ``--x0``; ``check_feasibility`` checks their count and finiteness."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--x0 must be comma-separated numbers, got {text!r}") from exc


def cmd_feas(args) -> int:
    problem = load_problem(args.file)
    constraints = _require(problem, "constraints")
    x0 = _parse_x0(args.x0) if args.x0 else None
    report = check_feasibility(ConstraintSet(constraints), x0=x0, cfg=_solver_config(args))
    log.info("verdict=%s g_tilde_min=%.6e iters=%d",
             report.verdict.value, report.g_tilde_min, report.iters)
    _emit(report, args.json_indent)
    return _FEAS_CODES[report.verdict]


def cmd_inclusion(args) -> int:
    problem = load_problem(args.file)
    bi = _require(problem, "ball_intersection")
    outer = _require(problem, "outer")
    if args.r is not None:
        outer = OuterBall(outer.center, args.r)
    report = check_inclusion(bi, outer, cfg=_solver_config(args))
    log.info("verdict=%s G(x*)=%.6e margin=%.6e",
             report.verdict.value, report.g_at_xstar, report.precondition_margin)
    _emit(report, args.json_indent)
    return _INCLUSION_CODES[report.verdict]


def cmd_farthest(args) -> int:
    problem = load_problem(args.file)
    bi = _require(problem, "ball_intersection")
    outer = _require(problem, "outer")
    cfg = BisectionConfig(eps=args.eps, inner=_solver_config(args))
    report = solve_farthest(bi, outer.center, cfg)
    log.info("r_star=%.9g steps=%d inner_iters=%d",
             report.r_star, report.bisection_steps, report.total_inner_iters)
    _emit(report, args.json_indent)
    return 0


def cmd_appbound(args) -> int:
    problem = load_problem(args.file)
    region = _require(problem, "region")
    bi = _require(problem, "ball_intersection")
    outer = _require(problem, "outer")
    delta = args.delta if args.delta is not None else problem.delta
    if delta is None:
        raise ProblemFileError("appbound needs a covering constant: set 'delta' in the file or pass --delta")
    cfg = BisectionConfig(eps=args.eps, inner=_solver_config(args))
    try:
        report = bound_max_distance(region, bi, outer.center, delta, cfg, seed=args.seed)
    except HypothesisViolation as exc:
        _emit({"error": "hypothesis_violation", "message": str(exc),
               "counterexample": exc.counterexample, "distance": exc.distance,
               "delta": delta}, args.json_indent)
        return EXIT_HYPOTHESIS
    log.info("V_c=%.9g dist_x_hat=%.9g delta=%g", report.v_c, report.dist_x_hat, report.delta)
    _emit(report, args.json_indent)
    return 0


@cache
def build_arg_parser() -> _Parser:
    """The ``hullscope`` parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="hullscope",
                     description="Feasibility and ball-intersection inclusion certificates.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (JSON, schema version 1)")
    common.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="absolute tolerance (default 1e-8)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    common.add_argument("--max-iters", type=int, default=SolverConfig.max_iters, dest="max_iters",
                        help="subgradient iteration budget of one feasibility check, "
                             "one inclusion check or one bisection step; the Newton steps "
                             "of farthest's dual bracket and of inclusion's dual bound are "
                             "not subgradient iterations and have their own fixed cap")
    common.add_argument("--json-indent", type=int, default=None, dest="json_indent",
                        help="pretty-print the JSON report with this indent")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feas", parents=[common], help="feasibility of a constraint intersection")
    p.add_argument("--x0", type=str, default=None,
                   help="start point of the merit fallback, comma-separated coordinates "
                        "(unused when the dual decides a ball and halfspace system)")
    p.set_defaults(func=cmd_feas)

    p = sub.add_parser("inclusion", parents=[common],
                       help="is the ball intersection inside the outer ball?")
    p.add_argument("--r", type=float, default=None, help="override the outer ball radius")
    p.set_defaults(func=cmd_inclusion)

    p = sub.add_parser("farthest", parents=[common],
                       help="max distance from the outer center over the ball intersection")
    p.add_argument("--eps", type=float, default=BisectionConfig.eps,
                   help="half-width of the final bracket on the maximum (default 1e-4)")
    p.set_defaults(func=cmd_farthest)

    p = sub.add_parser("appbound", parents=[common],
                       help="sandwich the max distance over a region via the inner intersection")
    p.add_argument("--delta", type=float, default=None, help="override the covering constant")
    p.add_argument("--eps", type=float, default=BisectionConfig.eps,
                   help="half-width of the final bracket on the maximum (default 1e-4)")
    p.set_defaults(func=cmd_appbound)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("HULLSCOPE_LOG", "info").lower()
    level = {"off": logging.CRITICAL + 10, "info": logging.INFO, "trace": logging.DEBUG}.get(
        level_name, logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("hullscope: %(message)s"))
    root = logging.getLogger("hullscope")
    root.handlers.clear()
    root.addHandler(handler)
    root.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"hullscope: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProblemFileError as exc:
        print(f"hullscope: bad problem file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except PreconditionFailed as exc:
        _emit({"error": "precondition_failed", "message": str(exc)}, args.json_indent)
        return EXIT_PRECONDITION
    except EmptyIntersection as exc:
        _emit({"error": "empty_intersection", "message": str(exc)}, args.json_indent)
        return EXIT_EMPTY_INTERSECTION
    except InnerUndetermined as exc:
        _emit({"error": "inner_undetermined", "message": str(exc)}, args.json_indent)
        return 2
    except ValueError as exc:
        # invalid parameter values (negative radii, non-positive tolerances, an
        # --x0 of the wrong length, ...), caught before HullscopeError since a
        # DimensionMismatch is both
        print(f"hullscope: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HullscopeError as exc:
        print(f"hullscope: solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT


if __name__ == "__main__":
    sys.exit(main())
