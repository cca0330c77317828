"""hullscope: certificates for convex feasibility and ball-intersection inclusion.

The library decides whether an intersection of convex sub-level sets is
nonempty from an exactly checked Lagrange dual of its balls and
halfspaces, and minimizes a non-smooth merit function only when another
kind of set is present or the dual settles nothing; it decides whether an
intersection of equal-radius balls fits inside another ball by localizing
the minimizer of a convex witness function, finds the farthest point of the
intersection from an outside center with an exactly checked dual bracket
(bisecting it only when the dual leaves it wide), and bounds the maximum
distance over a larger convex region whenever the intersection covers it to
within a known constant.
"""

from .application import (AppBoundReport, bound_max_distance, extract_boundary_point,
                          project_region)
from .convexfn import (Affine, BallQuad, ConvexFn, Max, PositivePart, Sum,
                       ball_constraint, halfspace_constraint)
from .errors import (DimensionMismatch, EmptyIntersection, HullscopeError, HypothesisViolation,
                     InnerUndetermined, NonFiniteValue, PreconditionFailed, UnboundedRegion)
from .farthest import BisectionConfig, FarthestReport, solve_farthest
from .feasibility import (ConstraintSet, FeasibilityReport, FeasibilityVerdict,
                          InfeasibilityCertificate, ProjectionResult, build_g_tilde,
                          check_feasibility, default_start)
from .geometry import Ball, Vector, as_vector
from .inclusion import (BallIntersection, InclusionReport, InclusionVerdict,
                        OuterBall, build_G, check_inclusion, dykstra_project_full)
from .minimize import MinimizeResult, SolverConfig, minimize, refine_minimum
from .problemfile import ProblemFile, ProblemFileError, load_problem

__version__ = "0.1.0"

__all__ = [
    "Affine", "AppBoundReport", "Ball", "BallIntersection", "BallQuad",
    "BisectionConfig", "ConstraintSet", "ConvexFn", "DimensionMismatch",
    "EmptyIntersection", "FarthestReport", "FeasibilityReport",
    "FeasibilityVerdict", "HullscopeError", "HypothesisViolation",
    "InclusionReport", "InclusionVerdict", "InfeasibilityCertificate", "InnerUndetermined", "Max",
    "MinimizeResult", "NonFiniteValue", "OuterBall", "PositivePart",
    "PreconditionFailed", "ProblemFile", "ProblemFileError",
    "ProjectionResult", "SolverConfig", "Sum", "UnboundedRegion", "Vector",
    "as_vector", "ball_constraint", "bound_max_distance", "build_G",
    "build_g_tilde", "check_feasibility", "check_inclusion", "default_start",
    "dykstra_project_full", "extract_boundary_point", "halfspace_constraint",
    "load_problem", "minimize", "project_region", "refine_minimum",
    "solve_farthest",
]
