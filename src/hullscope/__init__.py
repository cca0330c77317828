"""hullscope: certificates for convex feasibility and ball-intersection inclusion.

The library decides whether an intersection of convex sub-level sets is
nonempty by minimizing a non-smooth merit function, decides whether an
intersection of equal-radius balls fits inside another ball by localizing
the minimizer of a convex witness function, finds the farthest point of the
intersection from an outside center by bisection, and bounds the maximum
distance over a larger convex region whenever the intersection covers it to
within a known constant.
"""

from .application import (AppBoundReport, bound_max_distance, extract_boundary_point,
                          project_region)
from .convexfn import (Affine, BallQuad, ConvexFn, Max, PositivePart, Sum,
                       ball_constraint, halfspace_constraint)
from .errors import (DimensionMismatch, EmptyIntersection, EmptySample, GridTooLarge,
                     HullscopeError, HypothesisViolation, InnerUndetermined,
                     NonFiniteValue, PreconditionFailed, UnboundedRegion)
from .farthest import BisectionConfig, FarthestReport, solve_farthest
from .feasibility import (ConstraintSet, FeasibilityReport, FeasibilityVerdict,
                          ProjectionResult, build_g_tilde, check_feasibility, default_start)
from .geometry import Ball, Vector, as_vector
from .inclusion import (BallIntersection, InclusionReport, InclusionVerdict,
                        OuterBall, build_G, build_Gk, check_inclusion, dykstra_project_full)
from .minimize import MinimizeResult, PolyakWithTarget, SolverConfig, minimize, refine_minimum
from .oracle import (GridFeasibility, GridMaxDistance, GridSpec, LemmaCheckResult,
                     check_lemma_2_5, check_lemma_2_6, check_lemma_2_7, check_lemma_2_8,
                     grid_feasible, grid_max_distance)
from .problemfile import ProblemFile, ProblemFileError, load_problem

__version__ = "0.1.0"

__all__ = [
    "Affine", "AppBoundReport", "Ball", "BallIntersection", "BallQuad",
    "BisectionConfig", "ConstraintSet", "ConvexFn", "DimensionMismatch",
    "EmptyIntersection", "EmptySample", "FarthestReport", "FeasibilityReport",
    "FeasibilityVerdict", "GridFeasibility", "GridMaxDistance", "GridSpec",
    "GridTooLarge", "HullscopeError", "HypothesisViolation", "InclusionReport",
    "InclusionVerdict", "InnerUndetermined", "LemmaCheckResult", "Max",
    "MinimizeResult", "NonFiniteValue", "OuterBall", "PolyakWithTarget",
    "PositivePart", "PreconditionFailed", "ProblemFile", "ProblemFileError",
    "ProjectionResult", "SolverConfig", "Sum", "UnboundedRegion", "Vector",
    "as_vector", "ball_constraint", "bound_max_distance", "build_G", "build_Gk",
    "build_g_tilde", "check_feasibility", "check_inclusion", "check_lemma_2_5",
    "check_lemma_2_6", "check_lemma_2_7", "check_lemma_2_8", "default_start",
    "dykstra_project_full", "extract_boundary_point", "grid_feasible",
    "grid_max_distance", "halfspace_constraint", "load_problem", "minimize",
    "project_region", "refine_minimum", "solve_farthest",
]
