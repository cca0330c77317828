"""Exception types shared across the library."""


class HullscopeError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(HullscopeError, ValueError):
    """Operands live in different ambient dimensions."""


class NonFiniteValue(HullscopeError, ArithmeticError):
    """A function evaluation produced NaN or infinity."""


class PreconditionFailed(HullscopeError):
    """A required hypothesis does not hold, so no sound verdict exists."""


class EmptyIntersection(HullscopeError):
    """The ball intersection is empty, or could not be certified nonempty."""


class InnerUndetermined(HullscopeError):
    """An inner inclusion check came back undetermined; refusing to guess."""


class UnboundedRegion(HullscopeError):
    """A ray from a point of the region never leaves it: the region is unbounded along it."""


class HypothesisViolation(HullscopeError):
    """A point found on a spot check violates a caller-asserted hypothesis.

    Carries the offending point so callers can report a counterexample, and
    ``distance``: for a covering violation, an exact lower bound on the
    point's distance to the inner intersection, rounded down and above the
    covering threshold; for a containment violation, the region's worst
    residual at the point.
    """

    def __init__(self, message, counterexample=None, distance=None):
        super().__init__(message)
        self.counterexample = counterexample
        self.distance = distance
