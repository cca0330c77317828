"""Validated float64 vectors and the ball primitive.

All quantities are plain float64 numpy vectors. Points are immutable after
construction (``as_vector`` and ``as_point`` freeze them), so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch

Vector = NDArray[np.float64]


def as_vector(coords) -> Vector:
    """Validate a coordinate sequence and freeze it as a float64 vector."""
    v = np.array(coords, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d point with >= 1 coordinate, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    v.setflags(write=False)
    return v


def as_point(coords, dim: int, name: str = "point") -> Vector:
    """Check a point a caller passes in and freeze it as a float64 vector of shape ``(dim,)``.

    Raises ``DimensionMismatch`` on any other shape (a scalar, ``(dim + 1,)``,
    ``(dim, 1)``) and ``ValueError`` naming the point when a coordinate is not
    finite.
    """
    v = np.array(coords, dtype=np.float64)
    if v.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({dim},)")
    # math.isfinite over a list costs less than np.isfinite at these sizes
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} has non-finite coordinates {v.tolist()}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Ball:
    """A closed ball given by center and radius > 0.

    The ball's constraint is ``||x - center||^2 - radius^2``, so the radius
    must square to a positive finite float: ``1e-170`` squares to 0 and
    ``1e160`` to infinity, and both are refused.
    """

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not (r > 0.0 and 0.0 < r * r < math.inf):
            raise ValueError(f"radius {r!r} must be positive and square to a positive finite float")
        object.__setattr__(self, "radius", r)
