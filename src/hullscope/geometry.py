"""Validated float64 vectors and the ball primitive.

All quantities are plain float64 numpy vectors. Points are immutable after
construction (``as_vector`` freezes them), so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

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


@dataclass(frozen=True)
class Ball:
    """A closed ball given by center and radius > 0."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be a finite positive number, got {self.radius!r}")
        object.__setattr__(self, "radius", r)
