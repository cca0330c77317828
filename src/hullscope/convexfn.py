"""Composable convex expression trees with exact values and one valid subgradient.

Node kinds: affine functions, ball quadratics ``||x - center||^2 + offset``,
positive parts, sums and pointwise maxima. Every node is convex by
construction, so anything assembled here may be handed to the subgradient
solver without further checks.

Subgradient selection at kinks is deterministic: the positive part returns
the zero vector when the inner value is <= 0 (valid, since 0 is in the
subdifferential there), and a maximum returns the subgradient of the
lowest-index achieving term. Evaluation is side-effect free; trees are
immutable after construction.

Returned subgradients may alias arrays owned by the tree (e.g. the
coefficient vector of an affine node) and must be treated as read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .geometry import Ball, Vector, as_vector


class ConvexFn:
    """Base node; subclasses implement ``eval`` and the batch ``values``."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim

    def eval(self, x: Vector) -> tuple[float, Vector]:
        """Return ``(value, subgradient)`` at a validated float64 point."""
        raise NotImplementedError

    def value(self, x) -> float:
        return self.eval(np.asarray(x, dtype=np.float64))[0]

    def values(self, X: np.ndarray) -> np.ndarray:
        """Vectorized values over the rows of an (N, dim) array."""
        raise NotImplementedError


class Affine(ConvexFn):
    """a.x + b"""

    __slots__ = ("a", "b")

    def __init__(self, a, b: float):
        a = as_vector(a)
        super().__init__(a.shape[0])
        b = float(b)
        if not math.isfinite(b):
            raise ValueError("affine offset must be finite")
        self.a = a
        self.b = b

    def eval(self, x):
        return float(self.a @ x) + self.b, self.a

    def values(self, X):
        return X @ self.a + self.b


class BallQuad(ConvexFn):
    """||x - center||^2 + offset; the offset may be negative (e.g. -R^2)."""

    __slots__ = ("center", "offset")

    def __init__(self, center, offset: float):
        center = as_vector(center)
        super().__init__(center.shape[0])
        offset = float(offset)
        if not math.isfinite(offset):
            raise ValueError("offset must be finite")
        self.center = center
        self.offset = offset

    def eval(self, x):
        d = x - self.center
        return float(d @ d) + self.offset, 2.0 * d

    def values(self, X):
        D = X - self.center
        return np.einsum("ij,ij->i", D, D) + self.offset


class PositivePart(ConvexFn):
    """max(inner(x), 0); subgradient is zero whenever inner(x) <= 0."""

    __slots__ = ("inner", "_zero")

    def __init__(self, inner: ConvexFn):
        super().__init__(inner.dim)
        self.inner = inner
        z = np.zeros(inner.dim)
        z.setflags(write=False)
        self._zero = z

    def eval(self, x):
        v, g = self.inner.eval(x)
        if v > 0.0:
            return v, g
        return 0.0, self._zero

    def values(self, X):
        return np.maximum(self.inner.values(X), 0.0)


class Sum(ConvexFn):
    """Sum of convex terms."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Sum needs at least one term")
        dim = terms[0].dim
        for t in terms:
            if t.dim != dim:
                raise DimensionMismatch("Sum terms must share a dimension")
        super().__init__(dim)
        self.terms = terms

    def eval(self, x):
        total = 0.0
        g = np.zeros(self.dim)
        for t in self.terms:
            tv, tg = t.eval(x)
            total += tv
            g += tg
        return total, g

    def values(self, X):
        out = self.terms[0].values(X).copy()
        for t in self.terms[1:]:
            out += t.values(X)
        return out


class Max(ConvexFn):
    """Pointwise maximum; exposes the achieving index at evaluation time."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Max needs at least one term")
        dim = terms[0].dim
        for t in terms:
            if t.dim != dim:
                raise DimensionMismatch("Max terms must share a dimension")
        super().__init__(dim)
        self.terms = terms

    def eval_with_index(self, x) -> tuple[float, Vector, int]:
        """(value, subgradient, achieving index); ties go to the lowest index."""
        best_v, best_g = self.terms[0].eval(x)
        best_i = 0
        for i in range(1, len(self.terms)):
            v, g = self.terms[i].eval(x)
            if v > best_v:
                best_v, best_g, best_i = v, g, i
        return best_v, best_g, best_i

    def eval(self, x):
        v, g, _ = self.eval_with_index(x)
        return v, g

    def values(self, X):
        out = self.terms[0].values(X).copy()
        for t in self.terms[1:]:
            np.maximum(out, t.values(X), out=out)
        return out


def ball_constraint(ball: Ball) -> BallQuad:
    """Sub-level function g(x) = ||x - center||^2 - radius^2 of a closed ball."""
    return BallQuad(ball.center, -(ball.radius ** 2))


def halfspace_constraint(a, b) -> Affine:
    """Sub-level function g(x) = a.x - b of the halfspace a.x <= b."""
    return Affine(np.asarray(a, dtype=np.float64), -float(b))
