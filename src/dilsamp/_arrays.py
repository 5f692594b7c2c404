"""Small array-shape helpers shared across modules."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def as_points(x, d: int) -> np.ndarray:
    """Coerce ``x`` to an array of points with last axis ``d``.

    Scalars and plain 1-d arrays are accepted when ``d == 1``.
    """
    a = np.asarray(x)
    if a.ndim == 0:
        if d != 1:
            raise ValueError(f"scalar point given for dimension {d}")
        return a.reshape(1)
    if a.shape[-1] != d:
        if d == 1:
            return a[..., None]
        raise ValueError(f"point array with last axis {a.shape[-1]}, expected {d}")
    return a


def as_rows(x, d: int) -> np.ndarray:
    """One point or an array of points as float rows ``(n, d)``."""
    return np.asarray(as_points(x, d), dtype=float).reshape(-1, d)


def map_rows(rows: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """``rows @ a.T`` as float rows, each output column formed as the
    column-wise products ``rows[:, j] * a[i, j]`` summed left to right, so
    a row's bits do not depend on the other rows.  Where every product is
    exact (the dyadic and quincunx powers) this gives ``np.vecdot``'s bits;
    for general real matrices the last bit can differ from it, since
    ``vecdot`` may fuse a multiply and an add.  ``out``, if given, receives
    the rows."""
    if out is None:
        out = np.empty((rows.shape[0], a.shape[0]))
    for i, ai in enumerate(a):
        col = out[:, i]
        np.multiply(rows[:, 0], ai[0], out=col)
        for j in range(1, a.shape[1]):
            col += rows[:, j] * ai[j]
    return out


def real_bilinear(op, a, b):
    """``op(a, b)`` for a bilinear ``op`` of real arrays (``np.matmul``, or
    ``np.vecdot``, which then sums ``a * b`` unconjugated), a complex
    operand split into its real and imaginary parts, each copied in the
    operand's memory order.  So a real operand gives the bits of the real
    part of the result for its complex cast: BLAS's complex kernels sum in
    another order, and so can a sum over strided memory."""
    parts = lambda x: (x.real.copy(order="K"), x.imag.copy(order="K"))
    if np.iscomplexobj(a):
        re, im = parts(a)
        return real_bilinear(op, re, b) + 1j * real_bilinear(op, im, b)
    if np.iscomplexobj(b):
        re, im = parts(b)
        return op(a, re) + 1j * op(a, im)
    return op(a, b)


def as_index(alpha) -> tuple[int, ...]:
    """Coerce to a tuple multi-index and validate non-negativity."""
    t = tuple(int(a) for a in np.atleast_1d(alpha))
    if any(a < 0 for a in t):
        raise ValueError(f"multi-index must be non-negative, got {t}")
    return t


@dataclass(frozen=True)
class Lattice:
    """The integer box ``origin + [0, shape)``; ``len`` counts its points."""

    origin: tuple
    shape: tuple

    def __post_init__(self):
        origin = tuple(int(v) for v in np.atleast_1d(self.origin))
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if not origin or len(origin) != len(shape):
            raise ValueError("lattice origin and shape must have one entry per axis")
        if min(shape) < 1:
            raise ValueError(f"empty lattice: extents {shape} must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "shape", shape)

    @property
    def d(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def points(self) -> np.ndarray:
        """The points as int64 rows ``(len, d)``, last axis fastest."""
        axes = [np.arange(a, a + n) for a, n in zip(self.origin, self.shape)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d)


@dataclass(frozen=True, eq=False)
class Grid:
    """The tensor grid ``axes[0] x ... x axes[d-1]``; ``len`` counts its
    points, and :meth:`points` or ``np.asarray`` gives them as float rows
    ``(len, d)``, last axis fastest."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.array(a, dtype=float).ravel() for a in self.axes)
        if not axes or min(a.size for a in axes) < 1:
            raise ValueError("a grid needs at least one point on every axis")
        if not all(np.isfinite(a).all() for a in axes):
            raise ValueError("grid axes must be finite")
        object.__setattr__(self, "axes", axes)

    @property
    def d(self) -> int:
        return len(self.axes)

    def __len__(self) -> int:
        return math.prod(a.size for a in self.axes)

    def points(self) -> np.ndarray:
        rows = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)
        return rows.reshape(-1, self.d)

    def slab_rows(self, size: int) -> int:
        """Rows along axis 0 per slab of at most ``size`` points (at least
        one row, at most all of them)."""
        n = self.axes[0].size
        return max(1, min(n, size * n // len(self)))

    def slabs(self, rows: int):
        """The sub-grids of ``rows`` whole rows along axis 0 (the last may
        have fewer), in order: ``(start, stop, sub-grid)``, with
        ``start:stop`` its rows of axis 0.  Their axes are views of this
        grid's."""
        n = self.axes[0].size
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            # views of the checked axes, which need neither a copy nor a check
            sub = object.__new__(Grid)
            object.__setattr__(sub, "axes", (self.axes[0][lo:hi],) + self.axes[1:])
            yield lo, hi, sub

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.points(), dtype=dtype)
