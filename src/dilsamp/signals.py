"""Test signals with derivative oracles.

Each signal carries vectorized evaluation, exact derivatives where they
exist, and the metadata the rate predictions need: the admissible spectral
decay pair ``(decay_N, decay_eps)``, an effective support halfwidth
``T0`` outside of which the signal is below 1e-12, and, where ``T0`` is
finite, a tail majorant that bounds it everywhere.

Kinked signals record their kink locations so quadratures can split there
and studies can keep the kink off the sampling lattice via ``offset``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import hermite as _herm

from ._arrays import Grid, as_points
from .multiindex import as_index, factorial, monomial


@dataclass(frozen=True)
class Signal:
    """A test signal: evaluation, derivatives, decay and support metadata.

    ``deriv_order`` is the largest total order with a everywhere-defined
    derivative (None means unlimited).  ``decay_N`` and ``decay_eps``
    describe the admissible spectral decay: the transform is
    ``O(|xi|**-(decay_N + d + decay_eps))``; ``decay_eps = inf`` means every
    pair is admissible (super-polynomial decay).  ``factor`` is the 1-d
    function with ``f(x) = prod_i factor(x_i)``, or None if there is none;
    the counterpart of a generator's one rank-1 term in
    :attr:`Generator.terms`.  ``pointwise`` evaluates points ``(..., d)``;
    :meth:`eval` also takes a :class:`Grid`.  ``tail`` is a non-increasing,
    log-concave function on ``t >= 0`` with ``|f(x)| <= prod_i
    tail(|x_i|)`` everywhere, or None; it limits an unbounded generator's
    coefficient box (:func:`dilsamp.expansion.tail_coefficients`).
    """

    name: str
    d: int
    pointwise: Callable
    derivative: Callable
    deriv_order: Optional[int]
    decay_N: int
    decay_eps: float
    T0: float
    kinks: tuple = ()
    factor: Optional[Callable] = None
    tail: Optional[Callable] = None

    def eval(self, x):
        """Values at points ``(..., d)``, or on a :class:`Grid` in
        :meth:`Grid.points` order: with a ``factor``, the outer product of
        its values on the axes, otherwise ``pointwise`` on the grid's rows."""
        if not isinstance(x, Grid):
            return self.pointwise(x)
        return self.on_grid(x)[0](tuple(slice(None) for _ in x.axes))

    def on_grid(self, grid: Grid):
        """:meth:`eval` on sub-boxes of ``grid``: ``(values, axes)``.

        ``axes`` holds the per-axis values, formed here once: the factor's
        on every axis, or a 1-d signal's own values; None for a signal of
        ``d >= 2`` without a factor.  ``values(box)``, ``box`` one slice per
        axis, gives the values at the sub-grid ``grid.axes[i][box[i]]`` in
        :meth:`Grid.points` order, with :meth:`eval`'s bits (the outer
        product of ``axes``, or ``pointwise`` on the sub-grid's rows), in
        one buffer that the next call overwrites."""
        if grid.d != self.d:
            raise ValueError(f"grid of dimension {grid.d}, expected {self.d}")
        if self.factor is None and self.d > 1:
            rows = lambda box: Grid([x[s] for x, s in zip(grid.axes, box)]).points()
            return (lambda box: self.pointwise(rows(box))), None
        axes = ([self.factor(x) for x in grid.axes] if self.factor is not None
                else [self.pointwise(grid.axes[0][:, None])])
        buf = [np.empty(0)]

        def values(box):
            parts = [v[s] for v, s in zip(axes, box)]
            size = math.prod(map(len, parts))
            if buf[0].size < size:
                buf[0] = np.empty(size, dtype=np.result_type(*parts))
            out = buf[0][:size].reshape(tuple(map(len, parts)))
            if len(parts) == 1:
                out[...] = parts[0]
            else:
                np.multiply.outer(reduce(np.multiply.outer, parts[:-1]), parts[-1], out=out)
            return out.ravel()

        return values, axes

    def __call__(self, x):
        return self.eval(as_points(x, self.d))


def _hermite_value(n: int, y: np.ndarray) -> np.ndarray:
    coeffs = [0.0] * n + [1.0]
    return _herm.hermval(y, coeffs)


def gaussian(d: int = 1) -> Signal:
    """``exp(-pi |x|^2)`` with closed-form derivatives up to total order 6.

    On a :class:`Grid` the value is the product of the per-axis factors
    ``exp(-pi * (t * t))``: bit for bit the rows' value in 1-d, and within
    ``4 * (1 + pi |x|^2)`` ulps of it in higher dimensions, since ``exp``
    turns the rounding of its argument into a relative error that size.
    The factor is also the tail majorant.
    """

    def _factor(t):
        return np.exp(-np.pi * (t * t))

    def _eval(x):
        pts = as_points(x, d)
        return np.exp(-np.pi * np.sum(pts * pts, axis=-1))

    def _derivative(alpha, x):
        a = as_index(alpha)
        if len(a) != d:
            raise ValueError(f"index length {len(a)} != dimension {d}")
        if sum(a) > 6:
            raise ValueError("gaussian derivatives supported up to total order 6")
        pts = as_points(x, d)
        out = np.ones(pts.shape[:-1], dtype=float)
        rt = math.sqrt(math.pi)
        for i, ai in enumerate(a):
            xi = pts[..., i]
            g = np.exp(-np.pi * xi * xi)
            if ai == 0:
                out = out * g
            else:
                out = out * ((-rt) ** ai * _hermite_value(ai, rt * xi) * g)
        return out

    return Signal(
        name="gaussian",
        d=d,
        pointwise=_eval,
        derivative=_derivative,
        deriv_order=None,
        decay_N=0,
        decay_eps=math.inf,
        T0=3.2,
        kinks=(),
        factor=_factor,
        tail=_factor,
    )


_KINK_EPS = 1e-12


def _check_no_kink(u: np.ndarray, what: str):
    if np.any(np.abs(u) < _KINK_EPS):
        raise ValueError(f"{what} undefined at the kink")


def laplace1d(offset: float = 0.0) -> Signal:
    """``exp(-|x - offset|)`` on the line; not differentiable at the kink.

    The transform decays like ``|xi|**-2`` so the admissible pair is
    ``decay_N = 0`` with ``decay_eps`` up to 1.  The tail majorant is
    ``exp(-u)``, ``u = max(t - |offset|, 0)``.
    """

    def _eval(x):
        pts = as_points(x, 1)
        return np.exp(-np.abs(pts[..., 0] - offset))

    def _derivative(alpha, x):
        (n,) = as_index(alpha)
        pts = as_points(x, 1)
        u = pts[..., 0] - offset
        if n == 0:
            return np.exp(-np.abs(u))
        _check_no_kink(u, f"derivative of order {n}")
        return np.where(u > 0, (-1.0) ** n, 1.0) * np.exp(-np.abs(u))

    return Signal(
        name="laplace1d",
        d=1,
        pointwise=_eval,
        derivative=_derivative,
        deriv_order=0,
        decay_N=0,
        decay_eps=1.0,
        T0=28.0 + abs(offset),
        kinks=(offset,),
        tail=lambda t: np.exp(-np.maximum(t - abs(offset), 0.0)),
    )


def matern1d(offset: float = 0.0) -> Signal:
    """``(1 + |x - offset|) exp(-|x - offset|)``: twice differentiable.

    Third derivatives jump at the kink; the transform is
    ``4 / (1 + 4 pi^2 xi^2)**2``, so ``decay_N = 2`` with ``decay_eps``
    up to 1.  The tail majorant is ``(1 + u) exp(-u)``, ``u = max(t -
    |offset|, 0)``; it reaches 1e-12 at ``u = 31.0999``.
    """

    def _tail(t):
        u = np.maximum(t - abs(offset), 0.0)
        return (1.0 + u) * np.exp(-u)

    def _eval(x):
        pts = as_points(x, 1)
        u = np.abs(pts[..., 0] - offset)
        return (1.0 + u) * np.exp(-u)

    def _derivative(alpha, x):
        (n,) = as_index(alpha)
        pts = as_points(x, 1)
        u = pts[..., 0] - offset
        au = np.abs(u)
        e = np.exp(-au)
        if n == 0:
            return (1.0 + au) * e
        if n == 1:
            return -u * e
        if n == 2:
            return (au - 1.0) * e
        _check_no_kink(u, f"derivative of order {n}")
        s = np.sign(u)
        if n == 3:
            return s * (2.0 - au) * e
        if n == 4:
            return (au - 3.0) * e
        raise ValueError("derivatives above order 4 are not provided")

    return Signal(
        name="matern1d",
        d=1,
        pointwise=_eval,
        derivative=_derivative,
        deriv_order=2,
        decay_N=2,
        decay_eps=1.0,
        T0=31.1 + abs(offset),
        kinks=(offset,),
        tail=_tail,
    )


def polynomial(d: int, coeffs: dict) -> Signal:
    """Exact polynomial signal from ``exponent tuple -> coefficient``; its
    values are real when every coefficient is, complex otherwise."""
    table = {as_index(k): complex(v) for k, v in coeffs.items()}
    table = {k: c if c.imag else c.real for k, c in table.items()}
    if any(len(k) != d for k in table):
        raise ValueError("exponent length mismatch")

    def _eval(x):
        pts = as_points(x, d)
        out = np.zeros(pts.shape[:-1])
        for k, c in table.items():
            out = out + c * monomial(pts, k)
        return out

    def _derivative(alpha, x):
        a = as_index(alpha)
        pts = as_points(x, d)
        out = np.zeros(pts.shape[:-1])
        for k, c in table.items():
            if any(ki < ai for ki, ai in zip(k, a)):
                continue
            shifted = tuple(ki - ai for ki, ai in zip(k, a))
            fac = factorial(k) / factorial(shifted)
            out = out + c * fac * monomial(pts, shifted)
        return out

    return Signal(
        name="polynomial",
        d=d,
        pointwise=_eval,
        derivative=_derivative,
        deriv_order=None,
        decay_N=0,
        decay_eps=math.inf,
        T0=math.inf,
        kinks=(),
    )


named_signals = {
    "gaussian": gaussian,
    "laplace1d": laplace1d,
    "matern1d": matern1d,
}
