"""Deterministic quadrature rules for ball averages.

Gauss-Legendre on the segment, split at kinks; on the d-ball for every
``d >= 2``, one spherical product rule (Stroud, 1971): Gauss-Legendre in
the radius with ``r**(d-1)`` in the weights, the trapezoid rule in the
azimuth, and Gauss-Gegenbauer (Golub-Welsch, 1969) in each polar angle.
The rules on ``[-1, 1]`` are solved once per order (and exponent) and
kept as read-only arrays; a panel's rule is mapped from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class QuadSpec:
    """Parameters of the ball-average quadrature.

    ``order`` is the Gauss point count of the segment (per panel), of the
    radius and of each polar angle; the azimuth takes ``2 * order``
    equispaced angles.  Every rule is exact for polynomials of total
    degree ``2 * order - d`` on the d-ball.
    """

    order: int = 16


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def _legendre(n: int):
    """The ``n``-point Gauss-Legendre rule on ``[-1, 1]``, read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights on ``[a, b]``; weights sum to ``b - a``.

    The rule on ``[-1, 1]`` is solved once per ``n`` (:func:`_legendre`);
    each call maps it onto the panel, into new arrays.
    """
    x, w = _legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@cache
def gauss_gegenbauer(n: int, a: float):
    """Nodes and weights on ``[-1, 1]`` for the weight ``(1 - t**2)**a``,
    by Golub-Welsch on the weight's Jacobi matrix.  Solved once per
    ``(n, a)``: every call returns the same read-only arrays."""
    k = np.arange(1, n)
    off = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a - 1) * (2 * k + 2 * a + 1)))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    return _read_only(t, mass * v[0] ** 2)


def segment_rule(radius: float, quad: QuadSpec, breaks=()):
    """Average-one rule on ``[-radius, radius]``: weights sum to 1.

    ``breaks`` lists interior points (kink locations in the integration
    variable); the segment is split there so each Gauss panel sees a smooth
    integrand.
    """
    cuts = [-radius] + sorted(float(b) for b in breaks if -radius < b < radius) + [radius]
    xs, ws = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x, w = gauss_legendre(quad.order, lo, hi)
        xs.append(x)
        ws.append(w)
    nodes = np.concatenate(xs)
    weights = np.concatenate(ws) / (2.0 * radius)
    return nodes[:, None], weights


def ball_rule(d: int, radius: float, quad: QuadSpec, breaks=()):
    """Average-one rule on the d-ball of given radius: weights sum to 1.

    ``d = 1`` is :func:`segment_rule`.  For ``d >= 2`` the directions
    start as ``2 * order`` angles on the circle; the sphere in ``k``
    dimensions is ``(sqrt(1 - t**2) u, t)`` for ``u`` on the sphere in
    ``k - 1``, with measure ``(1 - t**2)**((k - 3) / 2) dt du``.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    if d == 1:
        return segment_rule(radius, quad, breaks)
    n = 2 * quad.order
    theta = 2.0 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    wdir = np.full_like(theta, 2.0 * np.pi / n)
    for k in range(3, d + 1):
        t, wt = gauss_gegenbauer(quad.order, (k - 3) / 2)
        up = (np.sqrt(1.0 - t**2)[:, None, None] * dirs).reshape(-1, k - 1)
        dirs = np.column_stack([up, np.repeat(t, len(dirs))])
        wdir = np.outer(wt, wdir).ravel()
    r, wr = gauss_legendre(quad.order, 0.0, radius)
    nodes = (r[:, None, None] * dirs).reshape(-1, d)
    weights = np.outer(wr * r ** (d - 1), wdir).ravel()
    return nodes, weights / (math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d)
