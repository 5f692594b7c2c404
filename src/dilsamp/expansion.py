"""Sampling expansions: coefficients, lattice support, evaluation.

At level ``j`` the expansion of a signal ``f`` reads

    Q_j f(x) = sum_k c_k phi(M^j x - k)

with one coefficient per lattice point ``k``.  Three coefficient rules are
provided:

* exact sampling: ``c_k = f(M^-j k)``;
* differential sampling: ``c_k`` is a differential operator applied to the
  rescaled signal (see :mod:`dilsamp.diffop`);
* falsified (ball-averaged) sampling: ``c_k`` is the average of ``f`` over
  the image under ``M^-j`` of the radius-``h`` ball centered at ``k``,
  computed in pulled-back coordinates so no ellipsoid geometry is needed:
  ``c_k = (1/V_h) integral_{|t|<=h} f(M^-j k + M^-j t) dt``.

The deviation of the falsified rule from its differential counterpart with
the matching ball-moment operator decays one order faster than the operator
window, which is what makes ball averages usable in place of derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from ._arrays import as_points
from ._quadrature import QuadSpec, ball_rule
from .diffop import DiffOperator, apply_to_signal_many
from .dilation import Dilation
from .generators import Generator

_CHUNK = 1 << 17
_EDGE = 1e-9


class MissingCoefficientError(KeyError):
    """A lattice point needed by evaluation has no coefficient."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the evaluation domain of an expansion."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    @staticmethod
    def centered(halfwidth: float, d: int) -> "Box":
        return Box((-halfwidth,) * d, (halfwidth,) * d)

    def corners(self) -> np.ndarray:
        cs = list(product(*zip(self.lo, self.hi)))
        return np.asarray(cs, dtype=float)


@dataclass(frozen=True)
class ExactRule:
    """Point samples of the signal."""


@dataclass(frozen=True)
class DifferentialRule:
    """Differential operator applied to the rescaled signal."""

    operator: DiffOperator


@dataclass(frozen=True)
class FalsifiedRule:
    """Ball averages of radius ``h`` (in lattice coordinates)."""

    h: float
    quad: QuadSpec = QuadSpec()

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("averaging radius must be positive")


CoefficientRule = Union[ExactRule, DifferentialRule, FalsifiedRule]


# ---------------------------------------------------------------------------
# ball averages


def ball_average(f, center, radius: float, quad: QuadSpec = QuadSpec()) -> complex:
    """Average of ``f`` over the ball of given center and radius.

    Deterministic quadrature in dimensions 1 and 2 (Gauss-Legendre and a
    polar product rule), fixed-seed Monte Carlo beyond.  A one-point call
    into :func:`_pullback_average`: in dimension 1 the segment rule is
    split at the signal's declared kinks strictly inside the ball.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    return _pullback_average(
        f, center[None, :], np.eye(center.size), radius, quad
    )[0]


def _pullback_average(f, bases: np.ndarray, a: np.ndarray, h: float, quad: QuadSpec):
    """Averages ``(1/V_h) integral_{|t|<=h} f(base + A t) dt`` for each base.

    One vectorized pass applies the unsplit rule to every base, in chunks.
    In dimension 1 the signal's declared kinks then sit at the offsets
    ``t = (x0 - base) / A``; only the bases with such an offset strictly
    inside ``(-h, h)`` are recomputed with the segment rule split there,
    the same strict test :func:`segment_rule` applies.  That correction
    touches at most ``floor(2h) + 1`` bases per kink.
    """
    d = bases.shape[1]
    nodes, weights = ball_rule(d, h, quad)
    mapped = nodes @ a.T
    out = np.empty(bases.shape[0], dtype=complex)
    step = max(1, _CHUNK // max(1, len(weights)))
    for lo in range(0, bases.shape[0], step):
        chunk = bases[lo : lo + step]
        pts = chunk[:, None, :] + mapped[None, :, :]
        vals = np.asarray(f.eval(pts))
        out[lo : lo + step] = vals @ weights
    kinks = tuple(getattr(f, "kinks", ()) or ())
    if kinks and d == 1:
        scale = float(a[0, 0])
        breaks = (np.asarray(kinks, dtype=float) - bases) / scale
        inside = np.any((-h < breaks) & (breaks < h), axis=1)
        for i in np.flatnonzero(inside):
            split_nodes, split_weights = ball_rule(1, h, quad, breaks=breaks[i])
            pts = bases[i, 0] + split_nodes * scale
            out[i] = np.asarray(f.eval(pts)) @ split_weights
    return out


# ---------------------------------------------------------------------------
# lattice support and coefficients


def _box_points(origin, shape) -> np.ndarray:
    """Points ``(n, d)`` of the integer box ``origin + [0, shape)``, last axis fastest."""
    axes = [np.arange(a, a + n) for a, n in zip(origin, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _image_box(m: Dilation, j: int, domain: Box, reach: float) -> np.ndarray:
    """Points of the integer box around ``M^j domain`` widened by ``reach``."""
    y = domain.corners() @ np.asarray(m.power(j), dtype=float).T
    lo = np.ceil(y.min(axis=0) - reach - _EDGE).astype(np.int64)
    hi = np.floor(y.max(axis=0) + reach + _EDGE).astype(np.int64)
    return _box_points(lo, hi - lo + 1)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Coefficients ``c_k`` on the integer box ``origin + [0, values.shape)``.

    ``values[i]`` is the coefficient of lattice point ``origin + i``.
    ``len`` counts the coefficients and ``np.asarray`` gives ``values``.
    """

    origin: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


def lattice_support(
    g: Generator,
    m: Dilation,
    j: int,
    domain: Box,
    truncation_tol: float = 1e-10,
) -> np.ndarray:
    """Integer lattice points whose translated generator matters on ``domain``.

    The points form a full box, listed with the last axis fastest.  For
    compactly supported generators this is a superset of every ``k``
    with ``supp phi(M^j . - k)`` meeting the domain (a thin boundary layer
    of vanishing terms may be included, which leaves the truncated sum
    exact).  For unbounded generators the per-coordinate reach ``R`` is
    chosen so each omitted term is below ``truncation_tol`` in magnitude:
    the catalog decay ``|phi| <= decay_const / x**2`` per coordinate gives
    ``R = sqrt(decay_const / truncation_tol)``.
    """
    if domain.d != g.d:
        raise ValueError("domain dimension does not match the generator")
    reach = g.support_radius
    if reach is None:
        if truncation_tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        reach = math.sqrt(g.decay_const / truncation_tol)
    return _image_box(m, j, domain, reach)


def coefficients(rule: CoefficientRule, f, m: Dilation, j: int, lattice) -> Coefficients:
    """Coefficients of the given rule on a full lattice box.

    ``lattice`` is an integer array ``(n, d)`` listing a full box in
    :func:`lattice_support` order; any other (or empty) lattice raises
    ``ValueError``.  The signal dimension, operator dimension and dilation
    must agree.
    """
    ks = np.asarray(lattice).reshape(-1, m.d)
    if ks.shape[0] == 0:
        raise ValueError("empty lattice")
    origin = ks.min(axis=0).astype(np.int64)
    shape = tuple(int(n) for n in ks.max(axis=0) - origin + 1)
    if len(ks) != math.prod(shape) or not np.array_equal(ks, _box_points(origin, shape)):
        raise ValueError("lattice is not a full box in lattice_support order")
    a = np.asarray(m.power(-j), dtype=float)
    bases = ks @ a.T
    if isinstance(rule, ExactRule):
        vals = np.asarray(f.eval(bases), dtype=complex)
    elif isinstance(rule, DifferentialRule):
        if rule.operator.d != m.d:
            raise ValueError("operator dimension does not match the dilation")
        vals = apply_to_signal_many(rule.operator, f, m, j, ks)
    elif isinstance(rule, FalsifiedRule):
        vals = _pullback_average(f, bases, a, rule.h, rule.quad)
    else:
        raise TypeError(f"unknown coefficient rule {rule!r}")
    return Coefficients(origin, vals.reshape(shape))


def deviation(
    f, op: DiffOperator, m: Dilation, j: int, k, h: float, quad: QuadSpec = QuadSpec()
) -> complex:
    """Ball-averaged minus differential coefficient at one lattice point.

    Decays like ``scale(j)**(order + 1)`` for signals with bounded
    derivatives of total order ``order + 1``.  A one-point call into
    :func:`deviation_many`.
    """
    return complex(deviation_many(f, op, m, j, [k], h, quad)[0])


def deviation_many(
    f, op: DiffOperator, m: Dilation, j: int, lattice, h: float,
    quad: QuadSpec = QuadSpec(),
) -> np.ndarray:
    """Vectorized :func:`deviation` over a lattice array ``(n, d)``."""
    ks = np.asarray(lattice).reshape(-1, op.d)
    a = np.asarray(m.power(-j), dtype=float)
    avg = _pullback_average(f, ks @ a.T, a, h, quad)
    return avg - apply_to_signal_many(op, f, m, j, ks)


# ---------------------------------------------------------------------------
# evaluation


def _point_rows(points, d: int) -> np.ndarray:
    """Evaluation points as rows ``(n, d)``; scalars allowed when ``d == 1``."""
    return np.asarray(as_points(points, d), dtype=float).reshape(-1, d)


def evaluate(g: Generator, m: Dilation, j: int, cs: Coefficients, points) -> np.ndarray:
    """Evaluate ``sum_k c_k phi(M^j x - k)`` at the given points.

    Every lattice point whose generator translate is nonzero at some
    evaluation point must lie in the coefficient box
    (:class:`MissingCoefficientError` otherwise).  For unbounded generators
    the whole box is summed; build it from :func:`lattice_support` so the
    omitted tail is below the truncation tolerance.
    """
    pts = _point_rows(points, g.d)
    if cs.origin.size != g.d:
        raise ValueError("coefficient box dimension does not match the generator")
    mj = np.asarray(m.power(j), dtype=float)
    part = _evaluate_full if g.support_radius is None else _evaluate_compact
    out = np.empty(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], _CHUNK):
        out[lo : lo + _CHUNK] = part(g, pts[lo : lo + _CHUNK] @ mj.T, cs)
    return out


def _evaluate_compact(g, y, cs: Coefficients):
    r = g.support_radius
    width = int(math.floor(2 * r + 2 * _EDGE)) + 1
    k0 = np.ceil(y - r - _EDGE).astype(np.int64)
    acc = np.zeros(y.shape[0], dtype=complex)
    kmax = cs.origin + np.asarray(cs.values.shape) - 1
    for off in product(range(width), repeat=g.d):
        k = k0 + np.asarray(off, dtype=np.int64)
        phi = np.asarray(g.spatial(y - k))
        live = phi != 0
        if not np.any(live):
            continue
        inside = np.all((k >= cs.origin) & (k <= kmax), axis=1)
        bad = live & ~inside
        if np.any(bad):
            missing = k[bad.argmax()]
            raise MissingCoefficientError(
                f"no coefficient for lattice point {tuple(missing)}"
            )
        sel = tuple(np.where(inside[:, None], k - cs.origin, 0).T)
        acc += np.where(inside, cs.values[sel], 0.0) * phi
    return acc


def _evaluate_full(g, y, cs: Coefficients):
    ks = _box_points(cs.origin, cs.values.shape)
    acc = np.zeros(y.shape[0], dtype=complex)
    step = max(1, _CHUNK // max(1, ks.shape[0]))
    for lo in range(0, y.shape[0], step):
        yc = y[lo : lo + step]
        phi = np.asarray(g.spatial(yc[:, None, :] - ks[None, :, :]))
        acc[lo : lo + step] = phi @ cs.values.ravel()
    return acc


@dataclass(frozen=True)
class ExpansionResult:
    """One evaluated expansion at one level.

    ``lattice`` holds the :func:`lattice_support` box points,
    ``coefficients`` the :class:`Coefficients` on that box, and ``points``
    the evaluation points as rows ``(n, d)``.
    """

    level: int
    lattice: np.ndarray
    coefficients: Coefficients
    points: np.ndarray
    values: np.ndarray


def expand(
    g: Generator,
    m: Dilation,
    j: int,
    rule: CoefficientRule,
    f,
    domain: Box,
    points,
    truncation_tol: float = 1e-10,
) -> ExpansionResult:
    """Convenience wrapper: lattice support, coefficients, evaluation."""
    lat = lattice_support(g, m, j, domain, truncation_tol)
    cs = coefficients(rule, f, m, j, lat)
    pts = _point_rows(points, g.d)
    vals = evaluate(g, m, j, cs, pts)
    return ExpansionResult(j, lat, cs, pts, vals)

