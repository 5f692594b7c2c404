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
from functools import reduce
from itertools import product
from typing import Union

import numpy as np

from ._arrays import Grid, Lattice, as_rows, map_rows
from ._quadrature import QuadSpec, ball_rule
from .diffop import DiffOperator, apply_to_signal
from .dilation import Dilation
from .generators import Generator

_CHUNK = 1 << 17
# Terms per tile of an unbounded generator's sum.  With tiles of 2**14 to
# 2**17 terms glibc returned the temporaries and faulted them in again on
# some spans, every tile; 2**13 did not on any span measured.
_TILE = 1 << 13
# Points per chunk of the general kernel, which keeps per-axis tables of
# width x chunk entries; on a shared 2-vCPU host 2**15 ran quincunx level 7
# in 0.13 s, 2**17 in 0.22 s.
_ROWS = 1 << 15
_EDGE = 1e-9
# Mapped coordinates stay below this, so that lattice indices are exact int64.
_REACH = 2.0**62


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
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"box bounds must be finite, got lo={lo}, hi={hi}")
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


def ball_average(f, centers, radius: float, quad: QuadSpec = QuadSpec()) -> np.ndarray:
    """Averages of ``f`` over the balls of given centers and radius.

    ``centers`` is one point or rows ``(n, d)``; the result has one entry
    per center.  The quadrature (:func:`ball_rule`) is deterministic and
    exact for polynomials of degree ``2 * quad.order - d``; in dimension 1
    it is split at the signal's declared kinks strictly inside a ball (see
    :func:`_pullback_average`).
    """
    return _pullback_average(f, as_rows(centers, f.d), np.eye(f.d), radius, quad)


def _pullback_average(f, bases, a: np.ndarray, h: float, quad: QuadSpec):
    """Averages ``(1/V_h) integral_{|t|<=h} f(base + A t) dt`` for each base.

    ``bases`` is rows ``(n, d)`` or a :class:`Grid` (values in
    :meth:`Grid.points` order).  On a grid in ``d >= 2``, for a signal with
    a per-axis ``factor``, the rule runs per axis (:func:`_average_axes`);
    it agrees with the rows to ``1e-13 * max|c|``.  Otherwise one
    vectorized pass applies the unsplit rule to every base, in chunks.
    In dimension 1 the signal's declared kinks then sit at the offsets
    ``t = (x0 - base) / A``; only the bases with such an offset strictly
    inside ``(-h, h)`` are recomputed with the segment rule split there,
    the same strict test :func:`segment_rule` applies.  That correction
    touches at most ``floor(2h) + 1`` bases per kink.  Each row's sum is
    reduced on its own (``np.vecdot``), so its value does not depend on
    the other bases in the call.
    """
    d = a.shape[0]
    nodes, weights = ball_rule(d, h, quad)
    mapped = nodes @ a.T
    if isinstance(bases, Grid):
        if d >= 2 and getattr(f, "factor", None) is not None:
            return _average_axes(f.factor, bases, mapped, weights)
        bases = bases.points()
    out = np.empty(bases.shape[0], dtype=complex)
    step = max(1, _CHUNK // max(1, len(weights)))
    for lo in range(0, bases.shape[0], step):
        chunk = bases[lo : lo + step]
        pts = chunk[:, None, :] + mapped[None, :, :]
        vals = np.asarray(f.eval(pts))
        out[lo : lo + step] = np.vecdot(weights, vals)
    kinks = tuple(getattr(f, "kinks", ()) or ())
    if kinks and d == 1:
        scale = float(a[0, 0])
        breaks = (np.asarray(kinks, dtype=float) - bases) / scale
        inside = np.any((-h < breaks) & (breaks < h), axis=1)
        for i in np.flatnonzero(inside):
            split_nodes, split_weights = ball_rule(1, h, quad, breaks=breaks[i])
            pts = bases[i, 0] + split_nodes * scale
            out[i] = np.vecdot(split_weights, np.asarray(f.eval(pts)))
    return out


def _average_axes(factor, bases: Grid, mapped: np.ndarray, weights: np.ndarray):
    """The rule's sums ``sum_n w_n prod_i factor(b_i + mapped[n, i])`` on a
    grid of bases: one table ``(L_i, N)`` of factor values per axis, then,
    per tile of at most ``_CHUNK`` products, the weighted product of the
    leading axes' rows times the last axis's table (one matmul)."""
    tables = [factor(x[:, None] + mapped[:, i]) for i, x in enumerate(bases.axes)]
    last = tables.pop().T
    lead = tuple(len(x) for x in bases.axes[:-1])
    rows = math.prod(lead)
    out = np.empty((rows, last.shape[1]), dtype=complex)
    step = max(1, _CHUNK // len(weights))
    for lo in range(0, rows, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, rows)), lead)
        acc = weights * tables[0][idx[0]]
        for t, i in zip(tables[1:], idx[1:]):
            acc *= t[i]
        out[lo : lo + step] = acc @ last
    return out.ravel()


# ---------------------------------------------------------------------------
# lattice support and coefficients


def _image_box(m: Dilation, j: int, domain: Box, reach: float) -> Lattice:
    """The integer box around ``M^j domain`` widened by ``reach``."""
    y = domain.corners() @ np.asarray(m.power(j), dtype=float).T
    lo = np.ceil(y.min(axis=0) - reach - _EDGE)
    hi = np.floor(y.max(axis=0) + reach + _EDGE)
    if not np.all((-_REACH < lo) & (hi < _REACH)):
        raise ValueError("the lattice box reaches |k| >= 2**62, where indices are inexact")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    return Lattice(lo, hi - lo + 1)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Coefficients ``c_k`` on a lattice box.

    ``values`` is shaped like the box, and ``values[i]`` is the
    coefficient of lattice point ``lattice.origin + i``.  ``len`` counts
    the coefficients and ``np.asarray`` gives ``values``.
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(self.lattice.shape)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.lattice)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


def lattice_support(
    g: Generator,
    m: Dilation,
    j: int,
    domain: Box,
    truncation_tol: float = 1e-10,
) -> Lattice:
    """The integer lattice box whose translated generators matter on ``domain``.

    For compactly supported generators this is a superset of every ``k``
    with ``supp phi(M^j . - k)`` meeting the domain (a thin boundary layer
    of vanishing terms may be included, which leaves the truncated sum
    exact).  For unbounded generators the reach per coordinate is
    ``R = sqrt(decay_const / truncation_tol)``: by ``|phi| <= decay_const /
    x**2``, each omitted translate has ``|phi| <= truncation_tol`` on the
    domain.  That bounds neither its term ``c_k phi`` nor the omitted sum,
    about ``2 * decay_const * max|c_k| / R`` (6e-6 for ``sinc_squared`` at 1e-10).
    """
    if domain.d != g.d:
        raise ValueError("domain dimension does not match the generator")
    reach = g.support_radius
    if reach is None:
        if truncation_tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        reach = math.sqrt(g.decay_const / truncation_tol)
    return _image_box(m, j, domain, reach)


def coefficients(
    rule: CoefficientRule, f, m: Dilation, j: int, lattice: Lattice
) -> Coefficients:
    """Coefficients of the given rule on a lattice box.

    The lattice, signal and operator dimensions must match the dilation.
    When ``M^-j`` is diagonal the ball centers ``M^-j k`` form a tensor
    grid, and ball averages of a signal with a per-axis ``factor`` in
    ``d >= 2`` run per axis (:func:`_pullback_average`): within
    ``1e-13 * max|c_k|`` of the rows' values.  Every other case averages
    row by row.
    """
    if lattice.d != m.d:
        raise ValueError("lattice dimension does not match the dilation")
    a = np.asarray(m.power(-j), dtype=float)
    if isinstance(rule, ExactRule):
        vals = np.asarray(f.eval(map_rows(lattice.points(), a)), dtype=complex)
    elif isinstance(rule, DifferentialRule):
        if rule.operator.d != m.d:
            raise ValueError("operator dimension does not match the dilation")
        vals = apply_to_signal(rule.operator, f, m, j, lattice.points())
    elif isinstance(rule, FalsifiedRule):
        if np.array_equal(a, np.diag(a.diagonal())):
            bases = Grid([s * np.arange(o, o + n) for s, o, n in
                          zip(a.diagonal(), lattice.origin, lattice.shape)])
        else:
            bases = map_rows(lattice.points(), a)
        vals = _pullback_average(f, bases, a, rule.h, rule.quad)
    else:
        raise TypeError(f"unknown coefficient rule {rule!r}")
    return Coefficients(lattice, vals)


def deviation(
    f, op: DiffOperator, m: Dilation, j: int, ks, h: float, quad: QuadSpec = QuadSpec()
) -> np.ndarray:
    """Ball-averaged minus differential coefficients at lattice points ``ks``.

    ``ks`` is one point or rows ``(n, d)``; the result has one entry per
    point.  Decays like ``scale(j)**(order + 1)`` for signals with bounded
    derivatives of total order ``order + 1``.
    """
    ks = as_rows(ks, op.d)
    a = np.asarray(m.power(-j), dtype=float)
    avg = _pullback_average(f, map_rows(ks, a), a, h, quad)
    return avg - apply_to_signal(op, f, m, j, ks)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g: Generator, m: Dilation, j: int, cs: Coefficients, points) -> np.ndarray:
    """Evaluate ``sum_k c_k phi(M^j x - k)`` at the given points.

    ``points`` is one point, rows ``(n, d)`` or a :class:`Grid` (values in
    :meth:`Grid.points` order).  Two kernels serve every generator: on a
    tensor grid (a ``Grid``, or any points in 1-d) with ``M^j`` diagonal,
    each of ``g.terms`` is summed along each axis of the coefficient box
    in turn, and the terms are added in order; otherwise each point takes
    the ``d``-fold product of the taps.  The two agree to
    ``1e-14 * max|c_k|`` per point, and a one-point call gives its row's
    bits.

    A compact generator taps the lattice points within its support radius
    of each mapped point, one tap at a time; those it reaches must lie in
    the box (:class:`MissingCoefficientError` otherwise).  The general
    kernel forms each tap's value from per-axis tables of each term's
    factors, multiplied in axis order and summed in term order as
    ``g.spatial`` does, so both give the same bits.  An unbounded generator
    taps, per axis, the span of the nonzero coefficients, the same for
    every point, and sums it in tiles of at most ``_TILE`` terms (points
    times taps); the terms left out are zeros, so this is the whole
    :func:`lattice_support` box up to summation order.

    Points must be finite, and ``|M^j x|`` below ``2**62`` in every
    coordinate, so that lattice indices are exact integers
    (``ValueError`` before any tap otherwise).
    """
    if cs.lattice.d != g.d:
        raise ValueError("box dimension does not match the generator")
    points = _checked_points(points, g.d)
    mj = np.asarray(m.power(j), dtype=float)
    if g.support_radius is None:
        cs = _nonzero_span(cs)
    if np.array_equal(mj, np.diag(mj.diagonal())):
        if g.d == 1 and not isinstance(points, Grid):
            points = Grid(points.T)
        if isinstance(points, Grid):
            axes = [s * x for s, x in zip(mj.diagonal(), points.axes)]
            for y in axes:
                _check_reach(y)
            return _evaluate_axes(g, axes, cs)
    pts = as_rows(points, g.d)
    # |M^j| max|x| bounds every mapped coordinate; map the rows only past it
    if np.any(np.abs(mj) @ np.maximum(-pts.min(axis=0), pts.max(axis=0)) >= _REACH):
        for lo in range(0, pts.shape[0], _ROWS):
            _check_reach(map_rows(pts[lo : lo + _ROWS], mj))
    out = np.empty(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], _ROWS):
        out[lo : lo + _ROWS] = _evaluate_rows(g, map_rows(pts[lo : lo + _ROWS], mj), cs)
    return out


def _nonzero_span(cs: Coefficients) -> Coefficients:
    """The smallest box of the nonzero coefficients (one zero if none)."""
    vals = cs.values
    nz = np.argwhere(vals != 0) if vals.any() else np.zeros((1, vals.ndim), int)
    first, stop = nz.min(axis=0), nz.max(axis=0) + 1
    return Coefficients(Lattice(np.add(cs.lattice.origin, first), stop - first),
                        vals[tuple(map(slice, first, stop))])


def _checked_points(points, d: int):
    """A ``d``-dimensional :class:`Grid`, or the points as finite rows."""
    if isinstance(points, Grid):
        if points.d != d:
            raise ValueError("grid dimension does not match the generator")
        return points
    rows = as_rows(points, d)
    if not np.isfinite(rows).all():
        raise ValueError("evaluation points must be finite")
    return rows


def _check_reach(y):
    """Raise unless every mapped coordinate lies in ``(-2**62, 2**62)``."""
    if not np.all(np.abs(y) < _REACH):
        raise ValueError("evaluation points map beyond |M^j x| < 2**62, "
                         "where lattice indices stay exact")


def _span_sum(phi, y, ks, c):
    """``sum_i c[..., 0, i] phi(y - ks[i])`` for each ``y``: ``phi`` is formed
    in tiles of at most ``_TILE`` terms, and each ``y`` is reduced on its
    own (``np.vecdot``, tap tiles in order)."""
    c, width = np.conj(c), min(len(ks), _TILE)
    step = _TILE // width
    out = np.zeros(c.shape[:-2] + (len(y),), dtype=complex)
    for lo, k in product(range(0, len(y), step), range(0, len(ks), width)):
        tile = phi(y[lo : lo + step, None] - ks[k : k + width])
        out[..., lo : lo + step] += np.vecdot(c[..., k : k + width], tile)
    return out


def _taps(g, y):
    """The translates that may reach ``y``: ``k0 + t`` for ``0 <= t < width``."""
    r = g.support_radius
    width = int(math.floor(2 * r + 2 * _EDGE)) + 1
    return np.ceil(y - r - _EDGE).astype(np.int64), width


def _live(phi, inside, k, what):
    """Whether the tap reaches any lattice point (``phi != 0``); raises if
    one outside the box does.  ``k()`` gives the tap's lattice points, and
    is called only to name the missing one."""
    live = phi != 0
    if not np.any(live):
        return False
    if np.any(live & ~inside):
        missing = what.format(k()[live & ~inside][0])
        raise MissingCoefficientError(f"no coefficient for {missing}")
    return True


def _evaluate_axes(g, axes, cs: Coefficients):
    """The sum of :func:`_evaluate_rows` along one axis of the coefficient
    box at a time, once per term of ``g`` with its factors in place of
    ``phi``, the terms added in order; ``axes`` are the mapped grid axes."""
    return reduce(np.add, (_term_axes(g, factors, axes, cs) for factors in g.terms))


def _term_axes(g, factors, axes, cs: Coefficients):
    vals = cs.values
    for a, (factor, y, lo) in enumerate(zip(factors, axes, cs.lattice.origin)):
        if g.support_radius is None:
            c = np.moveaxis(vals, a, -1)[..., None, :]
            ks = lo + np.arange(vals.shape[a])
            vals = np.moveaxis(_span_sum(factor, y, ks, c), -1, a)
            continue
        k0, width = _taps(g, y)
        acc = np.zeros(vals.shape[:a] + y.shape + vals.shape[a + 1 :], dtype=complex)
        for t in range(width):
            k = k0 + t
            phi = np.asarray(factor(y - k))
            inside = (k >= lo) & (k < lo + vals.shape[a])
            if _live(phi, inside, lambda: k, f"lattice coordinate [{{}}] on axis {a}"):
                term = np.take(vals, np.where(inside, k - lo, 0), axis=a)
                term *= np.where(inside, phi, 0).reshape((-1,) + (1,) * (len(axes) - a - 1))
                acc += term
        vals = acc
    return vals.ravel()


def _evaluate_rows(g, y, cs: Coefficients):
    if g.support_radius is None:
        return _span_sum(g.spatial, y, cs.lattice.points(), cs.values.reshape(1, -1))
    k0, width = _taps(g, y)
    # per axis, one row per tap t for the coordinates k0 + t: whether they
    # lie in the box, their flat offsets into the coefficients, and, per
    # term, the factor values
    shape = cs.values.shape
    inside, offset, tables = [], [], [[] for _ in g.terms]
    for a, (lo, n) in enumerate(zip(cs.lattice.origin, shape)):
        k = k0[:, a] + np.arange(width)[:, None]
        inside.append((k >= lo) & (k < lo + n))
        offset.append(np.where(inside[a], k - lo, 0) * math.prod(shape[a + 1 :]))
        for table, term in zip(tables, g.terms):
            table.append(np.asarray(term[a](y[:, a] - k)))
    flat, acc = cs.values.ravel(), np.zeros(y.shape[0], dtype=complex)
    for off in np.ndindex(*np.broadcast_to(width, g.d)):
        pick = lambda rows: [r[t] for r, t in zip(rows, off)]
        # in axis order and term order, as g.spatial multiplies and adds
        phi = reduce(np.add, (reduce(np.multiply, pick(table)) for table in tables))
        ins = reduce(np.logical_and, pick(inside))
        if _live(phi, ins, lambda: k0 + off, "lattice point {}"):
            acc += np.where(ins, flat[sum(pick(offset))], 0.0) * phi
    return acc


@dataclass(frozen=True)
class ExpansionResult:
    """One evaluated expansion at one level.

    ``coefficients`` holds the :class:`Coefficients` on the
    :func:`lattice_support` box, and ``points`` the evaluation points: the
    :class:`Grid` when one was given, rows ``(n, d)`` otherwise.
    """

    level: int
    coefficients: Coefficients
    points: Union[Grid, np.ndarray]
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
    """Convenience wrapper: point checks, lattice support, coefficients,
    evaluation."""
    pts = _checked_points(points, g.d)
    lat = lattice_support(g, m, j, domain, truncation_tol)
    cs = coefficients(rule, f, m, j, lat)
    vals = evaluate(g, m, j, cs, pts)
    return ExpansionResult(j, cs, pts, vals)

