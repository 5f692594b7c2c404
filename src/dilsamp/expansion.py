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

The gap between the falsified rule's coefficients and its differential
counterpart's, with the matching ball-moment operator, decays one order
faster than the operator window, which is what makes ball averages usable
in place of derivatives (:func:`dilsamp.analysis.deviation_study`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Union

import numpy as np

from ._arrays import Grid, Lattice, as_rows, map_grid, map_rows, real_bilinear
from ._quadrature import QuadSpec, ball_rule
from .diffop import DiffOperator, apply_to_signal
from .dilation import Dilation
from .generators import Generator

_CHUNK = 1 << 17
# Terms (points times taps) per tile of the span sum, in one reused buffer;
# also the values per call of a factor in the general kernel.
_TILE = 1 << 13
# Points per slab of the general kernel, which keeps per-axis tables of
# width x slab entries; on a shared 2-vCPU host quincunx level 7 (577,600
# points) took 0.027-0.034 s at 2**15, 0.040-0.049 s at 2**17.
_ROWS = 1 << 15
_EDGE = 1e-9
# Closer than this to a lattice coordinate, an unbounded generator's tap is
# phi(0): phi(y - k) is within 3.3e-18 * sum|w_i| of it there, and
# 1 / (y - k)**2 could overflow nearer 0.
_NEAR = 1e-9
# An unbounded generator's span sum leaves out coefficient tails whose
# summed |c_k| stays at most this share of max|c_k| / sup|phi|.
_SPAN_SHARE = 2.0**-53
# Lattice boxes stay below this, so that lattice indices are exact int64.
_BOX_REACH = 2.0**62
# Mapped coordinates, and a compact generator's taps, stay below this, so
# that neighbouring lattice coordinates are distinct floats.
_REACH = 2.0**53


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
        if not 0 < self.h < math.inf:
            raise ValueError(f"averaging radius must be positive and finite, got {self.h}")


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
    the other bases in the call.  Sums of complex values are formed from
    their real and imaginary parts (:func:`real_bilinear`), so a real
    signal's averages have the bits of its complex cast's real parts.
    """
    d = a.shape[0]
    nodes, weights = ball_rule(d, h, quad)
    mapped = nodes @ a.T
    if isinstance(bases, Grid):
        if d >= 2 and getattr(f, "factor", None) is not None:
            return _average_axes(f.factor, bases, mapped, weights)
        bases = bases.points()
    out = np.empty(0)
    step = max(1, _CHUNK // max(1, len(weights)))
    for lo in range(0, bases.shape[0], step):
        chunk = bases[lo : lo + step]
        pts = chunk[:, None, :] + mapped[None, :, :]
        sums = real_bilinear(np.vecdot, weights, np.asarray(f.eval(pts)))
        if not lo:
            out = np.empty(bases.shape[0], dtype=sums.dtype)
        out[lo : lo + step] = sums
    kinks = tuple(getattr(f, "kinks", ()) or ())
    if kinks and d == 1:
        scale = float(a[0, 0])
        breaks = (np.asarray(kinks, dtype=float) - bases) / scale
        inside = np.any((-h < breaks) & (breaks < h), axis=1)
        for i in np.flatnonzero(inside):
            split_nodes, split_weights = ball_rule(1, h, quad, breaks=breaks[i])
            pts = bases[i, 0] + split_nodes * scale
            out[i] = real_bilinear(np.vecdot, split_weights, np.asarray(f.eval(pts)))
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
    out = np.empty((rows, last.shape[1]), dtype=np.result_type(weights, last, *tables))
    step = max(1, _CHUNK // len(weights))
    for lo in range(0, rows, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, rows)), lead)
        acc = weights * tables[0][idx[0]]
        for t, i in zip(tables[1:], idx[1:]):
            acc *= t[i]
        out[lo : lo + step] = real_bilinear(np.matmul, acc, last)
    return out.ravel()


# ---------------------------------------------------------------------------
# lattice support and coefficients


def _image_box(m: Dilation, j: int, domain: Box, reach: float) -> Lattice:
    """The integer box around ``M^j domain`` widened by ``reach``."""
    y = domain.corners() @ np.asarray(m.power(j), dtype=float).T
    lo = np.ceil(y.min(axis=0) - reach - _EDGE)
    hi = np.floor(y.max(axis=0) + reach + _EDGE)
    if not np.all((-_BOX_REACH < lo) & (hi < _BOX_REACH)):
        raise ValueError("the lattice box reaches |k| >= 2**62, where indices are inexact")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    return Lattice(lo, hi - lo + 1)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Coefficients ``c_k`` on a lattice box.

    ``values`` is shaped like the box, and ``values[i]`` is the
    coefficient of lattice point ``lattice.origin + i``: ``float64`` for
    real input, ``complex128`` for complex input.  ``len`` counts the
    coefficients and ``np.asarray`` gives ``values``.
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        vals = vals.astype(np.result_type(vals, float), copy=False).reshape(self.lattice.shape)
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
    exact).  An unbounded generator's factors are ``N(x) / x**2`` with a
    bounded numerator ``N`` of period ``L`` (``SquaredSincs``; where
    ``|x| < 1e-9``, 0 included, :func:`evaluate` takes the value at 0), and
    its reach per coordinate is ``R = sqrt(decay_const / truncation_tol)``:
    by ``|phi| <= decay_const / x**2``, each omitted translate has
    ``|phi| <= truncation_tol`` on the domain.  That bounds neither its
    term ``c_k phi`` nor the omitted sum, about
    ``2 * decay_const * max|c_k| / R`` (6e-6 for ``sinc_squared`` at 1e-10).
    Within the box, :func:`evaluate` sums a span that leaves out at most
    ``2**-53 * max|c_k|`` at any point, and ``phi(0) c_k`` at the lattice
    points outside it.
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
    When ``M^-j`` is diagonal the points ``M^-j k`` form a tensor grid.
    There exact samples of a signal with a per-axis ``factor`` are its
    values on the grid (:meth:`Signal.eval`): the rows' bits in 1-d, and
    for ``gaussian`` within ``4 * (1 + pi |x|^2)`` ulps of them in
    ``d >= 2``.  Ball averages of such a signal in ``d >= 2`` run per axis
    (:func:`_pullback_average`): within ``1e-13 * max|c_k|`` of the rows'
    values.  Every other case samples or averages row by row.  The
    coefficients are real when the signal's values (and
    derivatives) and the operator's coefficients are real, complex
    otherwise.
    """
    if lattice.d != m.d:
        raise ValueError("lattice dimension does not match the dilation")
    a = np.asarray(m.power(-j), dtype=float)
    # the points M^-j k: a tensor grid when M^-j is diagonal
    grid = None
    if np.array_equal(a, np.diag(a.diagonal())):
        grid = Grid([s * np.arange(o, o + n) for s, o, n in
                     zip(a.diagonal(), lattice.origin, lattice.shape)])
    rows = lambda: map_rows(lattice.points(), a)
    if isinstance(rule, ExactRule):
        per_axis = grid is not None and getattr(f, "factor", None) is not None
        vals = f.eval(grid if per_axis else rows())
    elif isinstance(rule, DifferentialRule):
        if rule.operator.d != m.d:
            raise ValueError("operator dimension does not match the dilation")
        vals = apply_to_signal(rule.operator, f, m, j, lattice.points())
    elif isinstance(rule, FalsifiedRule):
        vals = _pullback_average(f, rows() if grid is None else grid, a, rule.h, rule.quad)
    else:
        raise TypeError(f"unknown coefficient rule {rule!r}")
    return Coefficients(lattice, vals)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g: Generator, m: Dilation, j: int, cs: Coefficients, points) -> np.ndarray:
    """Evaluate ``sum_k c_k phi(M^j x - k)`` at the given points.

    ``points`` is one point, rows ``(n, d)`` or a :class:`Grid` (values in
    :meth:`Grid.points` order).  A compact generator taps the lattice
    points within its support radius of each mapped point, one tap at a
    time; those it reaches must lie in the box
    (:class:`MissingCoefficientError` otherwise).  On a tensor grid (a
    ``Grid``, or any points in 1-d) with ``M^j`` diagonal, each of
    ``g.terms`` is summed along each axis of the coefficient box in turn,
    and the terms are added in order (:func:`_axes_kernel`); otherwise
    each point takes the ``d``-fold product of the taps, each tap's value
    formed from per-axis tables as ``g.spatial`` forms it, with the same
    bits (:func:`_rows_kernel`).  The two agree to ``1e-14 * max|c_k|``.

    An unbounded generator sums a span of the coefficients, fixed per
    level from the coefficients alone and so the same for every point
    (:func:`_span`): the box of the nonzero ones, trimmed at both ends of
    each axis while the trimmed ``|c_k|`` sum to at most ``2**-53 *
    max|c_k| / sup|phi|``.  So the omitted sum is at most ``2**-53 *
    max|c_k|`` at any point; with a non-finite ``max|c_k|`` only zeros
    are left out.  A point within ``1e-9`` of a lattice point ``k`` on
    every axis, ``k`` in the box but outside the span, adds ``phi(0) c_k``
    from the box, so ``sinc_squared`` gives its samples there bit for bit,
    as it does inside the span.  Each term is summed one axis at a time
    (:func:`_span_terms`), on a grid as above and on rows too: axis 0 for
    every row, then each later axis row by row.  Both go in chunks of
    axis-0 coordinates (or rows) whose sums over axis 0 fill about one
    slab.  Its factors are ``N(x) / x**2``
    with ``N`` of period ``L`` (``SquaredSincs``: ``L = 1`` for
    ``sinc_squared``, 4 for ``sinc_squared_twoscale``), so ``N`` is
    formed once per point and residue class of ``k`` modulo ``L``, and
    each term as ``c_k / (y - k)**2``; where ``|y - k| < 1e-9`` (0
    included) the term is ``c_k phi(0)``, to within ``3.3e-18 * sum|w_i|
    * |c_k|``.  The sums stay within ``2e-15 * max|c_k|`` of the whole
    :func:`lattice_support` box's sum in the tests.

    Every kernel runs slab by slab (:func:`evaluate_slabs`); a point's
    value does not depend on the slab it falls in, and a one-point call
    gives its row's bits.  Each runs in the common dtype of the
    coefficients and the factors: real when all of them are, with the
    bits of the real parts of the same sum over complex coefficients.
    Zero points give an empty array.

    Points must be finite, and ``|M^j x|`` below ``2**53`` in every
    coordinate (less ``width + 1`` for a compact generator with ``width``
    taps per axis, so that its taps stay below ``2**53`` too): there
    neighbouring lattice coordinates are distinct floats, so no two taps
    share an argument (``ValueError`` before any tap otherwise).
    """
    points = _checked(g, cs, points)
    out, at = np.empty(0, dtype=cs.values.dtype), 0
    for _, vals in _slabs(g, m, j, cs, points):
        if not at:
            out = np.empty(len(points), dtype=vals.dtype)
        out[at : at + len(vals)] = vals
        at += len(vals)
    return out


def evaluate_slabs(g: Generator, m: Dilation, j: int, cs: Coefficients, points):
    """:func:`evaluate` one slab at a time: yields ``(part, values)`` in order.

    A slab of a :class:`Grid` is a sub-grid of whole rows along axis 0,
    about ``_ROWS`` (2**15) points (at least one row); of rows ``(n, d)``,
    at most ``_ROWS`` rows.  ``values`` are the slab's values, with
    :func:`evaluate`'s bits, in a buffer the next slab overwrites.  What
    depends only on the level is done once, before the first slab: the
    span of an unbounded generator's coefficients, the per-axis kernel's
    taps on every axis, and the general kernel's workspace, which every
    slab reuses.  So the memory beyond the coefficient box is about that
    of one slab.
    """
    points = _checked(g, cs, points)
    yield from _slabs(g, m, j, cs, points)


def _checked(g, cs: Coefficients, points):
    if cs.lattice.d != g.d:
        raise ValueError("box dimension does not match the generator")
    return _checked_points(points, g.d)


def _slabs(g, m: Dilation, j: int, cs: Coefficients, points):
    if not len(points):
        return
    d, unbounded = g.d, g.support_radius is None
    mj = np.asarray(m.power(j), dtype=float)
    bound = _REACH if unbounded else _REACH - (_width(g) + 1)
    if unbounded:
        span = _span(g, cs)
        hits = _lattice_terms(g, cs, span)
        # chunks of axis 0 whose sums over it fill about one slab
        step = max(1, _ROWS // math.prod(span.values.shape[1:]))
    if np.array_equal(mj, np.diag(mj.diagonal())):
        if d == 1 and not isinstance(points, Grid):
            points = Grid(points.T)
        if isinstance(points, Grid):
            axes = [s * x for s, x in zip(mj.diagonal(), points.axes)]
            for y in axes:
                _check_reach(y, bound)
            rows = points.slab_rows(_ROWS)
            if unbounded:
                kernel = lambda lo, hi: hits(np.concatenate([
                    _span_terms(g, span, [axes[0][b : min(b + step, hi)]] + axes[1:], False)
                    for b in range(lo, hi, step)]), [axes[0][lo:hi]] + axes[1:], rows=False)
            else:
                kernel = _axes_kernel(g, axes, cs, rows)
            for lo, hi, part in points.slabs(rows):
                yield part, kernel(lo, hi)
            return
    if isinstance(points, Grid):
        rows = points.slab_rows(_ROWS)
        y = np.empty((d, rows * (len(points) // points.axes[0].size)))
        parts = lambda: (part for *_, part in points.slabs(rows))
        mapped = lambda part: map_grid(part, mj, y[:, : len(part)])
        columns = points.axes
    else:
        y = np.empty((d, min(len(points), _ROWS)))
        parts = lambda: (points[lo : lo + _ROWS] for lo in range(0, len(points), _ROWS))
        mapped = lambda part: map_rows(part, mj, y[:, : len(part)].T).T
        columns = points.T
    # |M^j| max|x| bounds every mapped coordinate; map the points only past it
    reach = [max(-x.min(), x.max()) for x in columns]
    if np.any(np.abs(mj) @ reach >= bound):
        for part in parts():
            _check_reach(mapped(part), bound)
    if unbounded:
        kernel = lambda y: hits(np.concatenate([_span_terms(g, span, y[:, lo : lo + step], True)
                                                for lo in range(0, y.shape[1], step)]),
                                y, rows=True)
    else:
        kernel = _rows_kernel(g, cs, y.shape[1])
    for part in parts():
        yield part, kernel(mapped(part))


def _span(g, cs: Coefficients) -> Coefficients:
    """The box an unbounded generator's span sum taps: the smallest box of
    the nonzero coefficients (one zero if none), trimmed from both ends of
    each axis while the trimmed coefficients' summed ``|c_k|`` stays at
    most ``2**-53 * max|c_k| / sup|phi|``.  The budget is split evenly
    over the ``2 d`` ends, each end trimmed by the cumulative sums of the
    axis's marginal ``sum |c_k|`` over the other axes, so the omitted sum
    is at most ``2**-53 * max|c_k|`` at any point.  ``sup|phi|`` is
    bounded by ``sum over terms of prod over axes of sum_i |w_i|`` of the
    ``SquaredSincs`` factors.  With a non-finite ``max|c_k|`` the nonzero
    box is kept whole, so that a NaN or inf coefficient reaches every
    sum."""
    vals = cs.values
    nz = np.argwhere(vals != 0) if vals.any() else np.zeros((1, vals.ndim), int)
    # per column: numpy reduces axis 0 of C-ordered rows many times slower
    first, stop = np.array([(k.min(), k.max() + 1) for k in nz.T]).T
    vals = vals[tuple(map(slice, first, stop))]
    mod = np.abs(vals)
    top = mod.max()
    sup = sum(math.prod(sum(abs(w) for w, _ in f.pairs) for f in factors)
              for factors in g.terms)
    if 0 < top < math.inf and sup > 0:
        # relative to max|c_k|, so that no marginal sum overflows; at most
        # 1 / (2 d) per end, below the marginal that holds max|c_k| = 1
        mod /= top
        budget = min(_SPAN_SHARE / sup, 1.0) / (2 * vals.ndim)
        for a in range(vals.ndim):
            marg = mod.sum(axis=tuple(b for b in range(vals.ndim) if b != a))
            lo = int(np.searchsorted(np.cumsum(marg), budget, "right"))
            cut = int(np.searchsorted(np.cumsum(marg[::-1]), budget, "right"))
            first[a], stop[a] = first[a] + lo, stop[a] - cut
        vals = cs.values[tuple(map(slice, first, stop))]
    return Coefficients(Lattice(np.add(cs.lattice.origin, first), stop - first), vals)


def _lattice_terms(g, cs: Coefficients, span: Coefficients):
    """What the span sum leaves out at lattice points: a function that
    adds ``phi(0) c_k`` to ``out`` at each point within ``_NEAR`` of a
    lattice point ``k`` on every axis, ``k`` in the box ``cs`` but outside
    ``span``, and returns ``out``.  Its points are given as their mapped
    coordinates ``ys``: a grid's axes (``out`` in :meth:`Grid.points`
    order), or ``rows``' columns."""
    phi0 = sum(math.prod(f(0.0) for f in factors) for factors in g.terms)
    lo = np.subtract(span.lattice.origin, cs.lattice.origin)
    hi = lo + span.values.shape

    def add(out, ys, rows):
        near, idx = [], []
        for y, o, n in zip(ys, cs.lattice.origin, cs.values.shape):
            k = np.rint(y)
            near.append((np.abs(y - k) < _NEAR) & (o <= k) & (k < o + n))
            idx.append(k - o)
        if rows:
            at = np.flatnonzero(np.logical_and.reduce(near))
            idx = [i[at] for i in idx]
        else:
            at = [np.flatnonzero(v) for v in near]
            idx = [i.ravel() for i in np.meshgrid(*(i[a] for i, a in zip(idx, at)),
                                                   indexing="ij")]
            at = np.ravel_multi_index(np.meshgrid(*at, indexing="ij"),
                                      [y.size for y in ys]).ravel()
        off = np.logical_or.reduce([(i < l) | (i >= h) for i, l, h in zip(idx, lo, hi)])
        if off.any():
            k = tuple(i[off].astype(np.int64) for i in idx)
            out[at[off]] += phi0 * cs.values[k]
        return out

    return add


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


def _check_reach(y, bound):
    """Raise unless every mapped coordinate lies in ``(-bound, bound)``."""
    if not np.all(np.abs(y) < bound):
        less = f" - {_REACH - bound:.0f}" if bound < _REACH else ""
        raise ValueError(f"evaluation points map beyond |M^j x| < 2**53{less}, "
                         "where neighbouring lattice coordinates stay distinct floats")


def _span_sum(factor, y, ks, c):
    """``sum_i c[..., p, i] factor(y[p] - ks[i])`` for each point ``y[p]``:
    ``ks`` are consecutive lattice coordinates, ``factor`` is a
    ``SquaredSincs``, ``N(x) / x**2`` with ``N`` of period ``L``, and the
    rows of ``c`` (its axis ``-2``) are one shared by all points, or one each.

    ``N(y - k)`` depends on ``k`` only modulo ``L``, so the sum is
    ``sum_{s < L} N(y - ks[s]) sum_{i = s mod L} c_i / (y - ks[i])**2``:
    ``N`` is formed once per point and residue class, from the exactly
    reduced ``y - rint(y)``, and each term is one reciprocal square,
    written into a reused buffer of at most ``_TILE`` terms (points times
    taps).  Each ``y`` is reduced on its own (``np.vecdot``, tiles in
    order), with the same bits in any call if ``c`` is C-contiguous.
    Where ``|y - k| < _NEAR`` (1e-9; 0 included) the term is
    ``c_k phi(0)`` instead, so nothing is infinite.  Complex ``c`` is
    summed as its real and imaginary parts, real ``c`` as itself.
    """
    period, n = factor.period, np.rint(y)
    r, n = y - n, n.astype(np.int64)
    on = np.flatnonzero((np.abs(r) < _NEAR) & (ks[0] <= n) & (n <= ks[-1]))
    at = n[on] - ks[0]
    shape = c.shape[:-2] + (len(y), len(ks))
    parts = np.stack((c.real, c.imag)) if np.iscomplexobj(c) else c[None]
    parts = np.broadcast_to(parts, parts.shape[:1] + shape)
    width = min(-(-len(ks) // period), _TILE)
    step = _TILE // width
    buf = np.empty((min(step, len(y)), width))
    out = np.zeros(shape[:-1], dtype=c.dtype)
    for s in range(min(period, len(ks))):
        # this class's taps nearer than _NEAR: rows, ascending, and columns
        rows, cols = on[at % period == s], at[at % period == s] // period
        kc, cc = ks[s::period], parts[..., s::period]
        acc = np.zeros(parts.shape[:1] + out.shape)
        for lo, k in product(range(0, len(y), step), range(0, len(kc), width)):
            t = buf[: len(y) - lo, : len(kc) - k]
            np.subtract(y[lo : lo + step, None], kc[k : k + width], out=t)
            if rows.size:
                # 1 / inf**2 is 0: the term is added after the loop
                a, b = np.searchsorted(rows, (lo, lo + step))
                i = cols[a:b] - k
                hit = (i >= 0) & (i < width)
                t[rows[a:b][hit] - lo, i[hit]] = np.inf
            np.square(t, out=t)
            np.divide(1.0, t, out=t)
            acc[..., lo : lo + step] += np.vecdot(cc[..., lo : lo + step, k : k + width], t)
        sums = acc[0] + 1j * acc[1] if len(acc) == 2 else acc[0]
        out += factor.numerator(r + (n - ks[s]) % period) * sums
    out[..., on] += factor(0.0) * np.broadcast_to(c, shape)[..., on, at]
    return out


def _span_terms(g, cs: Coefficients, ys, rows: bool):
    """``sum_k c_k phi(y - k)`` over the box of an unbounded generator:
    each term of ``g``, its factors in place of ``phi``, is summed along
    one axis of the coefficient box at a time (:func:`_span_sum`), and
    the terms are added in order.  On a tensor grid, ``ys`` are its mapped
    axes and the values come in :meth:`Grid.points` order.  On ``rows``,
    ``ys`` are the mapped rows' columns: axis 0 is summed for every row
    with shared coefficients, and each later axis row by row."""
    out = None
    for factors in g.terms:
        s = cs.values
        for a, (factor, y, o) in enumerate(zip(factors, ys, cs.lattice.origin)):
            # the summed axis last, after the points' axes; contiguous, so
            # that a row's sum has the same bits in any call
            c = np.ascontiguousarray(np.moveaxis(s, 0, -1))
            if a == 0 or not rows:
                c = c[..., None, :]
            s = _span_sum(factor, y, o + np.arange(c.shape[-1]), c)
        out = s if out is None else out + s
    return out.ravel()


def _width(g) -> int:
    """Taps per axis of a compact generator."""
    return int(math.floor(2 * g.support_radius + 2 * _EDGE)) + 1


def _taps(g, y):
    """The translates that may reach ``y``: ``k0 + t`` for ``0 <= t < width``."""
    return np.ceil(y - g.support_radius - _EDGE).astype(np.int64), _width(g)


def _dead(g, x) -> bool:
    """Whether the last tap's arguments ``x = y - (k0 + width - 1)`` all
    lie at or below ``-r``, off the open support ``(-r, r)``, where every
    factor is 0.  They lie in ``(r - width, r - width + 1]``, up to 1e-9
    and rounding, so for an integer ``2 r`` the tap is live only at points
    within that margin of its support's end."""
    return bool(x.max() <= -g.support_radius)


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


def _fold(ufunc, arrays, out):
    """``reduce(ufunc, arrays)``, left to right, written into ``out``."""
    if len(arrays) == 1:
        np.copyto(out, arrays[0])
        return out
    ufunc(arrays[0], arrays[1], out=out)
    for a in arrays[2:]:
        ufunc(out, a, out=out)
    return out


def _axes_kernel(g, axes, cs: Coefficients, rows: int):
    """The per-axis kernel of a compact generator on the tensor grid of
    mapped axes ``axes``, as a function of a range ``lo:hi`` of at most
    ``rows`` rows along axis 0 to the values there (in :meth:`Grid.points`
    order, in a buffer the next call overwrites).  Each term of ``g``, its
    factors in place of ``phi``, is summed along one axis of the
    coefficient box at a time, and the terms are added in order.

    The live taps on every axis (factor values zeroed outside the box) are
    formed here, once, term by term and axis by axis, as the whole grid
    would check them; a last tap with every argument off the support
    (:func:`_dead`) is dropped before its factor is formed.  Each call sums
    them into buffers of one slab,
    allocated here.  A tap's coefficients are taken at the
    axis's first lattice offsets plus the tap's, in one reused index
    buffer and clipped to the box: outside it the factor is zero, so for
    finite coefficients the clipped one adds nothing."""
    d, shape, origin = g.d, cs.values.shape, cs.lattice.origin
    taps = []
    for factors in g.terms:
        for a, (factor, y, o, n) in enumerate(zip(factors, axes, origin, shape)):
            k0, width = _taps(g, y)
            live = []
            for t in range(width):
                k = k0 + t
                x = y - k
                if t == width - 1 and _dead(g, x):
                    continue
                phi = np.asarray(factor(x))
                inside = (k >= o) & (k < o + n)
                if _live(phi, inside, lambda: k, f"lattice coordinate [{{}}] on axis {a}"):
                    live.append((t, np.where(inside, phi, 0)))
            taps.append((k0 - o, live))
    # the coefficients, and the sums, in the common dtype of theirs and
    # every tap's: promoted once per level
    kind = np.result_type(cs.values, *(phi for _, live in taps for _, phi in live))
    values = cs.values.astype(kind, copy=False)
    idx = [np.empty(rows if a == 0 else y.size, dtype=np.int64) for a, y in enumerate(axes)]
    # stage a holds the sums over axes 0..a: (rows, len(y_1..y_a), n_{a+1}..)
    stages = [(rows,) + tuple(y.size for y in axes[1 : a + 1]) + shape[a + 1 :]
              for a in range(d)]
    acc = [np.empty(s, dtype=kind) for s in stages]
    term = [np.empty(s, dtype=kind) for s in stages]
    out = np.empty(stages[-1] if len(g.terms) > 1 else 0, dtype=kind)

    def run(lo, hi):
        r = hi - lo
        for i in range(len(g.terms)):
            vals = values
            for a in range(d):
                s, t = acc[a][:r], term[a][:r]
                s.fill(0)
                base, live = taps[i * d + a]
                if a == 0:
                    base = base[lo:hi]
                for off, phi in live:
                    if a == 0:
                        phi = phi[lo:hi]
                    k = np.add(base, off, out=idx[a][: base.size])
                    np.take(vals, k, axis=a, out=t, mode="clip")
                    np.multiply(t, phi.reshape((-1,) + (1,) * (d - a - 1)), out=t)
                    np.add(s, t, out=s)
                vals = s
            if i:
                np.add(out[:r], vals, out=out[:r])
            elif len(g.terms) > 1:
                np.copyto(out[:r], vals)
        return (out[:r] if len(g.terms) > 1 else vals).ravel()

    return run


def _rows_kernel(g, cs: Coefficients, n: int):
    """The general kernel of a compact generator, as a function of at most
    ``n`` mapped points ``y``, coordinate-major ``(d, m)``, to
    ``sum_k c_k phi(y - k)`` per point, in a buffer the next call overwrites.

    A point's taps are ``k0 + t``, ``0 <= t < width`` per axis, with the
    floats ``k0 = ceil(y - r - 1e-9)`` (exact integers below ``2**53``).
    Per axis, a table holds each term's ``factor(y - (k0 + t))``, one row
    per ``t``; the last row is not formed where every argument is off the
    support (:func:`_dead`), and a tap with a zero or unformed row on some
    axis in every term is skipped.
    A point's coefficients at tap ``t`` are ``flat[shift(t):]`` at its one
    flat index, counted from the call's least ``k0``.  Only the taps that
    the call's least or greatest ``k0`` take out of the box are masked and
    checked (:func:`_live`).  Every buffer is allocated here, and each
    factor is called on tiles of at most ``_TILE`` values."""
    d, width, shape = g.d, _width(g), cs.values.shape
    strides = [math.prod(shape[a + 1 :]) for a in range(d)]
    kinds = [[np.asarray(f(np.zeros((1, 1)))).dtype for f in term] for term in g.terms]
    kind = np.result_type(*(k for ks in kinds for k in ks))
    # the coefficients, and the sums, in the common dtype of theirs and the
    # factors': promoted once per level
    flat = cs.values.astype(np.result_type(cs.values, kind), copy=False).ravel()
    off, arg = np.empty((d, n)), np.empty((width, n))
    tables = [[np.empty((width, n), dtype=k) for k in ks] for ks in kinds]
    base, at = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    phi, part = np.empty(n, dtype=kind), np.empty(n, dtype=kind)
    c, acc = np.empty(n, dtype=flat.dtype), np.empty(n, dtype=flat.dtype)
    ts = np.arange(width)[:, None]

    def run(y):
        m = y.shape[1]
        u, x, index, live, lo, edges = off[:, :m], arg[:, :m], base[:m], [], [], []
        np.subtract(y, g.support_radius, out=u)
        np.subtract(u, _EDGE, out=u)
        np.ceil(u, out=u)
        for a, (o, na, stride) in enumerate(zip(cs.lattice.origin, shape, strides)):
            np.add(u[a], ts, out=x)
            np.subtract(y[a], x, out=x)
            rows = width - _dead(g, x[-1])
            step = max(1, _TILE // rows)
            for b in range(0, m, step):
                tile = slice(b, min(b + step, m))
                for table, term in zip(tables, g.terms):
                    table[a][:rows, tile] = term[a](x[:rows, tile])
            live.append([np.pad(table[a][:rows, :m].any(axis=1), (0, width - rows))
                         for table in tables])
            # k0 is clipped where no tap is in the box, and counted from the
            # least; tap t may leave the box unless o <= k0 + t < o + na for all
            kmin, kmax = u[a].min(), u[a].max()
            if kmin < o - width or kmax > o + na:
                kmin = np.clip(u[a], o - width, o + na, out=u[a]).min()
            lo.append(int(kmin) - o)
            edges.append([t for t in range(width) if lo[a] + t < 0 or int(kmax) - o + t >= na])
            np.subtract(u[a], kmin, out=u[a])
            np.multiply(u[a], stride, out=at[:m] if a else index, casting="unsafe")
            if a:
                index += at[:m]
        k = lambda: np.ceil(y - g.support_radius - _EDGE).T.astype(np.int64) + taps
        total = acc[:m]
        total.fill(0)
        for taps in np.ndindex(*(width,) * d):
            if not any(all(axis[i][t] for axis, t in zip(live, taps))
                       for i in range(len(tables))):
                continue
            pick = lambda rows: [r[t, :m] for r, t in zip(rows, taps)]
            # in axis order and term order, as g.spatial multiplies and adds
            p = _fold(np.multiply, pick(tables[0]), phi[:m])
            for table in tables[1:]:
                np.add(p, _fold(np.multiply, pick(table), part[:m]), out=p)
            shift = sum((l + t) * s for l, t, s in zip(lo, taps, strides))
            edge = [(a, t) for a, t in enumerate(taps) if t in edges[a]]
            v, within = c[:m], True
            if edge:
                within = np.logical_and.reduce(
                    [(u[a] >= -lo[a] - t) & (u[a] < shape[a] - lo[a] - t) for a, t in edge])
                if not _live(p, within, k, "lattice point {}"):
                    continue
                np.take(flat, np.add(index, shift, out=at[:m]), out=v, mode="clip")
            else:
                np.take(flat[shift:], index, out=v, mode="clip")
            np.multiply(v, p, out=v)
            np.add(total, v, out=total, where=within)
        return total

    return run


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

