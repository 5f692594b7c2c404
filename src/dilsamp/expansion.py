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
from functools import reduce
from itertools import product
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._arrays import Grid, Lattice, as_rows, map_rows, real_bilinear
from ._quadrature import QuadSpec, ball_rule
from .diffop import DiffOperator, apply_to_signal
from .dilation import Dilation
from .generators import Generator

_CHUNK = 1 << 17
# Table entries per tile of the rows' span sum, and values per call of a
# factor in rows mode (_rows_gather).
_TILE = 1 << 13
# Points per slab (quincunx level 7 took 10.0 ms at 2**15, 9.9 ms at 2**17)
_ROWS = 1 << 15
_EDGE = 1e-9
# Closer than this to a lattice coordinate, an unbounded generator's tap is
# phi(0): phi(y - k) is within 3.3e-18 * sum|w_i| of it there, and
# 1 / (y - k)**2 could overflow nearer 0.
_NEAR = 1e-9
# An unbounded generator's span sum leaves out coefficient tails whose
# summed |c_k| stays at most this share of max|c_k| / sup|phi|.
_SPAN_SHARE = 2.0**-53
# A box limited by the signal's tail leaves out coefficients whose summed
# |c_k| stays at most this share of max|c_k| / sup|phi|: far below the
# span's, so that the span still decides which coefficients are summed.
_BOX_SHARE = 2.0**-80
# A mapped axis's period holds to within this share of 1 + max|y| (16 ulps).
_PHASE = 2.0**-48
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
    ``|phi| <= truncation_tol`` on the domain.

    A study (:func:`dilsamp.analysis.level_slabs`) limits that box by the
    signal's tail (:func:`tail_coefficients`) where the signal has a
    ``tail`` majorant, the rule is exact or ball-averaged and ``M^-j`` is
    diagonal: the coefficients it leaves out, over all of ``Z^d``, sum to
    ``sum |c_k| <= 2**-80 * max|c_k| / sup|phi|``, with ``max|c_k|`` over
    the box, so they change no point's value by more than ``2**-80 *
    max|c_k|``.  With the span :func:`evaluate` sums, a value is within
    ``(2**-53 + 2**-80) * max|c_k|`` of the sum over all of ``Z^d``.
    """
    if domain.d != g.d:
        raise ValueError("domain dimension does not match the generator")
    reach = g.support_radius
    if reach is None:
        if truncation_tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        reach = math.sqrt(g.decay_const / truncation_tol)
    return _image_box(m, j, domain, reach)


def tail_coefficients(
    rule: CoefficientRule, f, g: Generator, m: Dilation, j: int, box: Lattice
) -> Coefficients:
    """The rule's coefficients on ``box`` (:func:`lattice_support`'s),
    limited by the signal's tail where the generator is unbounded, the
    signal has a ``tail`` majorant (:class:`dilsamp.signals.Signal`), the
    rule is exact or ball-averaged and ``M^-j`` is diagonal; else on
    ``box`` itself.

    The limited box (:func:`_tail_box`) is chosen for ``2**-81 * top /
    sup|phi|``, ``top = 1`` first, and kept when the bound on the ``|c_k|``
    it leaves out is at most ``2**-80 * max|c_k| / sup|phi|`` on its own
    coefficients.  Otherwise it is chosen again for ``top = max|c_k|``; a
    box that cannot grow, cut by ``box`` itself, is kept as it is, and
    past that cut ``truncation_tol`` bounds each term as in ``box``.  A
    NaN or inf coefficient keeps the box: it reaches every value anyway.
    """
    a = np.asarray(m.power(-j), dtype=float)
    if (g.support_radius is not None or getattr(f, "tail", None) is None
            or not math.isfinite(f.T0) or isinstance(rule, DifferentialRule)
            or not np.array_equal(a, np.diag(a.diagonal()))):
        return coefficients(rule, f, m, j, box)
    sup, top, lattice = _sup(g), 1.0, None
    while True:
        limited = _tail_box(rule, f, m, j, box, _BOX_SHARE / 2 * top / sup)
        if limited is None:
            return coefficients(rule, f, m, j, box)
        if limited[0] == lattice:
            return cs
        lattice, omitted = limited
        cs = coefficients(rule, f, m, j, lattice)
        top = float(np.abs(cs.values).max())
        if not omitted > _BOX_SHARE * top / sup:
            return cs


def _tail_box(rule, f, m: Dilation, j: int, box: Lattice, budget: float):
    """The sub-box of ``box`` past which ``f.tail`` bounds the summed
    ``|c_k|`` by ``budget``, and that bound; None if it is empty.

    Under a diagonal ``M^-j = diag(s)``, ``|c_k| <= prod_i t_i(|k_i|)``
    with ``t_i(n) = tail(max(s_i n - w, 0))``: an exact sample reads ``f``
    at ``M^-j k`` (``w = 0``), a ball average (positive weights summing to
    1) within ``w = h ||M^-j||`` of it.  A log-concave ``t_i`` has
    non-increasing ratios, so its sum past ``n`` is at most ``t_i(n + 1) /
    (1 - t_i(n + 2) / t_i(n + 1))``.  Past the box on axis ``a`` the
    coefficients sum to at most ``A_a prod_{b != a} B_b``, with ``A_a`` the
    sum of ``t_a`` off the box's range and ``B_b`` the sum over ``Z``; the
    half-width ``n_a`` on each axis takes ``1 / d`` of the budget.
    """
    s = np.abs(np.asarray(m.power(-j), dtype=float).diagonal())
    w = rule.h * m.norm(-j) if isinstance(rule, FalsifiedRule) else 0.0
    caps = [max(-o, o + n - 1) for o, n in zip(box.origin, box.shape)]

    def terms(a, fits):
        """``t_a(0..n)`` and the bound on its sum past ``n``: from ``n`` at
        ``T0``, doubled up to ``caps[a]`` until ``fits(t, past)``."""
        n = min(caps[a], max(1, math.ceil((f.T0 + w) / s[a])))
        while True:
            t = f.tail(np.maximum(s[a] * np.arange(n + 3) - w, 0.0))
            q = t[n + 2] / t[n + 1] if t[n + 1] > 0 else 0.0
            past = t[n + 1] / (1.0 - q) if q < 1 else math.inf
            if n >= caps[a] or fits(t[: n + 1], past):
                return t[: n + 1], past
            n = min(2 * n, caps[a])

    whole = lambda t, past: 2 * (t.sum() + past) - t[0]
    # each axis's sum over Z, for the others' shares
    sums = [whole(*terms(a, lambda t, past: past <= 2**-20 * t[0])) for a in range(len(s))]
    d, lo, hi, outs = len(s), [], [], []
    for a, (o, size) in enumerate(zip(box.origin, box.shape)):
        share = budget / d / math.prod(sums[:a] + sums[a + 1:])
        t, past = terms(a, lambda t, past: 4 * past <= share)
        # both sides' sums past n, for n = 0 .. len(t) - 1, smallest first
        beyond = 2 * (np.append(np.cumsum(t[:0:-1])[::-1], 0.0) + past)
        half = int(np.argmax(beyond <= share)) if beyond[-1] <= share else len(t) - 1
        lo.append(max(o, -half))
        hi.append(min(o + size - 1, half))
        if lo[a] > hi[a]:
            return None
        off = np.abs(np.r_[-(len(t) - 1) : lo[a], hi[a] + 1 : len(t)])
        outs.append((t[off].sum() + 2 * past, whole(t, past)))
    omitted = sum(out * math.prod(b for _, b in outs[:a] + outs[a + 1:])
                  for a, (out, _) in enumerate(outs))
    return Lattice(lo, np.subtract(hi, lo) + 1), omitted


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
    :meth:`Grid.points` order).  A compact generator's nonzero taps must
    lie in the box (:class:`MissingCoefficientError` otherwise).  An
    unbounded generator sums a span fixed per level (:func:`_span`), which
    leaves out at most ``2**-53 * max|c_k|`` at any point, and adds ``phi(0)
    c_k`` from the box within ``1e-9`` of a lattice point ``k`` outside the
    span, so ``sinc_squared`` gives its samples bit for bit at the lattice
    points of the box, and only there: outside it, ``c_k`` is not summed.

    A tensor grid (a ``Grid``, or any points in 1-d) takes the axis
    operator (:func:`_operator`) on its lines (:func:`_lines`), a point
    summed within ``2**-48 * (1 + |M^j| max|x|)`` of its mapped ``y``: its
    value is within ``32 * 2**-52 * (1 + |M^j| max|x|) * Lip(phi) *
    sum|c_k|`` of the exact tap sum at ``M^j x`` (the sum over the
    coefficients it reaches; ``Lip`` in the max norm).  A non-diagonal
    ``M^j`` needs axes of one spacing, compact support and sums along all
    lines but the first of ``7 * 2**15`` values at most over the terms and
    real parts; an unbounded generator needs a period, or a ``(points,
    span)`` table of at most ``2**13`` entries, on every axis but axis 0.
    Other points gather their taps with ``g.spatial``'s bits
    (:func:`_rows_gather`), or an unbounded generator's span one axis at a
    time (:func:`_span_terms`).

    No value depends on its slab (:func:`evaluate_slabs`).  Values are real
    when the coefficients and the factors are, with the bits of the real
    parts of the same sum over complex coefficients.  Zero points give an
    empty array.  Points must be finite, and ``|M^j x|`` below ``2**53`` in
    every coordinate (less ``width + 1`` for a compact generator with
    ``width`` taps per axis), where neighbouring lattice coordinates are
    distinct floats (``ValueError`` before any tap otherwise).
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
    about ``_ROWS`` (2**15) points (at least one row; whole periods where
    axis 0 has a shorter period, at most ``_TILE`` table entries where an
    unbounded generator's has none); of rows ``(n, d)``, at most ``_ROWS``
    rows.  ``values`` has :func:`evaluate`'s bits, in a buffer a later slab
    overwrites.  Tables, box checks, the span and workspaces are formed
    before the first slab (per slab off lines): the memory beyond the box
    is about one slab's or two periods' (and the box summed along all lines
    but one, if skew; a zero-padded box off lines, where a tap leaves it).
    """
    return _slabs(g, m, j, cs, _checked(g, cs, points))


def _checked(g, cs: Coefficients, points):
    if cs.lattice.d != g.d:
        raise ValueError("box dimension does not match the generator")
    if isinstance(points, Grid):
        if points.d != g.d:
            raise ValueError("grid dimension does not match the generator")
        return points
    rows = as_rows(points, g.d)
    if not np.isfinite(rows).all():
        raise ValueError("evaluation points must be finite")
    return rows


def _slabs(g, m: Dilation, j: int, cs: Coefficients, points):
    if not len(points):
        return
    d, unbounded = g.d, g.support_radius is None
    mj = np.asarray(m.power(j), dtype=float)
    bound = _REACH if unbounded else _REACH - (_width(g) + 1)
    if unbounded:
        span = _span(g, cs)
        hits = _lattice_terms(g, cs, span)
    if d == 1 and not isinstance(points, Grid):
        points = Grid(points.T)
    lines = _lines(mj, points) if isinstance(points, Grid) else None
    skew = lines is not None and not np.array_equal(np.abs([r for _, r, _ in lines]), np.eye(d))
    kind = np.result_type(*(f(np.zeros(1)) for t in g.terms for f in t))  # the factors' dtype
    # T mode's Ts, a T per term and real part, hold 7 * 2**15 values at most; else rows mode
    if skew and (unbounded or (np.ptp(lines[0][0]) + 2 * _width(g)) * math.prod(v.size for v, _, _
            in lines[1:]) * len(g.terms) * (1 + (np.result_type(cs.values, kind).kind == "c"))
            > 7 * 2**15):
        lines = None
    if lines is not None:
        _check_reach(np.concatenate([v for v, _, _ in lines]), bound)
        periods = [0 if skew and not a else _period(v) for a, (v, _, _) in enumerate(lines)]
    # an unbounded generator's (points, span) tables, per slab on axis 0 and whole on later
    # axes without a period, hold at most _TILE entries; else the rows' span sum runs
    if lines is not None and (not unbounded or all(p or v.size * n <= _TILE for p, (v, _, _), n
            in zip(periods[1:], lines[1:], span.values.shape[1:]))):
        kernel = _operator(g, lines, periods, span if unbounded else cs, kind,
                           points if skew else None)
        rows = points.slab_rows(_ROWS)
        if rows > periods[0] > 0:
            rows = periods[0] * round(rows / periods[0])
        elif unbounded and not periods[0]:  # axis 0's table is formed per slab
            rows = max(1, min(rows, _TILE // span.values.shape[0]))
        ys = unbounded and [v[:: r[a]] for a, (v, r, _) in enumerate(lines)]
        for lo, hi, part in points.slabs(rows):
            vals = kernel(lo, hi)
            if unbounded:
                hits(vals, [ys[0][lo:hi]] + ys[1:], rows=False)
            yield part, vals
        return
    if isinstance(points, Grid):
        rows = points.slab_rows(_ROWS)
        parts = lambda: (part for *_, part in points.slabs(rows))
        columns, n = points.axes, rows * (len(points) // points.axes[0].size)
    else:
        parts = lambda: (points[lo : lo + _ROWS] for lo in range(0, len(points), _ROWS))
        columns, n = points.T, min(len(points), _ROWS)
    y = np.empty((d, n))
    def mapped(part):
        if not isinstance(part, Grid):
            return map_rows(part, mj, y[:, : len(part)].T).T
        for o, ai in zip(y, mj):  # the per-axis products summed in map_rows' order
            ps = [x * a for x, a in zip(part.axes, ai)]
            np.add.outer(reduce(np.add.outer, ps[:-1]), ps[-1],
                         out=o[: len(part)].reshape([x.size for x in part.axes]))
        return y[:, : len(part)]
    # |M^j| max|x| bounds every mapped coordinate; map the points only past it
    reach = [max(-x.min(), x.max()) for x in columns]
    if np.any(np.abs(mj) @ reach >= bound):
        for part in parts():
            _check_reach(mapped(part), bound)
    if unbounded:
        # chunks of axis 0 whose sums over it fill about one slab
        step = max(1, _ROWS // math.prod(span.values.shape[1:]))
        kernel = lambda y: hits(np.concatenate([_span_terms(g, span, y[:, lo : lo + step])
                                                for lo in range(0, y.shape[1], step)]),
                                y, rows=True)
    else:
        kernel = _rows_gather(g, cs, n, kind)
    for part in parts():
        yield part, kernel(mapped(part))


def _lines(mj, grid):
    """A grid's mapped coordinates as lines (or None): per row of ``M^j``, ``v[n0 + r . i]``
    at point ``i``, ``v`` increasing.  One nonzero maps its axis, ``r = -1`` where it
    decreases; a row ``g r``, ``gcd(r) = 1``, needs axes of one spacing ``s``, and ``v``
    steps by ``s g``, within ``2**-48 * (1 + |M^j| max|x|)`` of the mapped points."""
    axes, lines, sizes = grid.axes, [], [x.size - 1 for x in grid.axes]
    steps = [(x[-1] - x[0]) / max(1, n) for x, n in zip(axes, sizes)]
    for row in mj.tolist():
        nz = [a for a, c in enumerate(row) if c]
        if len(nz) == 1:
            v = row[nz[0]] * axes[nz[0]]
            r = [(-1 if v[-1] < v[0] else 1) * (a == nz[0]) for a in range(len(row))]
            lines.append((v[:: r[nz[0]]], r, -min(r) * sizes[nz[0]]))
            continue
        s = max(abs(steps[a]) for a in nz)
        dev = sum(abs(c) * np.abs(x - x[0] - math.copysign(s, t) * np.arange(x.size)).max()
                  for c, x, t in zip(row, axes, steps))
        if any(c != round(c) for c in row) or dev > _PHASE * (1 + np.abs(row) @ [
                np.abs(x).max() for x in axes]):
            return None
        gcd = math.gcd(*map(int, row))
        r = [int(c) // gcd * (-1 if t < 0 else 1) for c, t in zip(row, steps)]
        n0 = -sum(min(k, 0) * n for k, n in zip(r, sizes))
        lines.append((row @ np.array([x[0] for x in axes]) + s * gcd * np.arange(
            -n0, 1 + sum(max(k, 0) * n for k, n in zip(r, sizes))), r, n0))
    return lines


def _span(g, cs: Coefficients) -> Coefficients:
    """The box an unbounded generator's span sum taps: the nonzero
    coefficients' box (one zero if none), trimmed at each of the ``2 d``
    ends by the cumulative marginal ``sum |c_k|`` while the end leaves out
    at most ``2**-53 * max|c_k| / sup|phi| / (2 d)``, so the omitted sum is
    at most ``2**-53 * max|c_k|`` at any point.  ``sup|phi|`` is bounded by
    the sum over terms of the product over axes of ``sum_i |w_i|``.  A
    non-finite ``max|c_k|`` keeps the nonzero box, so a NaN reaches every
    sum."""
    vals = cs.values
    nz = np.argwhere(vals != 0) if vals.any() else np.zeros((1, vals.ndim), int)
    # per column: numpy reduces axis 0 of C-ordered rows many times slower
    first, stop = np.array([(k.min(), k.max() + 1) for k in nz.T]).T
    vals = vals[tuple(map(slice, first, stop))]
    mod = np.abs(vals)
    top = mod.max()
    sup = _sup(g)
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


def _sup(g) -> float:
    """A bound on an unbounded generator's ``sup|phi|``: the sum over terms
    of the product over axes of ``sum_i |w_i|``."""
    return sum(math.prod(sum(abs(w) for w, _ in f.pairs) for f in factors)
               for factors in g.terms)


def _lattice_terms(g, cs: Coefficients, span: Coefficients):
    """What the span sum leaves out at lattice points: a function adding
    ``phi(0) c_k`` to ``out`` at each point within ``_NEAR`` of a lattice
    point ``k`` of the box ``cs`` outside ``span``, and returning ``out``;
    the points are a grid's mapped axes ``ys`` or ``rows``' columns."""
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


def _check_reach(y, bound):
    """Raise unless every mapped coordinate lies in ``(-bound, bound)``."""
    if not np.all(np.abs(y) < bound):
        less = f" - {_REACH - bound:.0f}" if bound < _REACH else ""
        raise ValueError(f"evaluation points map beyond |M^j x| < 2**53{less}, "
                         "where neighbouring lattice coordinates stay distinct floats")


def _sinc_table(factor, y, ks):
    """``factor(y[p] - ks[i])`` for a ``SquaredSincs``, ``N(x) / x**2`` with
    ``N`` of period ``L``: ``N`` is formed once per point and residue class,
    at the exactly reduced ``y - rint(y)`` plus ``(rint(y) - k) mod L``, and
    where ``|y - k| < 1e-9`` (0 included) the entry is ``phi(0)``."""
    x, r, period = y[:, None] - ks, np.rint(y), factor.period
    near, num = np.abs(x) < _NEAR, factor.numerator((y - r)[:, None] + np.arange(period))
    table = (np.repeat(num, len(ks), axis=1) if period == 1 else
             np.take_along_axis(num, (r.astype(np.int64)[:, None] - ks) % period, axis=1))
    table /= np.where(near, 1.0, x * x)
    table[near] = factor(0.0)
    return table


def _span_terms(g, cs: Coefficients, ys):
    """``sum_k c_k phi(y - k)`` over an unbounded generator's box at the rows
    of mapped columns ``ys``: per term, one axis at a time (axis 0 with
    shared coefficients, later axes row by row), in tiles of ``_TILE``
    table entries (:func:`_sinc_table`), each row reduced on its own
    (``np.vecdot``, real and imaginary parts apart), so that a row has the
    same bits in any call; the terms are added in order."""
    out = None
    for factors in g.terms:
        s = cs.values
        for a, (factor, y, o) in enumerate(zip(factors, ys, cs.lattice.origin)):
            # the summed axis last, after the rows; contiguous, as vecdot's
            # bits ask
            c = np.ascontiguousarray(np.moveaxis(s, 0, -1))
            c = c[..., None, :] if a == 0 else c
            ks, step = o + np.arange(c.shape[-1]), max(1, _TILE // c.shape[-1])
            s = np.concatenate([real_bilinear(np.vecdot, c[..., lo : lo + step, :] if a else c,
                                              _sinc_table(factor, y[lo : lo + step], ks))
                                for lo in range(0, len(y), step)], axis=-1)
        out = s if out is None else out + s
    return out.ravel()


def _width(g) -> int:
    """Taps per axis of a compact generator."""
    return int(math.floor(2 * g.support_radius + 2 * _EDGE)) + 1


def _period(y) -> int:
    """The period ``1 <= P < len(y)`` of a mapped axis, with every ``y[i]``
    within ``2**-48 * (1 + max|y|)`` of ``y[i % P] + i // P``, or 0."""
    step = y[1] - y[0] if y.size > 1 else 0.0
    period = round(1.0 / step) if step * y.size > 1 else 0
    if not 1 <= period < y.size:
        return 0
    q, r = divmod(y.size, period)
    head = y[: q * period].reshape(q, period) - np.arange(q, dtype=float)[:, None]
    head -= y[:period]
    dev = max(np.abs(head, out=head).max(), np.abs(y[q * period :] - y[:r] - q).max(initial=0))
    return period if dev <= _PHASE * (1.0 + np.abs(y).max()) else 0


def _tap_phases(g, factor, y, period: int, o: int, n: int, a: int):
    """A compact factor's ``(table, start)`` on the mapped axis ``y``:
    point ``p + q P`` sums ``table[p, u] c[start[p] + q + u]`` over ``u``,
    ``P`` the period or ``len(y)`` (one phase per point).  A period's
    phases share one window, a tap wider since ``k0`` moves by one within
    it.  The taps are checked against the box ``o + [0, n)``
    (:func:`_in_box`), and a dead last tap is not formed: its arguments
    ``y - (k0 + width - 1)``, in ``(r - width, r - width + 1]`` up to 1e-9
    and rounding, all lie at or below ``-r``, off the open support."""
    phases = y[:period] if period else y
    k0 = np.ceil(phases - g.support_radius - _EDGE)
    x = phases[:, None] - (k0[:, None] + np.arange(_width(g)))
    x = x[:, :-1] if x[:, -1].max() <= -g.support_radius else x
    table, k0 = np.asarray(factor(x)), k0.astype(np.int64)
    if period:
        shift = k0 - k0.min()
        wide = np.zeros((period, x.shape[1] + shift.max()), dtype=table.dtype)
        np.put_along_axis(wide, shift[:, None] + np.arange(x.shape[1]), table, axis=1)
        table, k0 = wide, np.full(period, k0.min())
    # phase p takes the coordinates k0 + u + q for its points q < count
    _in_box(table, k0, (y.size - np.arange(len(k0)) - 1) // len(k0) + 1, o, n, a)
    return table, k0


def _in_box(table, k0, count, o: int, n: int, a: int) -> bool:
    """Whether the taps ``k0[p] + u + q`` (``u`` below ``table``'s width,
    ``q < count[p]``) all lie in the box ``o + [0, n)`` on axis ``a``: a
    range test, then per entry, where a nonzero ``table[p, u]`` off the box
    raises :class:`MissingCoefficientError`."""
    if k0.min() >= o and k0.max() + np.max(count) + table.shape[1] - 1 <= o + n:
        return True
    first, count = k0[:, None] + np.arange(table.shape[1]), np.reshape(count, (-1, 1))
    for k in first[(table != 0) & ((first < o) | (first + count > o + n))][:1]:
        k = int(k if not o <= k < o + n else o + n)
        raise MissingCoefficientError(f"no coefficient for lattice coordinate [{k}] on axis {a}")
    return False


def _gather(at, taps, out, v, axis=None):
    """The one per-point gather: ``sum_t src_t[at] * weight_t`` into ``out``
    over ``taps`` ``(src_t, weight_t)`` in order, one ``take`` per tap (along
    ``axis``) into ``v``; every index must lie in ``src_t`` (``take`` clips)."""
    out[...] = 0
    for src, weight in taps:
        out += np.multiply(np.take(src, at, axis, v, "clip"), weight, out=v)
    return out


def _operator(g, lines, periods, cs: Coefficients, kind, grid=None):
    """The axis operator on a grid mapped onto ``lines`` (:func:`_lines`): a
    function of rows ``lo:hi`` of axis 0 to their values, in a buffer a
    later call overwrites.  Tables and box checks are formed here on the
    lines (``cs`` an unbounded generator's span, ``kind`` the factors'
    dtype).  Per term the rows of the coefficients, zeros past the box, are
    summed along the last axis first (:func:`_stage`); where each line
    follows its own axis a call sums two periods or more of axis 0, kept
    for the next; otherwise (the ``grid`` given) a point gathers along axis
    0 (:func:`_gather`) from the rows summed along the other lines.  Complex
    coefficients under real tables are summed as real and imaginary parts,
    the terms added in order."""
    d, unbounded, skew = g.d, g.support_radius is None, grid is not None
    origin, shape = cs.lattice.origin, cs.values.shape
    axes, rs, n0 = zip(*lines)
    flip = [not skew and r[a] < 0 for a, r in enumerate(rs)]
    # a skew grid's least and greatest index n0 + r . i into each line, and T's strides: the
    # gather's strided views and taps must read inside the lines and T (checked once T is summed)
    r, s = np.array(rs), np.cumprod((1,) + tuple(y.size for y in axes[:0:-1]))[::-1]
    ends = skew and np.add(n0, np.sort([0 * r, r * [y.size - 1 for y in grid.axes]], 0).sum(2))
    units = [-(-y.size // period) if period else y.size for y, period in zip(axes, periods)]
    # an unbounded factor's point p + q P sums table[p, q + i] c[o + n - 1 - i];
    # without a period, _stage forms the (points, n) table's rows per call
    ops = [[(_sinc_table(f, y[:period], o + n - 1 - np.arange(u + n - 1)) if period
             else (f, y, o + n - 1 - np.arange(n)), None) if unbounded
            else _tap_phases(g, f, y, period, o, n, a) for a, (f, y, period, u, o, n)
            in enumerate(zip(t, axes, periods, units, origin, shape))] for t in g.terms]
    vals, pad = cs.values, [0] * d
    if unbounded:
        vals = vals[(slice(None, None, -1),) * d]
    else:
        # pad zeros before the box on each axis, and zeros after it to width
        pad = [max(0, o - min(int(t[a][1].min()) for t in ops)) for a, o in enumerate(origin)]
        width = [l + max(n, max(int(t[a][1].max()) + t[a][0].shape[1] for t in ops) - o
                         + (units[a] - 1 if periods[a] else 0))
                 for a, (o, n, l) in enumerate(zip(origin, shape, pad))]
        inner = tuple(slice(l, l + n) for l, n in zip(pad[1:], shape[1:]))
        ops = [[(table, k - o + l) for (table, k), o, l in zip(t, origin, pad)] for t in ops]
    parts = ([np.ascontiguousarray(vals.real), np.ascontiguousarray(vals.imag)]
             if np.iscomplexobj(vals) and kind.kind != "c"
             else [np.ascontiguousarray(vals, dtype=np.result_type(vals, kind))])
    bufs, kept, block = {}, {}, [None]

    def buffer(key, shape, dtype):
        b = bufs.get(key)
        if b is None or b.size < math.prod(shape) or b.dtype != dtype:
            b = bufs[key] = np.empty(math.prod(shape), dtype=dtype)
        return b[: math.prod(shape)].reshape(shape)

    def summed(c, i, q0, q1):
        # term i's axis-0 op, and its rows of part c for axis 0's q0:q1
        table, k = ops[i][0]
        if k is None:
            r0, r1 = 0, parts[c].shape[0]
        elif periods[0]:
            r0, r1 = int(k[0]) + q0, int(k[0]) + q1 - 1 + table.shape[1]
        else:
            r0, r1 = int(k[q0:q1].min()), int(k[q0:q1].max()) + table.shape[1]
        if kept.get((c, i), (None,))[0] != (r0, r1):
            x = parts[c][r0:r1]
            if not unbounded:
                x = buffer((c, i), (r1 - r0,) + tuple(width[1:]), x.dtype)
                x.fill(0)
                a, b = max(r0, pad[0]), min(r1, pad[0] + shape[0])
                x[(slice(a - r0, max(a, b) - r0),) + inner] = parts[c][a - pad[0] : b - pad[0]]
            for a in range(d - 1, 0, -1):
                lead = x.shape[:a]
                x = x.reshape(math.prod(lead), x.shape[a], -1)
                x = _stage(ops[i][a], x, periods[a], 0, units[a], buffer, (c, i, a))
                x = x[:, : axes[a].size].reshape(lead + (axes[a].size, -1))
                x = np.flip(x, a) if flip[a] else x
            kept[c, i] = (r0, r1), x.reshape(1, r1 - r0, -1)
            if skew and (ends.min() < 0 or np.any(ends[1] >= [y.size for y in axes]) or (
                    k[ends[1, 0]] - r0 + table.shape[1] - 1) * s[0] + ends[1, 1:] @ s[1:]
                    >= x.size):
                raise IndexError("a gathered index leaves its line or T")
        return (table, None if k is None else k - r0), kept[c, i][1]

    def total(c, q0, q1):
        # part c's sum over the terms, for axis 0's q0:q1 (the rows q0:q1 if skew); on(arr, r,
        # n) is the strided view arr[n + r . i] at the points i of those rows, later axes first
        dims = skew and (q1 - q0,) + tuple(y.size for y in grid.axes[1:])
        on = lambda arr, r, n: as_strided(arr[n + r[0] * q0 :], arr.shape[1:] + dims, arr.strides[
            1:] + tuple(int(v) * arr.strides[0] for v in r))
        out = None
        for i in range(len(ops)):
            (table, k), x = summed(c, i, 0 if skew else q0, axes[0].size if skew else q1)
            if skew:
                # sum_u table_0[n_0, u] T[start_0[n_0] + u, n_1, ...] at the flat index of tap 0
                x = x.ravel()
                at = np.add(on(k * s[0], r[0], n0[0]), on(np.arange(s[0]), r[1:].T @ s[1:],
                            s[1:] @ n0[1:]), out=buffer("at", dims, np.int64))
                taps = ((x[u * s[0] :], w) for u, w in enumerate(on(table, r[0], n0[0])))
                v = _gather(at, taps, buffer((c, i, 0), dims, x.dtype), buffer("v", dims, x.dtype))
            else:
                v = _stage((table, k), x, periods[0], q0, q1, buffer, (c, i, 0))
            out = v if out is None else np.add(out, v, out=out)
        return out

    def run(lo, hi):
        unit, n = periods[0] or 1, axes[0].size
        lo, hi = (n - hi, n - lo) if flip[0] else (lo, hi)
        if block[0] is None or not block[0][0] * unit <= lo < hi <= block[0][1] * unit:
            q0, q1 = lo // unit, -(-hi // unit)
            if periods[0]:
                # at least two periods: one would make its window BLAS-able
                q1 = min(max(q1, q0 + 2), units[0])
                q0 = min(q0, q1 - 2)
            sums = [total(c, q0, q1).reshape(-1) for c in range(len(parts))]
            if len(sums) > 1:
                sums = [buffer("complex", sums[0].shape, complex)] + sums
                sums[0].real, sums[0].imag = sums[1:]
            block[0] = (q0, q1, sums[0])
        q0, q1, vals = block[0]
        rest = len(vals) // ((q1 - q0) * unit)
        vals = vals[(lo - q0 * unit) * rest : (hi - q0 * unit) * rest]
        return vals.reshape(hi - lo, rest)[::-1].ravel() if flip[0] else vals

    return run


def _stage(op, x, period: int, q0: int, q1: int, buffer, key):
    """``op = (table, start)`` summed along axis 1 of ``x``, shaped ``(L,
    m, R)``, for the periods (or points, without a period) ``q0:q1``, into
    a buffer ``(L, points, R)``.  Period ``q`` is one product of the ``(P,
    w)`` table and the window ``x[:, start + q :][:, :w]``, a strided view:
    ``(P, w) @ (w, R)`` by BLAS, or for ``R = 1`` numpy's own loop, which
    sums a point's taps in order; an unbounded generator's window moves on
    the table instead, ``table[:, q:][:, :m]`` times the reversed span (its
    row per point, without a period).  Each has the same shapes in every
    call.  Else taps are gathered one at a time.  ``x`` has the tables' dtype."""
    table, start = op
    (rows, m, rest), nq = x.shape, q1 - q0
    phases = table.shape[0] if period else 1
    out = buffer(key, (rows, nq * phases, rest), x.dtype)
    if start is None:
        window = (as_strided(table[:, q0:], (nq, phases, m), table.strides[1:] + table.strides)
                  if period else _sinc_table(table[0], table[1][q0:q1], table[2])[:, None])
        z = x.transpose(1, 0, 2).reshape(m, rows * rest)
        prod = np.matmul(window, z, out=buffer(key + ("z",), (nq, phases, rows * rest), out.dtype))
        out[...] = prod.reshape(nq * phases, rows, rest).transpose(1, 0, 2)
    elif period:
        width, (s0, s1, s2) = table.shape[1], x.strides
        window = as_strided(x[:, start[0] + q0 :], (rows, nq, width, rest), (s0, s1, s1, s2))
        if rest == 1:
            np.matmul(window[..., 0], table.T, out=out.reshape(rows, nq, phases))
        else:
            np.matmul(table, window, out=out.reshape(rows, nq, phases, rest))
    else:
        if start[q0:q1].min() < 0 or start[q0:q1].max() + table.shape[1] > m:
            raise IndexError("a gathered tap leaves the coefficient rows")
        _gather(start[q0:q1], ((x[:, u:], table[q0:q1, u, None]) for u in range(table.shape[1])),
                out, buffer("v", out.shape, x.dtype), 1)
    return out


def _rows_gather(g, cs: Coefficients, n: int, kind):
    """Rows mode: a compact generator's sum at points off lines, as a
    function of at most ``n`` mapped points ``y``, coordinate-major ``(d,
    m)``, to ``sum_k c_k phi(y - k)`` per point, in a buffer the next call
    overwrites.  A point's taps are ``k0 + t``, ``0 <= t < width`` per axis,
    ``k0 = ceil(y - r - 1e-9)``.  Per axis, a table holds each term's
    ``factor(y - (k0 + t))``, one row per ``t``, formed in tiles of
    ``_TILE`` values, without a dead last row (:func:`_tap_phases`), and
    checked against the box (:func:`_in_box`).  The taps are gathered with
    ``g.spatial``'s bits from the coefficients, or where a tap leaves the
    box from a copy with ``width`` zeros around it, ``k0`` clipped where no
    tap reaches the box.  ``kind`` is the factors' dtype."""
    d, width = g.d, _width(g)
    vals = cs.values.astype(np.result_type(cs.values, kind), copy=False)
    flats = {0: vals.ravel()}
    off, arg, at = np.empty((d, n)), np.empty((width, n)), np.empty(n, np.int64)
    tables = [[np.empty((width, n), dtype=kind) for _ in range(d)] for _ in g.terms]
    (phi, part), (v, acc) = np.empty((2, n), kind), np.empty((2, n), vals.dtype)

    def run(y):
        m = y.shape[1]
        k0, x, rows, inside = off[:, :m], arg[:, :m], [], True
        np.ceil(np.subtract(np.subtract(y, g.support_radius, out=k0), _EDGE, out=k0), out=k0)
        for a, (o, na) in enumerate(zip(cs.lattice.origin, vals.shape)):
            np.subtract(y[a], np.add(k0[a], np.arange(width)[:, None], out=x), out=x)
            rows.append(width - (x[-1].max() <= -g.support_radius))
            step = max(1, _TILE // rows[a])
            for b in range(0, m, step):
                tile = slice(b, min(b + step, m))
                for table, term in zip(tables, g.terms):
                    table[a][: rows[a], tile] = term[a](x[: rows[a], tile])
            # every term's table is checked: a list, not a short-circuiting generator
            inside &= all([_in_box(t[a][: rows[a], :m].T, k0[a], 1, o, na, a) for t in tables])
        pad = 0 if inside else width
        if pad not in flats:
            flats[pad] = np.pad(vals, pad).ravel()
        lo = np.subtract(cs.lattice.origin, pad)[:, None]
        if pad:
            np.clip(k0, lo, lo + np.add(vals.shape, width)[:, None], out=k0)
        strides = np.cumprod((1,) + tuple(np.add(vals.shape[:0:-1], 2 * pad)))[::-1]
        at[:m] = strides.astype(float) @ np.subtract(k0, lo, out=k0)
        def taps():  # per tap in index order, weighted as g.spatial multiplies and adds
            w, q = phi[:m], part[:m]
            for t in np.ndindex(*rows):
                for i, table in enumerate(tables):
                    p = np.multiply(table[0][t[0], :m], table[1][t[1], :m], out=q if i else w)
                    for tab, u in zip(table[2:], t[2:]):
                        np.multiply(p, tab[u, :m], out=p)
                    if i:
                        np.add(w, p, out=w)
                yield flats[pad][np.dot(t, strides) :], w
        return _gather(at[:m], taps(), acc[:m], v[:m])

    return run
