"""Empirical convergence analysis of sampling expansions.

A study evaluates the expansion error ``|f - Q_j f|`` in an ``L_p`` norm on
a fixed box across a range of levels, fits the log-log slope against the
per-level scale, and compares it with the predicted rate for the chosen
rule, generator order, operator window, and signal decay.  A deviation
study runs the same level loop, fit and verdict on a ball-averaged plan,
with each level's ``max_k`` gap between the ball averages and the
differential coefficients of the plan's operator in place of the error.

The error norm is a Riemann sum on a uniform grid whose spacing tracks the
level (a fixed number of points per scale unit) and whose anchor carries an
irrational offset, so lattice-aligned artifacts (for instance exactness of
interpolatory generators at lattice points) never dominate the measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expansion
from ._arrays import Grid, Lattice
from .diffop import DiffOperator
from .dilation import Dilation
from .expansion import (
    Box,
    CoefficientRule,
    Coefficients,
    DifferentialRule,
    ExactRule,
    FalsifiedRule,
    _image_box,
    _kind,
    _level,
    _majorant,
    _tail_bounds,
    coefficients,
    evaluate_slabs,
    lattice_support,
    tail_coefficients,
)
from .generators import Generator

_ANCHOR = 1.0 / math.sqrt(2.0)
_FLOOR = 1e-12
# Below this a level's maximum does not limit the points it evaluates.
_TINY = 2.0**-1000


def make_grid(domain: Box, spacing: float) -> Grid:
    """Uniform grid on the box with an irrational anchor offset.

    Points are ``lo + (i + 1/sqrt(2)) * spacing`` per coordinate, so the
    cell count per axis is ``floor(length / spacing)`` and every point lies
    strictly inside the box.  The :class:`Grid` keeps the axes, so
    :func:`evaluate` can take its per-axis path.
    """
    if spacing <= 0:
        raise ValueError("grid spacing must be positive")
    axes = []
    for lo, hi in zip(domain.lo, domain.hi):
        n = int(math.floor((hi - lo) / spacing))
        if n < 1:
            raise ValueError("spacing exceeds the box size")
        axes.append(lo + (np.arange(n) + _ANCHOR) * spacing)
    return Grid(axes)


def lp_distance(fv, qv, p: float, spacing: float, d: int) -> float:
    """Riemann ``L_p`` distance of two value arrays on a uniform grid.

    ``p = inf`` gives the maximum pointwise modulus; finite ``p`` the
    weighted sum ``(sum |fv - qv|**p * spacing**d)**(1/p)``.  A non-finite
    difference raises ``ValueError``: a maximum or a fit would otherwise
    drop it.  :func:`convergence_study` reduces slab by slab (:class:`_Lp`,
    naming the level): the same bits at ``p = inf``, at finite ``p`` a sum
    in another order.
    """
    lp = _Lp(p)
    lp.add(np.subtract(fv, qv))
    return lp.result(spacing, d)


class _Lp:
    """An ``L_p`` distance given slab by slab: per slab of ``f - Q_j f``,
    reduced in that array, which it may overwrite: its largest modulus, on
    real values ``max(max, -min)`` without forming ``|f - Q_j f|``, or the
    sum of the ``p``-th powers of ``|f - Q_j f|``."""

    def __init__(self, p: float, level: int | None = None):
        if not p >= 1:
            raise ValueError(f"p must be at least 1, got {p}")
        self.p, self.level, self.total, self.n = p, level, 0.0, 0

    def add(self, diff) -> None:
        real = diff.dtype == float
        if math.isinf(self.p) and real:
            # np.maximum keeps a NaN from either side, where max() would drop it
            top = np.maximum(diff.max(initial=0.0), -diff.min(initial=0.0))
        else:
            diff = np.abs(diff, out=diff) if real else np.abs(diff).astype(float)
            top = diff.max(initial=0.0)
        if not math.isfinite(top):
            at = "" if self.level is None else f" at level {self.level}"
            raise ValueError(f"non-finite difference{at}: max |f - Q_j f| is {top}")
        if math.isinf(self.p):
            self.total = max(self.total, float(top))
        else:
            self.total += float(np.sum(np.power(diff, self.p, out=diff)))
        self.n += diff.size

    def result(self, spacing: float, d: int) -> float:
        if self.n == 0:
            raise ValueError("empty grid")
        if math.isinf(self.p):
            return self.total
        return float((self.total * spacing**d) ** (1.0 / self.p))


# ---------------------------------------------------------------------------
# rate fitting and prediction


@dataclass(frozen=True)
class RateFit:
    slope: float
    r2: float
    used_levels: tuple


def fit_rate(scales, errors, levels=None, skip: int = 0,
             floor: float = _FLOOR) -> RateFit:
    """Least-squares slope of ``log error`` against ``log scale``.

    The first ``skip`` levels are treated as pre-asymptotic and dropped,
    as is every error at or below ``floor`` (quadrature and round-off
    noise).  At least three points must survive, and the surviving scales
    must not be all equal.  A non-finite error raises ``ValueError``: it
    is neither above nor below the floor.
    """
    scales = np.asarray(scales, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if scales.shape != errors.shape or scales.ndim != 1:
        raise ValueError("scales and errors must be matching 1-d arrays")
    if levels is None:
        levels = np.arange(len(scales))
    levels = np.asarray(levels)
    bad = ~np.isfinite(errors)
    if bad.any():
        raise ValueError(f"non-finite error {errors[bad][0]} at level {levels[bad][0]}")
    keep = np.arange(len(scales)) >= skip
    keep &= errors > floor
    if keep.sum() < 3:
        raise ValueError("fewer than three usable levels for the rate fit")
    x = np.log(scales[keep])
    y = np.log(errors[keep])
    if np.ptp(x) == 0:
        raise ValueError("degenerate fit: all surviving scales equal")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), r2, tuple(int(v) for v in levels[keep]))


def predicted_rate(
    n: int | None,
    big_n: int,
    eps: float,
    d: int,
    p: float,
    mode: str,
):
    """Predicted decay exponent of the error against the level scale.

    Parameters
    ----------
    n : int or None
        Generator order (moment-condition and flatness order); None means
        a band-limited spectrum satisfying the conditions to every order.
    big_n : int
        For ``sampling``/``differential``/``flat``: the signal decay
        window.  For ``falsified``/``falsified1d``: the order of the
        ball-moment comparison operator.
    eps : float
        Signal decay margin; ``inf`` when every margin is admissible.
        The ball-averaged modes require ``eps > 1``.
    d, p : dimension and norm index.
    mode : str
        One of ``sampling``, ``differential``, ``falsified``,
        ``falsified1d``, ``flat``.

    Returns
    -------
    (rate, case) : the exponent and the regime label: ``saturation`` when
    the generator order caps the rate, ``smoothness`` when the signal or
    averaging window caps it, ``boundary`` at exact equality (where the
    true bound carries an extra logarithmic factor in the level).
    """
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p}")
    dp = 0.0 if math.isinf(p) else d / p
    if mode in ("sampling", "differential"):
        smooth = big_n + dp + eps
    elif mode == "falsified":
        if eps <= 1.0:
            raise ValueError(
                "ball-averaged rate statements need decay margin above 1"
            )
        smooth = big_n + 1.0
    elif mode == "falsified1d":
        if d != 1:
            raise ValueError("the endpoint-norm variant is one-dimensional")
        smooth = big_n + (0.0 if math.isinf(p) else 1.0 / p)
    elif mode == "flat":
        return (big_n + dp + eps, "smoothness")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if n is None or n > smooth:
        return (smooth, "smoothness")
    if n == smooth:
        return (float(n), "boundary")
    return (float(n), "saturation")


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class StudyPlan:
    """Everything a convergence study needs.

    ``operator`` is the prediction context for ball-averaged rules (its
    order is the window in the ``min(n, N+1)`` cap); for a differential
    rule the coefficients already carry their operator and this field is
    ignored.  ``domain_halfwidth`` defaults to the signal reach plus the
    generator reach.  ``mode`` overrides the rule-inferred prediction
    regime (``flat`` for spectra satisfying the moment conditions to every
    order).
    """

    generator: Generator
    dilation: Dilation
    rule: CoefficientRule
    signal: object
    operator: DiffOperator | None = None
    p: float = math.inf
    j_min: int = 1
    j_max: int = 8
    grid_per_scale: int = 8
    fit_skip: int = 2
    slope_tolerance: float = 0.25
    domain_halfwidth: float | None = None
    truncation_tol: float = 1e-10
    mode: str | None = None
    floor: float = _FLOOR

    def __post_init__(self):
        if self.j_min < 0 or self.j_max <= self.j_min:
            raise ValueError("levels must satisfy 0 <= j_min < j_max")
        if not self.p >= 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
        if self.fit_skip < 0:
            raise ValueError(f"fit_skip must be non-negative, got {self.fit_skip}")
        if self.grid_per_scale <= 0:
            raise ValueError(f"grid_per_scale must be positive, got {self.grid_per_scale}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level errors with the fitted and predicted rates."""

    levels: tuple
    scales: tuple
    errors: tuple
    fitted_slope: float
    fit_r2: float
    used_levels: tuple
    predicted_rate: float
    predicted_case: str
    slope_tolerance: float
    verdict: str
    meta: dict = field(default_factory=dict)


def _infer_mode(rule: CoefficientRule) -> str:
    if isinstance(rule, ExactRule):
        return "sampling"
    if isinstance(rule, DifferentialRule):
        return "differential"
    if isinstance(rule, FalsifiedRule):
        return "falsified"
    raise TypeError(f"unknown rule {rule!r}")


def _prediction_window(plan: StudyPlan, mode: str):
    """The (N, eps) pair entering the rate prediction for this study."""
    if mode in ("falsified", "falsified1d"):
        if plan.operator is None:
            raise ValueError(
                "ball-averaged studies need the comparison operator context"
            )
        return plan.operator.order, plan.signal.decay_eps
    return plan.signal.decay_N, plan.signal.decay_eps


def study_domain(plan: StudyPlan) -> Box:
    """The study box: ``domain_halfwidth``, or by default the signal reach
    ``T0`` plus the generator reach; ``ValueError`` unless finite, or when
    the generator, dilation and signal dimensions differ."""
    g, m, f = plan.generator, plan.dilation, plan.signal
    if g.d != m.d or g.d != f.d:
        raise ValueError("generator, dilation and signal dimensions differ")
    t = plan.domain_halfwidth
    if t is None:
        reach = g.support_radius if g.support_radius is not None else 3.0
        t = f.T0 + reach
    if not math.isfinite(t):
        raise ValueError(f"domain_halfwidth: a study needs a finite box, got {t} "
                         f"({f.name} has T0 = {f.T0})")
    return Box.centered(t, g.d)


def level_grid(plan: StudyPlan, domain: Box, j: int):
    """The level-``j`` error grid on ``domain`` and its spacing.

    The spacing is ``||M^-j|| / grid_per_scale``, a fixed number of points
    per scale unit; the norm is formed once per dilation and level
    (:meth:`Dilation.norm`).
    """
    spacing = plan.dilation.norm(-j) / plan.grid_per_scale
    return make_grid(domain, spacing), spacing


def level_slabs(plan: StudyPlan, domain: Box, j: int):
    """Level ``j``'s grid, its spacing, and ``Q_j f`` on it slab by slab
    (:func:`evaluate_slabs`), from coefficients on the lattice support,
    limited by the signal's tail where that applies
    (:func:`tail_coefficients`)."""
    grid, spacing, cs = _level_coefficients(plan, domain, j)
    return grid, spacing, evaluate_slabs(plan.generator, plan.dilation, j, cs, grid)


def _level_coefficients(plan: StudyPlan, domain: Box, j: int):
    g, m = plan.generator, plan.dilation
    grid, spacing = level_grid(plan, domain, j)
    lattice = lattice_support(g, m, j, domain, plan.truncation_tol)
    return grid, spacing, tail_coefficients(plan.rule, plan.signal, g, m, j, lattice)


def _level_error(plan: StudyPlan, domain: Box, j: int) -> float:
    """Level ``j``'s error, reduced slab by slab; what the level allocated
    is freed on return, before the next level's coefficients.

    At ``p = inf`` the error is a maximum, and a level evaluates only part
    of its grid where its generator is compact and takes the axis operator
    (:func:`expansion._level`), its signal has per-axis values
    (:meth:`Signal.on_grid`), and its coefficients, factor values and tap
    bound ``S`` are finite.  A seed comes first: the period of axis 0's
    rows (one row without a period) that holds the peak of ``|f_0|``.  Its
    maximum ``m`` is at most the level's.  A point whose ``S
    max|c_k|`` over its taps plus ``|f(x)|`` is at most ``m' = m (1 -
    2**-40)`` has ``|f - Q_j f| < m``, rounding included, so only the box
    around the other points is evaluated: those with ``S |c_k| > m'/2`` at
    a tap (:func:`expansion._reach`) or ``prod_i |f_i(x_i)| > m'/2``
    (:func:`_signal_reach`), on the last axis formed only there.  The error
    is the whole grid's maximum, bit for bit.  Finite ``p``, unbounded
    generators, grids off lines (rows mode), signals of ``d >= 2`` without
    a factor and grids of one slab (one operator call either way) go whole.

    Such a level of ball averages in ``d >= 2``, of a real signal with a
    ``factor`` and a ``tail`` majorant, finite ``T0``, under a diagonal
    ``M^-j`` and a real generator, forms its coefficients only where that
    maximum can lie.  (In 1-d a level's box is small next to its grid,
    7,511 coefficients for 60,087 points at ``kink1d``'s level 7, and
    forming a quarter of it measured no faster in the benchmark.)  Its
    evaluator is built over a zero-filled coefficient box, which it reads
    in place; its tables, box checks and ``S`` read no coefficient.  The
    seed is then one period of axis 0 and one of the last axis at the peaks
    of ``|f_i|`` (and every point of the axes between, which the operator
    forms whole), and the tail's majorant (:func:`expansion._majorant`)
    stands in for ``|c_k|`` in the box.  Before each call the coefficients
    at the taps of its points are formed (:func:`coefficients`, whose bits
    no box changes), out to the whole tiles of the last two axes that
    :func:`expansion._average_axes` computes anyway, unless an earlier
    fill holds them: for the seed, at the taps of two periods of axis 0 on
    either side of it too, since the operator forms and keeps up to two
    periods on either side of a call's rows.  So every coefficient that a
    kept sum holds is formed before that sum is; the others are never
    formed, as a tail box leaves out those of an unbounded generator
    (:func:`tail_coefficients`)."""
    g, m, f, rule = plan.generator, plan.dilation, plan.signal, plan.rule
    grid, spacing = level_grid(plan, domain, j)
    lattice = lattice_support(g, m, j, domain, plan.truncation_tol)
    shape, lp = tuple(x.size for x in grid.axes), _Lp(plan.p, j)
    values, axes = f.on_grid(grid)
    # ball averages formed where the maximum can lie (see above); real
    # values and factors, so that the evaluator reads the box in place
    lazy = (math.isinf(plan.p) and isinstance(rule, FalsifiedRule) and g.d >= 2
            and g.support_radius is not None and getattr(f, "factor", None) is not None
            and _tail_bounds(rule, f, m, j) and grid.slab_rows(expansion._ROWS) < shape[0]
            and _kind(g) == float and all(map(np.isrealobj, axes)))
    cs = (Coefficients(lattice, np.zeros(lattice.shape)) if lazy
          else tail_coefficients(rule, f, g, m, j, lattice))
    level = _level(g, m, j, cs, grid)
    filled, side = [], expansion._SIDE

    def fill(box):
        # the coefficients at the taps of the points box, one index range per
        # axis, with a lattice point to spare on each side, out to whole
        # tiles on the last two axes (_average_axes forms them anyway); none
        # if an earlier fill formed them
        r, lo, hi = g.support_radius, [], []
        for a, (x, (p, q), s, o, n) in enumerate(zip(grid.axes, box, np.diagonal(m.power(j)),
                                                     lattice.origin, lattice.shape)):
            y = s * x[[p, q - 1]]
            u, v = math.floor(y.min() - r) - 1, math.ceil(y.max() + r) + 2
            if a >= g.d - 2:
                u, v = u - u % side, v + -v % side
            lo.append(max(o, u))
            hi.append(min(o + n, v))
        if any(np.all(np.less_equal(u, lo)) and np.all(np.less_equal(hi, v)) for u, v in filled):
            return
        filled.append((lo, hi))
        cs.values[tuple(slice(u - o, v - o) for u, v, o in zip(lo, hi, lattice.origin))] = (
            coefficients(rule, f, m, j, Lattice(lo, np.subtract(hi, lo))).values)

    def add(lo, hi, box=()):
        # Q_j f at the rows lo:hi and the ranges box of the later axes (all
        # where none), formed only there on the last axis
        sub = (slice(lo, hi),) + tuple(slice(a, b) for a, b in box)
        qv = level.run(lo, hi, box[-1] if box else None).reshape((hi - lo,) + shape[1:])
        qv = qv[(slice(None),) + sub[1:]]
        fv = values(sub + (slice(None),) * (len(shape) - len(sub))).reshape(qv.shape)
        # f - Q_j f in the signal's buffer where it holds the difference
        fits = fv.flags.writeable and np.can_cast(qv.dtype, fv.dtype)
        lp.add(np.subtract(fv, qv, out=fv) if fits else fv - qv)

    # a grid of one slab is one operator call either way: a seed and boxes only add to it
    mods = (math.isinf(plan.p) and level.reach and axes and level.rows < shape[0]
            and [np.abs(v) for v in axes])
    peaks = mods and [int(v.argmax()) for v in mods]
    tops = mods and [float(v[i]) for v, i in zip(mods, peaks)]  # NaN where one is
    if not (mods and all(map(math.isfinite, tops))):
        if lazy:
            fill([(0, n) for n in shape])
        for lo, hi, _ in level.slabs():
            add(lo, hi)
        return lp.result(spacing, g.d)
    unit = min(level.units[0], level.rows)
    s0 = peaks[0] - peaks[0] % unit
    seed = [(s0, min(s0 + unit, shape[0]))]
    if lazy:
        if len(shape) > 1:
            c0 = peaks[-1] - peaks[-1] % level.units[-1]
            seed += [(0, n) for n in shape[1:-1]] + [(c0, min(c0 + level.units[-1], shape[-1]))]
        # the operator forms, and keeps, two periods of axis 0 at most on
        # either side of a call's rows
        reach = 2 * level.units[0]
        fill([(max(0, s0 - reach), min(seed[0][1] + reach, shape[0]))] + seed[1:])
    add(*seed[0], tuple(seed[1:]))
    half = lp.total * (1 - 2**-40) / 2
    # near the subnormals rounding is not relative: there, the whole grid
    near = (level.reach(half, _majorant(rule, f, m, j, lattice) if lazy else None)
            if half >= _TINY else [(-math.inf, math.inf)] * len(shape))
    boxes = [_signal_reach(mods, tops, half)]
    if near:  # a box of points; make_grid's axes increase
        boxes.append([(int(np.searchsorted(x, a)), int(np.searchsorted(x, b, "right")))
                      for x, (a, b) in zip(grid.axes, near)])
    boxes = [box for box in boxes if all(lo < hi for lo, hi in box)]
    if boxes:
        (r0, r1), *box = [(min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
                          for a in range(len(shape))]
        if lazy:
            fill([(r0, r1)] + box)
        # slabs of up to as many points in the box's columns as the level's
        # hold in whole rows, the workspace of four slabs at most
        rows = level.rows * (min(4, shape[-1] // (box[-1][1] - box[-1][0])) if box else 1)
        for a, b, _ in level.slabs(r0, r1, rows):
            add(a, b, tuple(box))
    return lp.result(spacing, g.d)


def _signal_reach(mods, tops, t: float):
    """One index range ``(lo, hi)`` per axis (``lo >= hi`` where none)
    outside which ``|f(x)| <= prod_i mods_i`` is at most ``t``, ``tops``
    the largest of each ``mods_i``."""
    out = []
    for a, v in enumerate(mods):
        rest = math.prod(tops[:a] + tops[a + 1:])
        on = v > (t / rest if rest else math.inf)
        out.append((int(on.argmax()), on.size - int(on[::-1].argmax())) if on.any() else (0, 0))
    return out


def convergence_study(plan: StudyPlan) -> ConvergenceReport:
    """Run the expansion across levels and fit the error decay rate.

    The prediction is made before the first level, so a plan without one
    raises ``ValueError`` before any work.  Each level's error is reduced
    slab by slab (:func:`evaluate_slabs`): per slab, ``Q_j f``, then ``f``
    in one buffer per level, then ``f - Q_j f`` in that buffer, into the
    running maximum or ``p``-th power sum (:func:`lp_distance`'s bits at
    ``p = inf``; at finite ``p`` within ``1e-13`` relative of it in the
    tests).  So a level holds its coefficient box and one slab's
    workspace, and a non-finite difference raises ``ValueError`` naming the
    level.  At ``p = inf`` with a compact generator on the axis operator,
    a signal with per-axis values and a grid of more than one slab, a level
    evaluates a seed of a period's rows at the peak of ``|f|``, then only
    the box of points where ``S max|c_k|`` over the taps plus ``|f|`` can
    reach the seed's maximum (``S`` bounds ``sum_k |phi(y - k)|``): its
    error is the whole grid's, bit for bit (:func:`_level_error`).  Such a
    level of ball averages of a signal with a ``tail`` majorant, under a
    diagonal ``M^-j``, forms only the tiles of coefficients at the taps of
    the points it evaluates in ``d >= 2`` (25.3% of ``ball2d``'s), with the
    tail's bound on ``|c_k|`` in place of the coefficients.  The
    verdict is ``pass`` when the fitted slope is within ``slope_tolerance``
    of the prediction, ``fail`` otherwise, and ``inconclusive`` when fewer
    than three levels survive the fit filters (pre-asymptotic skip plus the
    round-off floor).
    """
    g = plan.generator
    domain = study_domain(plan)
    mode = plan.mode if plan.mode is not None else _infer_mode(plan.rule)
    big_n, eps = _prediction_window(plan, mode)
    rate, case = predicted_rate(g.sf_order, big_n, eps, g.d, plan.p, mode)
    return _study(plan, domain, _level_error, rate, case,
                  mode=mode, window=big_n, decay_eps=eps)


def _level_deviation(plan: StudyPlan, domain: Box, j: int) -> float:
    """Level ``j``'s ``max_k |ball average - differential coefficient|``
    over the lattice points of ``M^j domain``."""
    f, m = plan.signal, plan.dilation
    lattice = _image_box(m, j, domain, 0.0)
    avg = coefficients(plan.rule, f, m, j, lattice).values
    dif = coefficients(DifferentialRule(plan.operator), f, m, j, lattice).values
    top = float(np.abs(avg - dif).max())
    if not math.isfinite(top):
        raise ValueError(f"non-finite deviation at level {j}: max is {top}")
    return top


def deviation_study(plan: StudyPlan) -> ConvergenceReport:
    """Fit the decay of ``max_k |ball average - differential coefficient|``
    across levels, with :func:`convergence_study`'s fit and verdict.

    ``plan.rule`` is a :class:`FalsifiedRule` and ``plan.operator`` its
    ball-moment comparison operator.  Level ``j`` takes the lattice points
    of ``M^j`` times :func:`study_domain`.  The prediction is
    ``operator.order + 1`` (case ``smoothness``, ``meta`` mode
    ``deviation``), for signals with enough smoothness and decay.  Another
    rule, a missing operator or one of another dimension than the
    dilation, and a finite ``p`` raise ``ValueError`` before any
    coefficient.  ``mode``, ``grid_per_scale`` and ``truncation_tol`` are
    not read.
    """
    op, d = plan.operator, plan.dilation.d
    if not isinstance(plan.rule, FalsifiedRule):
        raise ValueError(f"rule: a deviation study compares ball averages, got {plan.rule!r}")
    if op is None:
        raise ValueError("operator: a deviation study needs the comparison operator")
    if op.d != d:
        raise ValueError(f"operator: dimension {op.d} differs from the dilation's {d}")
    if not math.isinf(plan.p):
        raise ValueError(f"p: the deviation is a maximum, so p must be inf, got {plan.p}")
    domain = study_domain(plan)
    return _study(plan, domain, _level_deviation, float(op.order + 1), "smoothness",
                  mode="deviation", window=op.order, decay_eps=plan.signal.decay_eps)


def _study(plan: StudyPlan, domain: Box, measure, rate: float, case: str,
           **meta) -> ConvergenceReport:
    """The level loop of both studies: ``measure(plan, domain, j)`` per
    level, the rate fit against the scales (``fit_skip``, ``floor``), the
    verdict against ``rate`` (``slope_tolerance``), and the report, whose
    ``meta`` starts with ``meta``."""
    m = plan.dilation
    levels = list(range(plan.j_min, plan.j_max + 1))
    scales, errors = [], []
    for j in levels:
        errors.append(measure(plan, domain, j))
        scales.append(m.scale(j))
    try:
        fit = fit_rate(scales, errors, levels=levels, skip=plan.fit_skip,
                       floor=plan.floor)
        verdict = (
            "pass" if abs(fit.slope - rate) <= plan.slope_tolerance else "fail"
        )
    except ValueError:
        fit = RateFit(float("nan"), float("nan"), ())
        verdict = "inconclusive"
    return ConvergenceReport(
        levels=tuple(levels),
        scales=tuple(scales),
        errors=tuple(errors),
        fitted_slope=fit.slope,
        fit_r2=fit.r2,
        used_levels=fit.used_levels,
        predicted_rate=rate,
        predicted_case=case,
        slope_tolerance=plan.slope_tolerance,
        verdict=verdict,
        meta={
            **meta,
            "p": plan.p,
            "domain_halfwidth": domain.hi[0],
            "scale_case": "isotropic" if m.isotropic else "min-modulus",
            "generator": plan.generator.name,
            "signal": plan.signal.name,
        },
    )
