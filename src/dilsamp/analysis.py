"""Empirical convergence analysis of sampling expansions.

A study evaluates the expansion error ``|f - Q_j f|`` in an ``L_p`` norm on
a fixed box across a range of levels, fits the log-log slope against the
per-level scale, and compares it with the predicted rate for the chosen
rule, generator order, operator window, and signal decay.

The error norm is a Riemann sum on a uniform grid whose spacing tracks the
level (a fixed number of points per scale unit) and whose anchor carries an
irrational offset, so lattice-aligned artifacts (for instance exactness of
interpolatory generators at lattice points) never dominate the measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import Grid
from ._quadrature import QuadSpec
from .diffop import DiffOperator
from .dilation import Dilation, operator_norm
from .expansion import (
    Box,
    CoefficientRule,
    DifferentialRule,
    ExactRule,
    FalsifiedRule,
    _image_box,
    coefficients,
    deviation,
    evaluate_slabs,
    lattice_support,
)
from .generators import Generator

_ANCHOR = 1.0 / math.sqrt(2.0)
_FLOOR = 1e-12


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
    drop it.  :func:`convergence_study` reduces the same way slab by slab
    (:class:`_Lp`, whose error names the level): the same bits at
    ``p = inf``, and at finite ``p`` a sum in another order.
    """
    lp = _Lp(p)
    lp.add(np.asarray(fv), np.asarray(qv))
    return lp.result(spacing, d)


class _Lp:
    """An ``L_p`` distance given slab by slab: per slab, the maximum of
    ``|fv - qv|`` or the sum of its ``p``-th powers, formed in buffers
    allocated at the first slab (the largest, in :meth:`Grid.slabs`)."""

    def __init__(self, p: float, level: int | None = None):
        if p < 1:
            raise ValueError("p must be at least 1")
        self.p, self.level, self.total, self.n = p, level, 0.0, 0
        self.diff = self.mod = np.empty(0)

    def add(self, fv, qv) -> None:
        shape = np.broadcast_shapes(np.shape(fv), np.shape(qv))
        n = math.prod(shape)
        if n > self.diff.size:
            self.diff = np.empty(n, dtype=np.result_type(fv, qv))
            self.mod = np.empty(n)
        mod = np.abs(np.subtract(fv, qv, out=self.diff[:n].reshape(shape)),
                     out=self.mod[:n].reshape(shape))
        top = mod.max(initial=0.0)
        if not math.isfinite(top):
            at = "" if self.level is None else f" at level {self.level}"
            raise ValueError(f"non-finite difference{at}: max |f - Q_j f| is {top}")
        if math.isinf(self.p):
            self.total = max(self.total, float(top))
        else:
            self.total += float(np.sum(np.power(mod, self.p, out=mod)))
        self.n += n

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
    if p < 1:
        raise ValueError("p must be at least 1")
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
    ``T0`` plus the generator reach; ``ValueError`` unless finite."""
    t = plan.domain_halfwidth
    if t is None:
        g = plan.generator
        reach = g.support_radius if g.support_radius is not None else 3.0
        t = plan.signal.T0 + reach
    if not math.isfinite(t):
        raise ValueError(f"domain_halfwidth: a study needs a finite box, got {t} "
                         f"({plan.signal.name} has T0 = {plan.signal.T0})")
    return Box.centered(t, plan.generator.d)


def level_grid(plan: StudyPlan, domain: Box, j: int):
    """The level-``j`` error grid on ``domain`` and its spacing.

    The spacing is ``||M^-j|| / grid_per_scale``, a fixed number of points
    per scale unit.
    """
    spacing = operator_norm(plan.dilation.power(-j)) / plan.grid_per_scale
    return make_grid(domain, spacing), spacing


def level_slabs(plan: StudyPlan, domain: Box, j: int):
    """Level ``j``'s grid, its spacing, and ``Q_j f`` on it slab by slab
    (:func:`evaluate_slabs`), from coefficients on the lattice support."""
    g, m = plan.generator, plan.dilation
    grid, spacing = level_grid(plan, domain, j)
    lattice = lattice_support(g, m, j, domain, plan.truncation_tol)
    cs = coefficients(plan.rule, plan.signal, m, j, lattice)
    return grid, spacing, evaluate_slabs(g, m, j, cs, grid)


def _level_error(plan: StudyPlan, domain: Box, j: int) -> float:
    """Level ``j``'s error, reduced slab by slab; what the level allocated
    is freed on return, before the next level's coefficients."""
    grid, spacing, slabs = level_slabs(plan, domain, j)
    signal, lp = plan.signal.on_grid(grid), _Lp(plan.p, j)
    for part, qv in slabs:
        lp.add(signal(part), qv)
    return lp.result(spacing, plan.generator.d)


def convergence_study(plan: StudyPlan) -> ConvergenceReport:
    """Run the expansion across levels and fit the error decay rate.

    The prediction is made before the first level, so a plan without one
    raises ``ValueError`` before any work.  Each level's error is reduced
    slab by slab (:func:`evaluate_slabs`): per slab of the level's grid,
    ``Q_j f``, then ``f``, then ``|f - Q_j f|`` into the running maximum or
    ``p``-th power sum (:func:`lp_distance`'s bits at ``p = inf``; at
    finite ``p`` within ``1e-13`` relative of it in the tests).  So a
    level holds its coefficient box and one slab's workspace, not its
    grid's values, and a non-finite difference raises ``ValueError``
    naming the level.  The verdict is ``pass`` when
    the fitted slope is within ``slope_tolerance`` of the prediction,
    ``fail`` otherwise, and ``inconclusive`` when fewer than three levels
    survive the fit filters (pre-asymptotic skip plus the round-off floor).
    """
    g, m, f = plan.generator, plan.dilation, plan.signal
    if g.d != m.d or g.d != f.d:
        raise ValueError("generator, dilation and signal dimensions differ")
    domain = study_domain(plan)
    mode = plan.mode if plan.mode is not None else _infer_mode(plan.rule)
    big_n, eps = _prediction_window(plan, mode)
    rate, case = predicted_rate(g.sf_order, big_n, eps, g.d, plan.p, mode)
    levels = list(range(plan.j_min, plan.j_max + 1))
    scales, errors = [], []
    for j in levels:
        errors.append(_level_error(plan, domain, j))
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
            "mode": mode,
            "window": big_n,
            "decay_eps": eps,
            "p": plan.p,
            "domain_halfwidth": domain.hi[0],
            "scale_case": "isotropic" if m.isotropic else "min-modulus",
            "generator": g.name,
            "signal": f.name,
        },
    )


# ---------------------------------------------------------------------------
# deviation study


@dataclass(frozen=True)
class DeviationReport:
    """Per-level maxima of the ball-average-minus-differential gap."""

    levels: tuple
    scales: tuple
    errors: tuple
    fitted_slope: float
    fit_r2: float
    predicted_rate: float


def deviation_study(
    f,
    op: DiffOperator,
    m: Dilation,
    h: float,
    j_min: int = 1,
    j_max: int = 7,
    domain_halfwidth: float | None = None,
    quad: QuadSpec = QuadSpec(),
) -> DeviationReport:
    """Fit the decay of ``max_k`` of the deviation across levels.

    The deviation at level ``j`` compares the ball average of radius
    ``h`` (in lattice coordinates) with the differential coefficient under
    the ball-moment operator ``op``; its maximum decays like
    ``scale(j)**(op.order + 1)`` for signals with enough smoothness and
    decay.
    """
    t = domain_halfwidth if domain_halfwidth is not None else f.T0
    domain = Box.centered(t, m.d)
    levels = list(range(j_min, j_max + 1))
    scales, errors = [], []
    for j in levels:
        ks = _image_box(m, j, domain, 0.0).points()
        dev = deviation(f, op, m, j, ks, h, quad)
        errors.append(float(np.abs(dev).max()))
        scales.append(m.scale(j))
    fit = fit_rate(scales, errors)
    return DeviationReport(
        levels=tuple(levels),
        scales=tuple(scales),
        errors=tuple(errors),
        fitted_slope=fit.slope,
        fit_r2=fit.r2,
        predicted_rate=float(op.order + 1),
    )
