"""Generator catalog: space/frequency pairs used to build expansions.

A generator is a function ``phi`` together with its Fourier transform
``phi_hat`` (convention ``integral f(x) exp(-2 pi i x xi) dx``), support and
decay metadata, and the moment-condition order its spectrum satisfies on
the integer lattice (``D^beta phi_hat(k) = 0`` for ``k != 0`` and all
``beta`` of total order below ``n``).

The catalog contains

* ``sinc_squared``: tensor squared sinc, triangular spectrum, interpolatory,
  order 1; the spectrum has kinks on the integer lattice.
* ``sinc_squared_twoscale``: a two-scale difference of squared sincs whose
  spectrum is supported in the unit cube and is flat (identically 1) near
  the origin; band limited.
* ``hat``: tensor hat function (second-order cardinal B-spline), squared
  sinc spectrum, order 2.
* ``bspline3_2d``: two-parameter plane family built from shifted cubic
  (third-order) B-splines; free parameters tune the spectrum's second
  derivatives at the origin.
* ``bspline4_1d``: three-parameter line family built from shifted
  fourth-order B-splines; calibrated instances reach order 4.

The parametric families are exposed both as factories and as
:class:`GeneratorFamily` objects for the calibration solver.  Amplitudes of
odd shift terms are imaginary, so spatial values are complex in general;
every catalog spectrum is real at the origin with value 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._arrays import Lattice
from ._finitediff import fd_partial
from .multiindex import indices_of_order


@dataclass(frozen=True)
class Generator:
    """A space/frequency pair with the metadata the expansion code needs.

    ``support_radius`` is the sup-norm halfwidth of the support (None for
    generators with unbounded support; then ``decay_const`` bounds
    ``|phi|`` per coordinate by ``decay_const / x_i**2``).  ``sf_order`` is
    the declared moment-condition order (None for band-limited spectra,
    which satisfy the conditions to every order).  ``fourier_analytic``
    marks spectra that are smooth on all of frequency space; spectra with
    lattice kinks only admit the order-1 value check.  ``factor`` is the 1-d
    function with ``phi(x) = prod_i factor(x_i)``, or None if there is none.
    """

    name: str
    d: int
    fourier: Callable
    spatial: Callable
    support_radius: Optional[float]
    sf_order: Optional[int]
    decay_const: float = 0.0
    fourier_analytic: bool = True
    band_limited: bool = False
    interpolatory: bool = False
    params: dict = field(default_factory=dict)
    factor: Optional[Callable] = None


# ---------------------------------------------------------------------------
# B-splines


def bspline(m: int, x):
    """Centered cardinal B-spline of order ``m`` (support ``[-m/2, m/2]``).

    ``m = 1`` is the indicator of the centered unit interval; each further
    order convolves by it once more.  Evaluated by the truncated-power
    formula, exact up to round-off for the orders used here.
    """
    if m < 1:
        raise ValueError("B-spline order must be at least 1")
    t = np.asarray(x, dtype=float) + m / 2.0
    out = np.zeros_like(t)
    if m == 1:
        return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)
    for k in range(m + 1):
        u = t - k
        out += (-1.0) ** k * math.comb(m, k) * np.where(u > 0.0, u, 0.0) ** (m - 1)
    out /= math.factorial(m - 1)
    # the alternating sum cancels only to round-off past the support
    return np.where((t > 0.0) & (t < m), out, 0.0)


def bspline_fourier(m: int, xi):
    """Transform of the centered cardinal B-spline: ``sinc(xi)**m``."""
    return np.sinc(np.asarray(xi, dtype=float)) ** m


# ---------------------------------------------------------------------------
# trigonometric numerators realized as B-spline shifts


@dataclass(frozen=True)
class ShiftTerm:
    shift: float
    amplitude: complex


def sin_power_shifts(m: int, powers: dict) -> tuple[ShiftTerm, ...]:
    """Realize ``sum_s c_s sin(pi xi)**(m+s) / (pi xi)**m`` in space.

    Parameters
    ----------
    m : int
        B-spline order carrying the denominator.
    powers : mapping
        ``s -> c_s`` for extra sine powers ``s >= 0``.

    Returns
    -------
    tuple of :class:`ShiftTerm`
        Terms of ``sum_j a_j B_m(x - h_j)`` with half-integer shifts.
        Writing each sine as a difference of complex exponentials gives
        ``sin(pi xi)**s = (2i)**-s sum_r binom(s, r) (-1)**r
        exp(i pi xi (s - 2r))`` and the factor ``exp(i pi xi (s - 2r))``
        moves the spline by ``-(s - 2r) / 2``.
    """
    acc: dict[float, complex] = {}
    for s, c in powers.items():
        s = int(s)
        if s < 0:
            raise ValueError("sine powers must be non-negative")
        base = complex(c) * (2j) ** (-s)
        for r in range(s + 1):
            amp = base * math.comb(s, r) * (-1.0) ** r
            h = -(s - 2 * r) / 2.0
            acc[h] = acc.get(h, 0.0 + 0.0j) + amp
    terms = tuple(
        ShiftTerm(h, a) for h, a in sorted(acc.items()) if a != 0.0 + 0.0j
    )
    return terms


def _shift_spatial(m: int, terms: tuple[ShiftTerm, ...]):
    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for t in terms:
            out += t.amplitude * bspline(m, x - t.shift)
        return out

    return ev


def _shift_fourier(m: int, powers: dict):
    def ev(xi):
        xi = np.asarray(xi, dtype=float)
        s4 = np.sinc(xi) ** m
        u = np.pi * xi
        num = np.zeros(xi.shape, dtype=complex)
        for s, c in powers.items():
            num += complex(c) * np.sin(u) ** int(s)
        return s4 * num

    return ev


# ---------------------------------------------------------------------------
# catalog


def _tensor(fn1d, d):
    def ev(z):
        z = np.asarray(z)
        out = fn1d(z[..., 0])
        for i in range(1, d):
            out = out * fn1d(z[..., i])
        return out

    return ev


def _triangle(s):
    s = np.asarray(s, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(s))


def sinc_squared(d: int = 1) -> Generator:
    """Tensor squared sinc; triangular spectrum, interpolatory, order 1."""
    factor = lambda x: np.sinc(x) ** 2 + 0.0j
    spatial = _tensor(factor, d)
    fourier = _tensor(_triangle, d)
    return Generator(
        name="sinc_squared",
        d=d,
        fourier=lambda xi: fourier(np.asarray(xi, dtype=float)) + 0.0j,
        spatial=spatial,
        support_radius=None,
        sf_order=1,
        decay_const=1.0 / math.pi**2,
        fourier_analytic=False,
        interpolatory=True,
        factor=factor,
    )


def sinc_squared_twoscale(d: int = 1) -> Generator:
    """Two-scale difference of squared sincs; spectrum flat near 0 and
    supported in the unit cube (band limited)."""
    psi = _tensor(lambda x: np.sinc(x) ** 2, d)
    psi_hat = _tensor(_triangle, d)

    def spatial(x):
        x = np.asarray(x, dtype=float)
        return (2.0 ** (1 - d)) * psi(x / 2.0) - (4.0 ** (-d)) * psi(x / 4.0) + 0.0j

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        return 2.0 * psi_hat(2.0 * xi) - psi_hat(4.0 * xi) + 0.0j

    return Generator(
        name="sinc_squared_twoscale",
        d=d,
        fourier=fourier,
        spatial=spatial,
        support_radius=None,
        sf_order=None,
        decay_const=2.0 / math.pi**2 * 4.0,
        fourier_analytic=False,
        band_limited=True,
        factor=(lambda x: spatial(np.asarray(x)[..., None])) if d == 1 else None,
    )


def _hat1d(x):
    """``bspline(2, x) + 0j`` bit for bit, in closed form: on ``[1, 2)`` the
    truncated-power sum ``t - 2 (t - 1)`` is exactly ``2 - t``."""
    t = np.asarray(x, dtype=float) + 1.0
    return np.where((t > 0.0) & (t < 2.0), np.minimum(t, 2.0 - t), 0.0) + 0.0j


def hat(d: int = 1) -> Generator:
    """Tensor hat (order-2 B-spline); squared-sinc spectrum, order 2."""
    spatial = _tensor(_hat1d, d)
    fourier = _tensor(lambda s: np.sinc(s) ** 2, d)
    return Generator(
        name="hat",
        d=d,
        fourier=lambda xi: fourier(np.asarray(xi, dtype=float)) + 0.0j,
        spatial=spatial,
        support_radius=1.0,
        sf_order=2,
        interpolatory=True,
        factor=_hat1d,
    )


def bspline3_2d(b1: float = 0.5, b2: float = 0.5) -> Generator:
    """Two-parameter plane family over cubic B-spline shifts.

    The spectrum is ``sinc(xi1)**3 sinc(xi2)**3 (1 + b1 sin(pi xi1)**2
    + b2 sin(pi xi2)**2)``; its value at the origin is 1, first-order
    derivatives vanish there, and the pure second derivatives are
    ``pi**2 (2 b1 - 1)`` and ``pi**2 (2 b2 - 1)``.  Moment conditions hold
    to order 3 on the lattice for any parameter values.
    """
    shifted1 = _shift_spatial(3, sin_power_shifts(3, {2: float(b1)}))
    shifted2 = _shift_spatial(3, sin_power_shifts(3, {2: float(b2)}))

    def spatial(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        base1 = bspline(3, x1) + 0.0j
        base2 = bspline(3, x2) + 0.0j
        return base1 * base2 + shifted1(x1) * base2 + base1 * shifted2(x2)

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        s1 = np.sinc(xi[..., 0]) ** 3
        s2 = np.sinc(xi[..., 1]) ** 3
        u1 = np.pi * xi[..., 0]
        u2 = np.pi * xi[..., 1]
        return (
            s1
            * s2
            * (1.0 + float(b1) * np.sin(u1) ** 2 + float(b2) * np.sin(u2) ** 2)
            + 0.0j
        )

    return Generator(
        name="bspline3_2d",
        d=2,
        fourier=fourier,
        spatial=spatial,
        support_radius=2.5,
        sf_order=3,
        params={"b1": float(b1), "b2": float(b2)},
    )


def bspline4_1d(b1: complex = 0.0, b2: complex = 0.0, b3: complex = 0.0) -> Generator:
    """Three-parameter line family over fourth-order B-spline shifts.

    The spectrum is ``sinc(xi)**4 (1 + b1 sin(pi xi) + b2 sin(pi xi)**2
    + b3 sin(pi xi)**3)``.  Derivatives at the origin:
    value 1, ``pi b1``, ``(2/3) pi**2 (3 b2 - 2)``, ``pi**3 (6 b3 - 5 b1)``.
    Odd sine powers carry imaginary amplitudes in space.  Moment conditions
    hold to order 4 on the lattice for any parameter values.
    """
    powers = {0: 1.0, 1: complex(b1), 2: complex(b2), 3: complex(b3)}
    shift_powers = {s: c for s, c in powers.items() if s > 0 and c != 0}
    terms = (ShiftTerm(0.0, 1.0 + 0.0j),) + sin_power_shifts(4, shift_powers)
    reach = max(abs(t.shift) for t in terms) + 2.0
    shifted = _shift_spatial(4, terms)

    def spatial(x):
        return shifted(np.asarray(x, dtype=float)[..., 0])

    f_1d = _shift_fourier(4, powers)

    def fourier(xi):
        xi = np.asarray(xi)
        return f_1d(xi[..., 0])

    return Generator(
        name="bspline4_1d",
        d=1,
        fourier=fourier,
        spatial=spatial,
        support_radius=float(reach),
        sf_order=4,
        params={"b1": complex(b1), "b2": complex(b2), "b3": complex(b3)},
        factor=shifted,
    )


# ---------------------------------------------------------------------------
# parametric families for calibration


@dataclass(frozen=True)
class GeneratorFamily:
    """A named factory with an ordered free-parameter list.

    The spectrum must depend affinely on the parameters; the calibration
    solver relies on that to assemble its linear system from evaluations at
    the zero and unit parameter vectors.
    """

    name: str
    d: int
    param_names: tuple
    factory: Callable

    def make(self, params) -> Generator:
        if isinstance(params, dict):
            vals = [params[n] for n in self.param_names]
        else:
            vals = list(params)
        if len(vals) != len(self.param_names):
            raise ValueError(
                f"family {self.name} expects {len(self.param_names)} parameters"
            )
        return self.factory(*vals)


def bspline3_family() -> GeneratorFamily:
    return GeneratorFamily(
        name="bspline3_2d", d=2, param_names=("b1", "b2"), factory=bspline3_2d
    )


def bspline4_family() -> GeneratorFamily:
    return GeneratorFamily(
        name="bspline4_1d", d=1, param_names=("b1", "b2", "b3"), factory=bspline4_1d
    )


named_generators = {
    "sinc_squared": sinc_squared,
    "sinc_squared_twoscale": sinc_squared_twoscale,
    "hat": hat,
    "bspline3_2d": bspline3_2d,
    "bspline4_1d": bspline4_1d,
}

named_families = {
    "bspline3_2d": bspline3_family(),
    "bspline4_1d": bspline4_family(),
}


# ---------------------------------------------------------------------------
# spectrum inspection


def fourier_derivative(g: Generator, beta, xi) -> complex:
    """``D^beta phi_hat`` at ``xi`` by finite differences.

    Total order at most 6.  Contracted accuracy (absolute error below
    ``1e-7 * max(1, scale)``) holds where the spectrum is smooth; spectra
    with lattice kinks are only inspected away from the kink set.
    """
    xi = np.asarray(xi, dtype=float).reshape(g.d)
    scale = max(1.0, float(np.max(np.abs(xi))))
    return fd_partial(g.fourier, xi, beta, scale=scale)


def _lattice_points(d: int, radius: int):
    """Nonzero integer points within sup-norm ``radius``, last axis fastest."""
    pts = Lattice((-radius,) * d, (2 * radius + 1,) * d).points()
    return pts[np.any(pts != 0, axis=1)]


def strang_fix_table(g: Generator, n_max: int, tol: float = 1e-7):
    """Lattice moment-condition residuals and the detected order.

    Scans ``|D^beta phi_hat(k)|`` order by order over every nonzero
    integer lattice point within sup-norm radius 3 (8 for band-limited
    spectra, whose far translates also matter), stopping after the first
    order with a residual at or above ``tol``.  Spectra that are not
    smooth on the lattice only admit the order-1 value check, so the scan
    stops there.

    Returns ``(order, rows)`` where ``order`` is the largest ``n <= n_max``
    with all residuals of total order below ``n`` under ``tol``, and each
    row is ``(k, beta, residual)``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    radius = 8 if g.band_limited else 3
    pts = _lattice_points(g.d, radius)
    best = 0
    rows = []
    for n in range(1, n_max + 1):
        if n > 1 and not g.fourier_analytic:
            break
        order = n - 1
        ok = True
        for beta in indices_of_order(order, g.d):
            for k in pts:
                if order == 0:
                    val = complex(np.asarray(g.fourier(k.astype(float)[None, :]))[0])
                else:
                    val = fourier_derivative(g, beta, k.astype(float))
                rows.append((tuple(int(v) for v in k), beta, abs(val)))
                ok = ok and abs(val) < tol
        if not ok:
            break
        best = n
    return best, rows


def strang_fix_order(g: Generator, n_max: int, tol: float = 1e-7) -> int:
    """Largest order ``n <= n_max`` of lattice moment conditions."""
    return strang_fix_table(g, n_max, tol)[0]
