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

A family is its factory: its free parameters are the keys of its default
generator's ``params``, in order, passed as keywords; a factory without
them takes the dimension.  Amplitudes of odd shift terms are imaginary, so
spatial values are complex in general; every catalog spectrum is real at
the origin with value 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, Optional

import numpy as np

from ._arrays import Lattice
from ._finitediff import fd_partial
from .multiindex import indices_of_order


@dataclass(frozen=True)
class Generator:
    """A space/frequency pair with the metadata the expansion code needs.

    ``terms`` is ``phi`` as a sum of rank-1 terms, each a tuple of ``d`` 1-d
    functions (:meth:`spatial`); a tensor generator has one, and so does
    every 1-d generator, whose terms are folded into one factor.
    ``support_radius`` is the sup-norm halfwidth of the support (None for
    generators with unbounded support; then every factor is a
    :class:`SquaredSincs`, a 1-d fold merges their pairs, and
    ``decay_const`` bounds ``|phi|`` per coordinate by
    ``decay_const / x_i**2``).  ``sf_order`` is
    the declared moment-condition order (None for band-limited spectra,
    which satisfy the conditions to every order).  ``fourier_analytic``
    marks spectra that are smooth on all of frequency space; spectra with
    lattice kinks only admit the order-1 value check.
    """

    name: str
    d: int
    fourier: Callable
    terms: tuple
    support_radius: Optional[float]
    sf_order: Optional[int]
    decay_const: float = 0.0
    fourier_analytic: bool = True
    band_limited: bool = False
    interpolatory: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.terms or any(len(t) != self.d for t in self.terms):
            raise ValueError(f"{self.name}: each term needs one factor per axis")
        unbounded = self.support_radius is None
        if unbounded and not all(isinstance(f, SquaredSincs) for t in self.terms for f in t):
            raise ValueError(f"{self.name}: an unbounded generator's factors "
                             "must be SquaredSincs")
        if self.d == 1 and len(self.terms) > 1:
            parts = [f for (f,) in self.terms]
            if unbounded:
                merged = SquaredSincs(sum((f.pairs for f in parts), ()))
            else:
                merged = lambda x: reduce(np.add, (f(x) for f in parts))
            object.__setattr__(self, "terms", ((merged,),))

    def spatial(self, x):
        """``phi`` at points ``(..., d)``: each term's factors multiplied in
        axis order, the terms summed in order."""
        x = np.asarray(x, dtype=float)
        return reduce(np.add, (reduce(np.multiply, (f(x[..., i]) for i, f in enumerate(t)))
                               for t in self.terms))


@dataclass(frozen=True)
class SquaredSincs:
    """The 1-d factor ``x -> sum_i w_i sinc(x / a_i)**2`` of an unbounded
    generator, complex-valued, for ``pairs = ((w_i, a_i), ...)`` with
    positive integer scales ``a_i``.

    It is ``N(x) / x**2`` with the numerator ``N(x) = sum_i w_i a_i**2
    sin(pi x / a_i)**2 / pi**2`` (:meth:`numerator`), whose period is
    ``L = lcm(a_i)`` (:attr:`period`); its value at 0 is ``sum_i w_i``.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(w), float(a)) for w, a in self.pairs)
        if not pairs or any(not (a >= 1 and a.is_integer()) for _, a in pairs):
            raise ValueError("squared sincs need positive integer scales")
        object.__setattr__(self, "pairs", pairs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return reduce(np.add, (w * np.sinc(x / a) ** 2 for w, a in self.pairs)) + 0.0j

    @property
    def period(self) -> int:
        return math.lcm(*(int(a) for _, a in self.pairs))

    def numerator(self, x):
        """``N(x)``, real; accurate where ``x`` is small, as the reduced
        arguments of the span sum are."""
        x = np.asarray(x, dtype=float)
        return reduce(np.add, (w * a * a / math.pi**2 * np.sin(np.pi * x / a) ** 2
                               for w, a in self.pairs))


# ---------------------------------------------------------------------------
# B-splines, and trigonometric numerators realized as their shifts


def bspline(m: int, x):
    """Centered cardinal B-spline of order ``m`` (support ``[-m/2, m/2]``).

    ``m = 1`` is the indicator of the centered unit interval; each further
    order convolves by it once more.  Evaluated in pp-form (:func:`_spline_sum`).
    """
    if m < 1:
        raise ValueError("B-spline order must be at least 1")
    return _spline_sum(m, {0.0: 1.0})(x).real


def bspline_fourier(m: int, xi):
    """Transform of the centered cardinal B-spline: ``sinc(xi)**m``."""
    return np.sinc(np.asarray(xi, dtype=float)) ** m


def sin_power_shifts(m: int, powers: dict) -> dict:
    """Realize ``sum_s c_s sin(pi xi)**(m+s) / (pi xi)**m`` in space.

    ``powers`` maps extra sine powers ``s >= 0`` to ``c_s``, and the result
    ``{h: a_h}`` gives ``sum_h a_h B_m(x - h)`` over half-integer shifts
    (nonzero amplitudes, by shift).  Writing each sine as a difference of
    complex exponentials gives ``sin(pi xi)**s = (2i)**-s sum_r binom(s, r)
    (-1)**r exp(i pi xi (s - 2r))``, and the factor ``exp(i pi xi (s - 2r))``
    moves the spline by ``-(s - 2r) / 2``.
    """
    acc: dict[float, complex] = {}
    for s, c in powers.items():
        s = int(s)
        if s < 0:
            raise ValueError("sine powers must be non-negative")
        base = complex(c) * (2j) ** (-s)
        for r in range(s + 1):
            h = -(s - 2 * r) / 2.0
            acc[h] = acc.get(h, 0.0 + 0.0j) + base * math.comb(s, r) * (-1.0) ** r
    return {h: a for h, a in sorted(acc.items()) if a != 0.0 + 0.0j}


def _spline_pieces(m: int) -> np.ndarray:
    """``B_m`` on its ``2 m`` half-unit pieces, in exact rationals: row ``i``
    holds the coefficients of ``u**r``, ``r = 0..m-1``, where ``u = t - i/2``
    with ``t = x + m/2``.  Each truncated power ``(t - k)_+**(m-1)`` of
    ``B_m = sum_k (-1)**k binom(m, k) (t - k)_+**(m-1) / (m-1)!`` is zero on
    the piece or expanded binomially in ``u`` (de Boor, *A Practical Guide
    to Splines*, ch. X)."""
    rows = np.zeros((2 * m, m), dtype=object)
    for i, k in product(range(2 * m), range(m + 1)):
        s = Fraction(i, 2) - k
        if s >= 0:
            w = Fraction((-1) ** k * math.comb(m, k), math.factorial(m - 1))
            rows[i] += [w * math.comb(m - 1, r) * s ** (m - 1 - r) for r in range(m)]
    return rows


def _spline_sum(m: int, shifts: dict) -> Callable:
    """``x -> sum_h a_h B_m(x - h)`` in pp-form, for ``shifts = {h: a_h}``.

    With half-integer shifts the sum is one polynomial of degree ``m - 1``
    on each half-unit piece, its coefficients summed exactly from
    :func:`_spline_pieces` and rounded once.  A value is one Horner
    evaluation in the offset from its piece's left end; points off the
    pieces, NaN, +-inf and an empty sum give 0.
    """
    shifts = shifts or {0.0: 0.0}
    low = min(shifts)
    n = int(2 * (max(shifts) - low)) + 2 * m
    pieces, re, im = _spline_pieces(m), np.zeros((n, m), object), np.zeros((n, m), object)
    for h, a in shifts.items():
        p, a = int(2 * (h - low)), complex(a)
        re[p : p + 2 * m] += Fraction(a.real) * pieces
        im[p : p + 2 * m] += Fraction(a.imag) * pieces
    # row r holds every piece's coefficient of u**(m-1-r), for Horner's rule
    coef = (re.astype(float) + 1j * im.astype(float)).T[::-1].copy()
    first = low - m / 2.0

    def ev(x):
        x = np.asarray(x, dtype=float)
        q = x - first
        inside = (q >= 0.0) & (q < 0.5 * n)
        p = np.floor(2.0 * np.where(inside, q, 0.0)).astype(np.intp)
        u = np.where(inside, x, first) - (first + 0.5 * p)
        out = coef[0][p]
        for c in coef[1:]:
            out = out * u + c[p]
        return np.where(inside, out, 0.0)

    return ev


# ---------------------------------------------------------------------------
# catalog


def _tensor(fn1d, d):
    return lambda z: reduce(np.multiply, (fn1d(np.asarray(z)[..., i]) for i in range(d)))


def _triangle(s):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(s, dtype=float)))


def sinc_squared(d: int = 1) -> Generator:
    """Tensor squared sinc; triangular spectrum, interpolatory, order 1."""
    factor = SquaredSincs(((1.0, 1.0),))
    fourier = _tensor(_triangle, d)
    return Generator(
        name="sinc_squared",
        d=d,
        fourier=lambda xi: fourier(np.asarray(xi, dtype=float)) + 0.0j,
        terms=((factor,) * d,),
        support_radius=None,
        sf_order=1,
        decay_const=1.0 / math.pi**2,
        fourier_analytic=False,
        interpolatory=True,
    )


def sinc_squared_twoscale(d: int = 1) -> Generator:
    """Two-scale difference of squared sincs, ``2**(1-d) prod psi(x_i/2) -
    4**-d prod psi(x_i/4)`` with ``psi = sinc**2`` (each weight folded into
    the first axis); spectrum flat near 0 and supported in the unit cube."""
    psi_hat = _tensor(_triangle, d)

    def psi(scale, weight=1.0):
        return SquaredSincs(((weight, scale),))

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        return 2.0 * psi_hat(2.0 * xi) - psi_hat(4.0 * xi) + 0.0j

    return Generator(
        name="sinc_squared_twoscale",
        d=d,
        fourier=fourier,
        terms=((psi(2.0, 2.0 ** (1 - d)),) + (psi(2.0),) * (d - 1),
               (psi(4.0, -(4.0 ** -d)),) + (psi(4.0),) * (d - 1)),
        support_radius=None,
        sf_order=None,
        decay_const=2.0 / math.pi**2 * 4.0,
        fourier_analytic=False,
        band_limited=True,
    )


def _hat1d(x):
    """``bspline(2, x) + 0j`` in closed form: ``min(t, 2 - t)`` on the
    support, with ``t = x + 1``."""
    t = np.asarray(x, dtype=float) + 1.0
    return np.where((t > 0.0) & (t < 2.0), np.minimum(t, 2.0 - t), 0.0) + 0.0j


def hat(d: int = 1) -> Generator:
    """Tensor hat (order-2 B-spline); squared-sinc spectrum, order 2."""
    fourier = _tensor(lambda s: np.sinc(s) ** 2, d)
    return Generator(
        name="hat",
        d=d,
        fourier=lambda xi: fourier(np.asarray(xi, dtype=float)) + 0.0j,
        terms=((_hat1d,) * d,),
        support_radius=1.0,
        sf_order=2,
        interpolatory=True,
    )


def bspline3_2d(b1: float = 0.5, b2: float = 0.5) -> Generator:
    """Two-parameter plane family over cubic B-spline shifts.

    The spectrum is ``sinc(xi1)**3 sinc(xi2)**3 (1 + b1 sin(pi xi1)**2
    + b2 sin(pi xi2)**2)``; its value at the origin is 1, first-order
    derivatives vanish there, and the pure second derivatives are
    ``pi**2 (2 b1 - 1)`` and ``pi**2 (2 b2 - 1)``.  Moment conditions hold
    to order 3 on the lattice for any parameter values.  In space it is
    ``(B3 + S1)(x1) B3(x2) + B3(x1) S2(x2)``, where ``S_i`` realizes
    ``b_i sin(pi xi)**2 sinc(xi)**3``.
    """
    base = _spline_sum(3, {0.0: 1.0})
    first = _spline_sum(3, sin_power_shifts(3, {0: 1.0, 2: float(b1)}))
    second = _spline_sum(3, sin_power_shifts(3, {2: float(b2)}))

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)
        u1, u2 = np.pi * xi[..., 0], np.pi * xi[..., 1]
        bump = 1.0 + float(b1) * np.sin(u1) ** 2 + float(b2) * np.sin(u2) ** 2
        return np.sinc(xi[..., 0]) ** 3 * np.sinc(xi[..., 1]) ** 3 * bump + 0.0j

    return Generator(
        name="bspline3_2d",
        d=2,
        fourier=fourier,
        terms=((first, base), (base, second)),
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
    shifts = sin_power_shifts(4, powers)

    def fourier(xi):
        xi = np.asarray(xi, dtype=float)[..., 0]
        num = sum(complex(c) * np.sin(np.pi * xi) ** s for s, c in powers.items())
        return np.sinc(xi) ** 4 * num

    return Generator(
        name="bspline4_1d",
        d=1,
        fourier=fourier,
        terms=((_spline_sum(4, shifts),),),
        support_radius=max(map(abs, shifts)) + 2.0,
        sf_order=4,
        params={"b1": complex(b1), "b2": complex(b2), "b3": complex(b3)},
    )


named_generators = {
    "sinc_squared": sinc_squared,
    "sinc_squared_twoscale": sinc_squared_twoscale,
    "hat": hat,
    "bspline3_2d": bspline3_2d,
    "bspline4_1d": bspline4_1d,
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
