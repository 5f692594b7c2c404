"""Differential sampling operators and ball-moment coefficient tables.

An operator ``L f = sum_beta a_beta D^beta f`` (finitely many terms, all
total orders at most ``N``, ``a_0 != 0``) defines differential sampling
coefficients: at level ``j`` and lattice point ``k`` the coefficient is
``L`` applied to the rescaled signal ``f(M^-j .)`` at ``k``.  The companion
frequency-side object is the operator symbol

    symbol(xi) = sum_beta conj(a_beta) * (-2 pi i xi)**beta

whose product with a generator spectrum drives the calibration conditions.

``ball_moments`` produces the particular coefficient table that makes ``L``
match averaging over a ball of radius ``h``: ``a_beta`` is the normalized
monomial moment of the ball, which vanishes unless every component of
``beta`` is even.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._arrays import as_index, as_points, as_rows, map_rows, real_bilinear
from .multiindex import factorial, indices_below, indices_of_order, monomial
from .taylor import chain_rule_matrix


@dataclass(frozen=True)
class DiffOperator:
    """Finite-order differential operator with complex coefficients.

    ``coeffs`` maps multi-indices to coefficients; the zero index must
    carry a nonzero coefficient.  ``order`` is the window bound ``N``
    (total orders at most ``N`` appear; the bound itself matters for rate
    predictions even when the top-order coefficients vanish, as happens
    for ball moments with odd components).
    """

    d: int
    coeffs: Mapping
    order: int

    def __post_init__(self):
        clean = {}
        for k, v in dict(self.coeffs).items():
            idx = as_index(k)
            if len(idx) != self.d:
                raise ValueError(f"index {idx} does not match dimension {self.d}")
            if sum(idx) > self.order:
                raise ValueError(f"index {idx} exceeds declared order {self.order}")
            if v != 0:
                clean[idx] = complex(v)
        zero = (0,) * self.d
        if clean.get(zero, 0j) == 0j:
            raise ValueError("the zero-order coefficient must be nonzero")
        object.__setattr__(self, "coeffs", clean)


def delta_operator(d: int = 1) -> DiffOperator:
    """Point evaluation: the identity operator (plain sampling)."""
    return DiffOperator(d=d, coeffs={(0,) * d: 1.0}, order=0)


def ball_moments(d: int, n: int, h: float) -> dict:
    """Normalized monomial ball moments ``a_beta`` for total orders <= n.

    ``a_beta = (1 / (beta! V_h)) * integral_{|t| <= h} t**beta dt``; zero
    whenever any component of ``beta`` is odd.  For even ``beta`` the
    integral has the closed form
    ``h**([beta]+d) * prod_i Gamma((beta_i + 1) / 2) / Gamma(([beta]+d)/2 + 1)``.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {h}")
    if n < 0:
        raise ValueError("order bound must be non-negative")
    vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * h**d
    out = {}
    for beta in indices_below(n + 1, d):
        p = sum(beta)
        if p == 0:
            out[beta] = 1.0  # the normalized zeroth moment is 1 exactly
            continue
        if any(b % 2 for b in beta):
            out[beta] = 0.0
            continue
        integral = h ** (p + d)
        for b in beta:
            integral *= math.gamma((b + 1) / 2.0)
        integral /= math.gamma((p + d) / 2.0 + 1.0)
        out[beta] = integral / (factorial(beta) * vol)
    return out


def ball_operator(d: int, n: int, h: float) -> DiffOperator:
    """Operator whose coefficients are the ball moments up to order ``n``.

    At ``n <= 1`` this degenerates to point evaluation (odd moments vanish)
    while keeping ``order = n`` as metadata.
    """
    table = ball_moments(d, n, h)
    return DiffOperator(d=d, coeffs=table, order=n)


def symbol(op: DiffOperator, xi):
    """Frequency symbol ``sum conj(a_beta) (-2 pi i xi)**beta``, vectorized."""
    pts = as_points(xi, op.d)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    arg = -2j * np.pi * pts
    for beta, a in op.coeffs.items():
        out = out + np.conj(a) * monomial(arg, beta)
    return out


def _order_weights(op: DiffOperator, a_matrix: np.ndarray) -> dict:
    """Per-order weight vectors turning signal derivatives into coefficients.

    For each total order ``p`` in the operator, returns ``w_p`` so
    that ``sum_alpha w_p[alpha] D^alpha f(y)`` equals
    ``sum_{[beta]=p} a_beta D^beta[f(A.)]`` at the matching point.  The
    weights are real when every coefficient of order ``p`` is.
    """
    orders = sorted({sum(b) for b in op.coeffs})
    out = {}
    for p in orders:
        idx = indices_of_order(p, op.d)
        t = chain_rule_matrix(a_matrix, p)
        a_vec = np.array([op.coeffs.get(b, 0.0) for b in idx], dtype=complex)
        if not a_vec.imag.any():
            a_vec = a_vec.real
        out[p] = (idx, a_vec @ t)
    return out


def apply_to_signal(op: DiffOperator, f, m, j: int, ks) -> np.ndarray:
    """``L`` applied to the rescaled signal ``f(M^-j .)`` at lattice points ``ks``.

    ``ks`` is one point or rows ``(n, d)``; the result has one entry per
    point.  ``m`` is a :class:`dilsamp.dilation.Dilation`; the signal must
    provide exact derivatives up to the operator order at the mapped
    points.  The result is real when the operator's coefficients and the
    signal's derivatives are.
    """
    ks = as_rows(ks, op.d)
    a = np.asarray(m.power(-j), dtype=float)
    y = map_rows(ks, a)
    if f.deriv_order is not None and op.order > f.deriv_order:
        raise ValueError(
            f"operator order {op.order} exceeds signal smoothness {f.deriv_order}"
        )
    out = np.zeros(ks.shape[0])
    for p, (idx, w) in _order_weights(op, a).items():
        if not np.any(w != 0):
            continue
        derivs = np.stack([np.asarray(f.derivative(al, y)) for al in idx], axis=-1)
        out = out + real_bilinear(np.vecdot, w, derivs)
    return out
