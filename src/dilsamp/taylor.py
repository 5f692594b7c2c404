"""Taylor recombination under a linear change of variables.

For a matrix ``A`` and total order ``p`` the structure matrix ``S(A, p)``
collects how the scaled monomials transform:

    (A t)^alpha / alpha! = sum_beta S(A, p)[alpha, beta] * t^beta / beta!

with rows and columns indexed by :func:`dilsamp.multiindex.indices_of_order`
in the package's canonical ordering.  The matrix is built by explicit
multinomial expansion, never by enumerating repeated-index tuples, so the
cost is polynomial in the order.  The same matrix (for the transpose)
expresses derivatives of the composed function:

    D^beta [f(A .)](x) = sum_{[alpha]=[beta]} D^alpha f(Ax)
                         * (beta!/alpha!) * S(A^T, [beta])[beta, alpha]
"""
from __future__ import annotations

import math

import numpy as np

from .multiindex import factorial, indices_of_order, monomial


def _row_polynomial(coeffs, q: int, d: int) -> dict:
    """Expansion of ``(sum_j coeffs[j] t_j)**q`` as exponent -> coefficient."""
    out = {}
    for k in indices_of_order(q, d):
        c = float(math.factorial(q))
        for kj, cj in zip(k, coeffs):
            c /= math.factorial(kj)
            if kj:
                c *= cj**kj
        if c != 0.0:
            out[k] = c
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return out


def s_matrix(a, p: int) -> np.ndarray:
    """Structure matrix ``S(A, p)`` in the canonical index ordering.

    Parameters
    ----------
    a : array_like
        Square matrix, shape ``(d, d)``.
    p : int
        Homogeneity order, ``p >= 0``.

    Returns
    -------
    ndarray of shape ``(r, r)`` with ``r = count_of_order(p, d)``.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    idx = indices_of_order(p, d)
    pos = {b: i for i, b in enumerate(idx)}
    s = np.zeros((len(idx), len(idx)))
    for row, alpha in enumerate(idx):
        poly = {(0,) * d: 1.0}
        for i, ai in enumerate(alpha):
            if ai:
                poly = _poly_mul(poly, _row_polynomial(a[i], ai, d))
        fa = factorial(alpha)
        for beta, c in poly.items():
            s[row, pos[beta]] = c * factorial(beta) / fa
    return s


def chain_rule_matrix(a, p: int) -> np.ndarray:
    """Matrix ``T`` with ``D^beta[f(A.)] = sum_alpha T[beta, alpha] D^alpha f(Ax)``.

    ``T[beta, alpha] = (beta!/alpha!) * S(A^T, p)[beta, alpha]`` over the
    order-``p`` indices.
    """
    a = np.asarray(a, dtype=float)
    idx = indices_of_order(p, a.shape[0])
    st = s_matrix(a.T, p)
    fac = np.array([factorial(b) for b in idx], dtype=float)
    return st * fac[:, None] / fac[None, :]


def chain_rule_derivatives(derivs: dict, a) -> dict:
    """Transform derivative values of ``f`` at ``Ax`` into those of ``f(A.)``.

    Parameters
    ----------
    derivs : mapping
        ``alpha -> D^alpha f(Ax)`` covering complete total orders (if any
        index of order p is given, all of them must be).
    a : array_like
        The matrix ``A``.

    Returns
    -------
    dict mapping ``beta -> D^beta [f(A.)](x)`` over the same orders.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    orders = sorted({sum(k) for k in derivs})
    out = {}
    for p in orders:
        idx = indices_of_order(p, d)
        missing = [al for al in idx if al not in derivs]
        if missing:
            raise ValueError(f"incomplete order {p}: missing {missing[0]}")
        vec = np.array([derivs[al] for al in idx])
        res = chain_rule_matrix(a, p) @ vec
        out.update(dict(zip(idx, res)))
    return out


def verify_taylor_recombination(f, a, x, t, nmax: int) -> float:
    """Residual of the two-sided Taylor identity at ``(x, t)``.

    Both sides sum over all multi-indices of total order at most ``nmax``:
    the left evaluates derivatives of ``f`` at ``Ax`` against powers of
    ``At``, the right evaluates derivatives of the composition at ``x``
    against powers of ``t``.  For ``f`` polynomial of degree <= nmax the
    exact residual is zero; the returned value is normalized by
    ``1 + max(|lhs|, |rhs|)``.

    ``f`` must expose ``derivative(alpha, points)``.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    x = np.asarray(x, dtype=float).reshape(d)
    t = np.asarray(t, dtype=float).reshape(d)
    ax = a @ x
    at = a @ t
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    derivs = {}
    for p in range(nmax + 1):
        for beta in indices_of_order(p, d):
            dv = complex(np.asarray(f.derivative(beta, ax.reshape(1, d)))[0])
            derivs[beta] = dv
            lhs += dv * complex(monomial(at.reshape(1, d), beta)[0]) / factorial(beta)
    composed = chain_rule_derivatives(derivs, a)
    for beta, dv in composed.items():
        rhs += dv * complex(monomial(t.reshape(1, d), beta)[0]) / factorial(beta)
    return float(abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
