"""Calibration of parametric generator families against an operator.

A generator reaches approximation order ``n`` with a differential operator
``L`` when, besides the lattice moment conditions, the combined spectrum
``phi_hat * conj(symbol_L)`` is flat to order ``n`` at the origin:

    D^gamma (1 - phi_hat(xi) * conj(symbol_L(xi)))(0) = 0
    for all gamma of total order below n.

For the catalog families the spectrum depends affinely on the free
parameters, so the conditions form a linear system.  It is assembled
numerically: each condition is evaluated at the zero parameter vector and
at the unit vectors, identically satisfied conditions are dropped, and the
remaining system is solved in the least-squares sense (minimum-norm on
ties).  The solution is always verified by recomputing the residuals on the
calibrated generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._finitediff import fd_partial
from .diffop import DiffOperator, symbol
from .generators import Generator
from .multiindex import indices_below

_DROP_TOL = 1e-10
_RESIDUAL_TOL = 1e-8


class CalibrationError(RuntimeError):
    """The calibrated parameters fail their own flatness conditions."""


@dataclass(frozen=True)
class CalibrationResult:
    """Solved parameters, the generator they make, and its verification
    residuals."""

    family: str
    target_order: int
    params: dict
    residuals: dict
    max_residual: float
    dropped: tuple
    generator: Generator


def flatness_residuals(g: Generator, op: DiffOperator, n: int) -> dict:
    """Values ``D^gamma (1 - phi_hat conj(symbol))(0)`` for ``[gamma] < n``."""
    if g.d != op.d:
        raise ValueError("generator and operator dimensions differ")

    def fn(xi):
        return 1.0 - np.asarray(g.fourier(xi)) * np.conj(symbol(op, xi))

    zero = np.zeros(g.d)
    return {
        gamma: fd_partial(fn, zero, gamma, scale=1.0)
        for gamma in indices_below(n, g.d)
    }


def solve_free_params(
    factory: Callable[..., Generator],
    op: DiffOperator,
    n: int,
    drop_tol: float = _DROP_TOL,
    residual_tol: float = _RESIDUAL_TOL,
) -> CalibrationResult:
    """Solve the order-``n`` flatness conditions for the family parameters.

    ``factory`` is a family: the keys of its default generator's ``params``
    are the free parameters, passed as keywords.  The result carries the
    calibrated generator whose residuals were verified.

    Raises :class:`CalibrationError` when the verified residuals of the
    solved generator are not below ``residual_tol``; the offending
    condition indices are listed in the message.  Parameters that solve the
    system only in the least-squares sense are reported as-is, so genuinely
    unsatisfiable targets also surface through the verification step.
    """
    if n < 1:
        raise ValueError("target order must be at least 1")
    names = tuple(factory().params)
    npar = len(names)

    def make(vals):
        return factory(**dict(zip(names, vals)))

    zero_g = make([0.0] * npar)
    gammas = indices_below(n, zero_g.d)
    base = flatness_residuals(zero_g, op, n)
    cols = []
    for i in range(npar):
        unit = [0.0] * npar
        unit[i] = 1.0
        res_i = flatness_residuals(make(unit), op, n)
        cols.append({g: res_i[g] - base[g] for g in gammas})

    rows, rhs, dropped = [], [], []
    for gamma in gammas:
        row = np.array([cols[i][gamma] for i in range(npar)], dtype=complex)
        b = -complex(base[gamma])
        if np.max(np.abs(row), initial=0.0) < drop_tol and abs(b) < drop_tol:
            dropped.append(gamma)
            continue
        rows.append(row)
        rhs.append(b)

    if rows:
        a = np.asarray(rows)
        b = np.asarray(rhs)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    else:
        sol = np.zeros(npar, dtype=complex)

    vals = [v.real if abs(v.imag) < drop_tol else v for v in sol]
    calibrated = make(vals)
    residuals = flatness_residuals(calibrated, op, n)
    worst = max(abs(v) for v in residuals.values())
    if worst >= residual_tol:
        offending = [g for g, v in residuals.items() if abs(v) >= residual_tol]
        raise CalibrationError(
            f"flatness residuals {worst:.3e} at {offending} for "
            f"family {zero_g.name}, target order {n}"
        )
    return CalibrationResult(
        family=zero_g.name,
        target_order=n,
        params=dict(zip(names, vals)),
        residuals=residuals,
        max_residual=worst,
        dropped=tuple(dropped),
        generator=calibrated,
    )
