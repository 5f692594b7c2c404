"""
Calibrating a quartic spline kernel
===================================

The quartic family has spectrum

    phi_hat(xi) = sinc(xi)^4 (1 + b1 s + b2 s^2 + b3 s^3),   s = sin(pi xi),

with three free parameters.  The sinc^4 factor already gives order-4
zeros at every nonzero integer frequency, but approximation order also
needs the combined spectrum to be flat at the origin:

    D^gamma (1 - phi_hat(xi) conj(symbol_L(xi)))(0) = 0   for [gamma] < 4,

where L is the operator the expansion coefficients will apply.  The
conditions are affine in the parameters, so calibration is a small
linear solve followed by a verification pass.
"""
import numpy as np

from dilsamp import (
    ball_moments,
    ball_operator,
    bspline4_1d,
    delta_operator,
    flatness_residuals,
    solve_free_params,
    strang_fix_order,
)

###############################################################################
# Without calibration the spectrum is not flat: the plain quartic spline
# (all parameters zero) fails the second-order condition at the origin,
# so its expansions converge at order 2 despite the order-4 lattice zeros.

plain = bspline4_1d(0.0, 0.0, 0.0)
res_plain = flatness_residuals(plain, delta_operator(1), 4)
print("plain quartic spline")
print(f"  lattice zero order : {strang_fix_order(plain, 6)}")
for gamma, value in res_plain.items():
    print(f"  flatness residual D^{gamma}: {abs(value):.3e}")

###############################################################################
# Calibrating against the point operator (exact samples) lands on
# (b1, b2, b3) = (0, 2/3, 0) and drives every residual below 1e-9.

cal = solve_free_params(bspline4_1d, delta_operator(1), 4)
print("\ncalibrated for exact samples")
for name, value in cal.params.items():
    print(f"  {name} = {value:+.12f}")
print(f"  max flatness residual: {cal.max_residual:.3e}")
print(f"  identically satisfied conditions dropped: {cal.dropped}")

###############################################################################
# A ball-averaging operator changes the target: its symbol carries the
# normalized even moments of the ball, and flattening the product shifts
# the even parameter by 2 h^2 / 3.

h = 0.5
op = ball_operator(1, 3, h)
print(f"\nball moments at radius h = {h}:")
for beta, value in ball_moments(1, 3, h).items():
    print(f"  a_{beta} = {value:.6f}")
cal_ball = solve_free_params(bspline4_1d, op, 4)
print("calibrated for ball averages")
for name, value in cal_ball.params.items():
    print(f"  {name} = {value:+.12f}")
print(f"  b2 shift from the point answer: {cal_ball.params['b2'] - 2.0 / 3.0:.6f}"
      f"  (2 h^2 / 3 = {2.0 * h * h / 3.0:.6f})")

###############################################################################
# The verification pass is what makes calibration trustworthy: feeding a
# wrong parameter sign back through the flatness conditions leaves an
# order-one residual instead of 1e-9.

wrong = bspline4_1d(0.0, -(2.0 / 3.0) * (1.0 + h * h), 0.0)
worst = max(abs(v) for v in flatness_residuals(wrong, op, 4).values())
print(f"\nflipped-sign b2 leaves residual {worst:.3f}; the solver's answer"
      f" leaves {cal_ball.max_residual:.1e}")
