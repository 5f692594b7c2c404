"""
Ball-averaged samples and the deviation from differential coefficients
======================================================================

Real acquisition devices rarely deliver point values: each "sample" is
an average of the signal over a small neighborhood.  Replacing the exact
coefficient f(M^{-j} k) by the average of f over the shrunken ball
M^{-j} B_h around it gives a falsified sampling expansion.  Two facts
make these expansions quantitative:

* the ball average agrees, up to its moment order, with a differential
  operator whose coefficients are the normalized even moments of B_h;
* the gap between the two coefficients (the deviation) decays one order
  faster than the operator's window, so the falsified expansion behaves
  like a differential expansion plus a higher-order perturbation.
"""
import numpy as np

from dilsamp import (
    FalsifiedRule,
    StudyPlan,
    ball_average,
    ball_operator,
    bspline4_1d,
    convergence_study,
    delta_operator,
    deviation_study,
    dyadic,
    gaussian,
    hat,
    solve_free_params,
)

###############################################################################
# A ball average approaches the center value quadratically in the
# radius; the coefficient of h^2 is the normalized second moment 1/6
# times f''.

f = gaussian(1)
x0 = np.array([0.8])
center = complex(f.eval(x0.reshape(1, 1))[0])
d2 = complex(f.derivative((2,), x0.reshape(1, 1))[0])
print("ball average minus center value (d = 1, x = 0.8)")
for h in (0.4, 0.2, 0.1, 0.05):
    gap = ball_average(f, x0, h)[0] - center
    print(f"  h = {h:4.2f}   gap = {gap.real:+.6e}   "
          f"h^2 f''(x)/6 = {(h * h * d2 / 6.0).real:+.6e}")

###############################################################################
# The deviation between the ball average and its differential surrogate
# decays at the operator order plus one: an order-3 moment operator
# leaves an order-4 gap.  A deviation study takes a ball-averaged plan,
# whose operator is the surrogate, and measures the largest gap over the
# lattice points of the study box at each level.

rep = deviation_study(StudyPlan(
    generator=hat(1),
    dilation=dyadic(1),
    rule=FalsifiedRule(0.5),
    signal=gaussian(1),
    operator=ball_operator(1, 3, 0.5),
    j_min=1,
    j_max=7,
    fit_skip=0,
    domain_halfwidth=3.2,
))
print("\nmax deviation across levels (order-3 moment operator, h = 0.5)")
for j, e in zip(rep.levels, rep.errors):
    print(f"  j = {j}   {e:.6e}")
print(f"  fitted decay order {rep.fitted_slope:.4f} "
      f"(predicted {rep.predicted_rate:g})")

###############################################################################
# Feeding ball averages to the hat expansion keeps its order-2
# convergence: averaging costs nothing once the kernel is the binding
# constraint.

rep = convergence_study(StudyPlan(
    generator=hat(1),
    dilation=dyadic(1),
    rule=FalsifiedRule(0.5),
    signal=gaussian(1),
    operator=ball_operator(1, 2, 0.5),
    p=np.inf,
    j_min=1,
    j_max=8,
))
print(f"\nhat kernel with ball-averaged samples: slope "
      f"{rep.fitted_slope:.4f} (predicted {rep.predicted_rate:g}, "
      f"verdict {rep.verdict})")

###############################################################################
# The averaging window can also be the binding constraint.  An order-1
# moment operator is just the plain average, and its window caps an
# order-4 kernel at min(4, 1 + 1) = 2.

quartic = solve_free_params(bspline4_1d, delta_operator(1), 4).generator
rep = convergence_study(StudyPlan(
    generator=quartic,
    dilation=dyadic(1),
    rule=FalsifiedRule(0.5),
    signal=gaussian(1),
    operator=ball_operator(1, 1, 0.5),
    p=np.inf,
    j_min=1,
    j_max=8,
))
print(f"order-4 kernel under an order-1 average: slope "
      f"{rep.fitted_slope:.4f} (predicted {rep.predicted_rate:g}, "
      f"verdict {rep.verdict})")

###############################################################################
# Calibrating the kernel against the moment operator itself recovers the
# full order 4 from averaged samples (see calibrate_quartic_kernel.py).

matched = solve_free_params(bspline4_1d, ball_operator(1, 3, 0.5), 4).generator
rep = convergence_study(StudyPlan(
    generator=matched,
    dilation=dyadic(1),
    rule=FalsifiedRule(0.5),
    signal=gaussian(1),
    operator=ball_operator(1, 3, 0.5),
    p=np.inf,
    j_min=1,
    j_max=7,
    slope_tolerance=0.3,
))
print(f"kernel calibrated to the averaging operator: slope "
      f"{rep.fitted_slope:.4f} (predicted {rep.predicted_rate:g}, "
      f"verdict {rep.verdict})")
