"""
Measuring sampling-expansion convergence orders
===============================================

A sampling expansion rebuilds a signal from its values on the lattice
M^{-j} Z^d,

    Q_j f(x) = sum_k f(M^{-j} k) phi(M^j x - k),

and the sup-norm error should shrink like scale^n as j grows, where n is
the kernel's approximation order and scale is |det-driven| contraction
per level.  A convergence study runs the expansion across levels, fits
log(error) against log(scale), and compares the slope with the
prediction; the first levels are skipped as pre-asymptotic.
"""
import numpy as np

from dilsamp import (
    ExactRule,
    StudyPlan,
    bspline4_1d,
    convergence_study,
    delta_operator,
    dyadic,
    gaussian,
    hat,
    laplace1d,
    quincunx,
    solve_free_params,
)


def show(title, rep):
    print(f"\n{title}")
    print("   j      scale          error")
    for j, s, e in zip(rep.levels, rep.scales, rep.errors):
        mark = "*" if j in rep.used_levels else " "
        print(f"  {j:2d}{mark}  {s:11.6f}  {e:13.6e}")
    print(f"  fitted slope {rep.fitted_slope:.4f}  "
          f"(predicted {rep.predicted_rate:g}, {rep.predicted_case}; "
          f"verdict {rep.verdict})")


###############################################################################
# The hat kernel reproduces linear polynomials, so exact samples of a
# smooth signal converge at order 2.  Starred levels enter the fit.

rep = convergence_study(StudyPlan(
    generator=hat(1),
    dilation=dyadic(1),
    rule=ExactRule(),
    signal=gaussian(1),
    p=np.inf,
    j_min=1,
    j_max=8,
))
show("hat kernel, smooth signal", rep)

###############################################################################
# Calibrating the quartic family against the point operator lifts the
# order to 4 (see calibrate_quartic_kernel.py for the mechanism).

quartic = solve_free_params(bspline4_1d, delta_operator(1), 4).generator
rep = convergence_study(StudyPlan(
    generator=quartic,
    dilation=dyadic(1),
    rule=ExactRule(),
    signal=gaussian(1),
    p=np.inf,
    j_min=1,
    j_max=7,
))
show("calibrated quartic kernel, smooth signal", rep)

###############################################################################
# The signal's own smoothness caps the rate.  A kinked exponential has
# no derivatives across its kink (placed off-lattice at 1/3), so even
# the order-4 kernel converges at order 1 in the sup norm.

rep = convergence_study(StudyPlan(
    generator=quartic,
    dilation=dyadic(1),
    rule=ExactRule(),
    signal=laplace1d(1.0 / 3.0),
    p=np.inf,
    j_min=1,
    j_max=8,
    slope_tolerance=0.3,
))
show("calibrated quartic kernel, kinked signal", rep)

###############################################################################
# Matrix dilations refine by less than a factor 2 per level.  The
# quincunx matrix rotates and stretches by sqrt(2), so errors shrink
# like 2^{-j/2} per level and more levels are pre-asymptotic: the fit
# skips four.

rep = convergence_study(StudyPlan(
    generator=hat(2),
    dilation=quincunx(),
    rule=ExactRule(),
    signal=gaussian(2),
    p=np.inf,
    j_min=1,
    j_max=8,
    fit_skip=4,
))
show("tensor hat on the quincunx lattice", rep)
