"""End-to-end acceptance checks, one test per criterion.

Every tolerance here is pinned in this file; nothing is read back from
the implementation.  The convergence studies run at desk scale (d <= 2,
j <= 8) and each finishes well under the two-minute budget.  Each test
emits one ``criterion N: PASS/FAIL`` line via the ``criterion`` fixture
from conftest; the lines are replayed after the run summary.
"""
import numpy as np
import pytest

from dilsamp import (
    Box,
    DifferentialRule,
    ExactRule,
    FalsifiedRule,
    StudyPlan,
    ball_average,
    ball_moments,
    ball_operator,
    bspline,
    bspline3_2d,
    bspline4_1d,
    coefficients,
    convergence_study,
    delta_operator,
    deviation_study,
    dyadic,
    evaluate,
    factorial,
    flatness_residuals,
    gaussian,
    hat,
    indices_of_order,
    laplace1d,
    lattice_support,
    matern1d,
    polynomial,
    quincunx,
    s_matrix,
    sinc_squared,
    solve_free_params,
    strang_fix_order,
    verify_taylor_recombination,
)


@pytest.fixture(scope="module")
def quartic_point_calibration():
    return solve_free_params(bspline4_1d, delta_operator(1), 4)


@pytest.fixture(scope="module")
def quartic_point_generator(quartic_point_calibration):
    return quartic_point_calibration.generator


@pytest.fixture(scope="module")
def quartic_ball_calibration():
    return solve_free_params(bspline4_1d, ball_operator(1, 3, 0.5), 4)


def _random_poly(rng, d, degree):
    coeffs = {}
    for p in range(degree + 1):
        for k in indices_of_order(p, d):
            coeffs[k] = rng.standard_normal()
    return polynomial(d, coeffs)


def test_criterion_01_ball_moment_values(criterion):
    worst = 0.0
    for h in (0.5, 0.37):
        a2 = ball_moments(1, 3, h)[(2,)]
        a20 = ball_moments(2, 2, h)[(2, 0)]
        worst = max(
            worst,
            abs(a2 - h * h / 6.0) / (h * h / 6.0),
            abs(a20 - h * h / 8.0) / (h * h / 8.0),
        )
    criterion(
        1, worst <= 1e-12,
        f"a2 = h^2/6 and a20 = h^2/8, worst relative error {worst:.2e} <= 1e-12",
    )


def test_criterion_02_recombination_identity_and_duality(criterion):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        d = 1 + trial % 3
        f = _random_poly(rng, d, 4)
        a = rng.integers(-3, 4, (d, d)).astype(float)
        x = rng.uniform(-1, 1, d)
        t = rng.uniform(-1, 1, d)
        worst = max(worst, verify_taylor_recombination(f, a, x, t, nmax=4))
    dual = 0.0
    for d in (1, 2, 3):
        a = rng.integers(-3, 4, (d, d)).astype(float)
        for p in range(1, 5):
            fac = np.array([factorial(b) for b in indices_of_order(p, d)], float)
            lhs = s_matrix(a.T, p)
            rhs = s_matrix(a, p).T * fac[None, :] / fac[:, None]
            dual = max(dual, float(np.max(np.abs(lhs - rhs))))
    criterion(
        2, worst < 1e-10 and dual < 1e-12,
        f"recombination residual {worst:.2e} < 1e-10 over 20 polynomial trials; "
        f"transpose duality {dual:.2e} < 1e-12 for p <= 4",
    )


def test_criterion_03_strang_fix_orders(criterion, quartic_point_generator):
    got = (
        strang_fix_order(sinc_squared(1), 6, tol=1e-7),
        strang_fix_order(hat(1), 6, tol=1e-7),
        strang_fix_order(quartic_point_generator, 6, tol=1e-7),
    )
    criterion(
        3, got == (1, 2, 4),
        f"orders (sinc_squared, hat, calibrated quartic) = {got}, want (1, 2, 4)",
    )


def test_criterion_04_calibration_round_trip(
    criterion, quartic_point_calibration
):
    # Point context: the zero-moment operator is where the closed-form
    # b1 = (1 - 4*a20)/2 and the flatness system agree (a20 = 0 there).
    bicubic = solve_free_params(bspline3_2d, delta_operator(2), 3)
    printed_at_delta = 0.5 * (1.0 - 4.0 * 0.0)
    round_trip = abs(bicubic.params["b1"] - printed_at_delta)
    quartic = quartic_point_calibration
    qp = (quartic.params["b1"], quartic.params["b2"], quartic.params["b3"])
    quartic_gap = max(abs(qp[0]), abs(qp[1] - 2.0 / 3.0), abs(qp[2]))
    flat = max(bicubic.max_residual, quartic.max_residual)

    # Ball context at h = 0.5: the solver lands on (1 + h^2)/2 = 0.625
    # and stays flat; the competing closed form 0.4375 does not.
    h = 0.5
    op = ball_operator(2, 2, h)
    solved = solve_free_params(bspline3_2d, op, 3)
    printed = 0.5 * (1.0 - 4.0 * h * h / 8.0)
    bad = max(
        abs(v) for v in flatness_residuals(bspline3_2d(printed, printed), op, 3).values()
    )
    ok = (
        round_trip <= 1e-9
        and quartic_gap <= 1e-9
        and flat < 1e-8
        and abs(solved.params["b1"] - 0.625) <= 1e-9
        and bad > 1e-2
    )
    criterion(
        4, ok,
        f"point-context round trip: bicubic b1 off by {round_trip:.1e}, quartic "
        f"(b1,b2,b3) off by {quartic_gap:.1e}, flatness {flat:.1e} < 1e-8; ball "
        f"context h=0.5 solves to 0.625 while 0.4375 leaves residual {bad:.2f}",
    )


def test_criterion_05_sampling_order_two(criterion):
    rep = convergence_study(StudyPlan(
        generator=hat(1),
        dilation=dyadic(1),
        rule=ExactRule(),
        signal=gaussian(1),
        p=np.inf,
        j_min=1,
        j_max=8,
        fit_skip=2,
    ))
    ok = rep.predicted_rate == 2.0 and abs(rep.fitted_slope - 2.0) <= 0.25
    criterion(
        5, ok,
        f"hat sampling slope {rep.fitted_slope:.4f} within 2 +/- 0.25 "
        f"(verdict {rep.verdict})",
    )


def test_criterion_06_sampling_order_four(criterion, quartic_point_generator):
    rep = convergence_study(StudyPlan(
        generator=quartic_point_generator,
        dilation=dyadic(1),
        rule=ExactRule(),
        signal=gaussian(1),
        p=np.inf,
        j_min=1,
        j_max=7,
    ))
    above_floor = min(rep.errors) > 1e-12
    ok = (
        rep.predicted_rate == 4.0
        and abs(rep.fitted_slope - 4.0) <= 0.25
        and above_floor
    )
    criterion(
        6, ok,
        f"calibrated quartic sampling slope {rep.fitted_slope:.4f} within "
        f"4 +/- 0.25, smallest error {min(rep.errors):.2e} above 1e-12",
    )


def test_criterion_07_ball_average_order_two(criterion):
    rep1 = convergence_study(StudyPlan(
        generator=hat(1),
        dilation=dyadic(1),
        rule=FalsifiedRule(0.5),
        signal=gaussian(1),
        operator=ball_operator(1, 2, 0.5),
        p=np.inf,
        j_min=1,
        j_max=8,
    ))
    rep2 = convergence_study(StudyPlan(
        generator=hat(2),
        dilation=dyadic(2),
        rule=FalsifiedRule(0.5),
        signal=gaussian(2),
        operator=ball_operator(2, 2, 0.5),
        p=np.inf,
        j_min=1,
        j_max=5,
    ))
    ok = (
        abs(rep1.fitted_slope - 2.0) <= 0.25
        and abs(rep2.fitted_slope - 2.0) <= 0.25
        and rep1.predicted_rate == 2.0
        and rep2.predicted_rate == 2.0
    )
    criterion(
        7, ok,
        f"ball-averaged hat slopes {rep1.fitted_slope:.4f} (d=1) and "
        f"{rep2.fitted_slope:.4f} (d=2) within 2 +/- 0.25",
    )


def test_criterion_08_ball_average_order_four_adjudicates_sign(
    criterion, quartic_ball_calibration
):
    h = 0.5
    cal = quartic_ball_calibration
    sign_gap = abs(cal.params["b2"] - (2.0 / 3.0 + 2.0 * h * h / 3.0))
    good = cal.generator
    plan = dict(
        dilation=dyadic(1),
        rule=FalsifiedRule(h),
        signal=gaussian(1),
        operator=ball_operator(1, 3, h),
        p=np.inf,
        j_min=1,
        j_max=7,
        slope_tolerance=0.3,
    )
    rep_good = convergence_study(StudyPlan(generator=good, **plan))
    # The competing sign b2 = -(2/3)(1 + h^2) breaks the order-2 flatness
    # condition, so its study must fall short of order 4.
    flipped = bspline4_1d(0.0, -(2.0 / 3.0) * (1.0 + h * h), 0.0)
    rep_bad = convergence_study(StudyPlan(generator=flipped, **plan))
    ok = (
        sign_gap <= 1e-9
        and abs(rep_good.fitted_slope - 4.0) <= 0.3
        and abs(rep_bad.fitted_slope - 4.0) > 0.3
    )
    criterion(
        8, ok,
        f"ball-calibrated quartic b2 = 2/3 + 2h^2/3 (off by {sign_gap:.1e}); "
        f"its slope {rep_good.fitted_slope:.4f} is within 4 +/- 0.3 while the "
        f"flipped sign gives {rep_bad.fitted_slope:.4f}",
    )


def test_criterion_09_operator_window_caps_the_order(
    criterion, quartic_point_generator
):
    # Order-1 ball operator: only the plain average survives, yet its
    # window still caps the order-4 generator at min(4, 1+1) = 2.
    rep = convergence_study(StudyPlan(
        generator=quartic_point_generator,
        dilation=dyadic(1),
        rule=FalsifiedRule(0.5),
        signal=gaussian(1),
        operator=ball_operator(1, 1, 0.5),
        p=np.inf,
        j_min=1,
        j_max=8,
    ))
    ok = rep.predicted_rate == 2.0 and abs(rep.fitted_slope - 2.0) <= 0.25
    criterion(
        9, ok,
        f"order-4 generator under an order-1 average: predicted "
        f"{rep.predicted_rate:.0f}, slope {rep.fitted_slope:.4f} within 2 +/- 0.25",
    )


def test_criterion_10_rough_signals_cap_the_order(
    criterion, quartic_point_generator
):
    rep1 = convergence_study(StudyPlan(
        generator=quartic_point_generator,
        dilation=dyadic(1),
        rule=ExactRule(),
        signal=laplace1d(1.0 / 3.0),
        p=np.inf,
        j_min=1,
        j_max=8,
        slope_tolerance=0.3,
    ))
    rep2 = convergence_study(StudyPlan(
        generator=quartic_point_generator,
        dilation=dyadic(1),
        rule=ExactRule(),
        signal=matern1d(),
        p=np.inf,
        j_min=1,
        j_max=8,
        slope_tolerance=0.4,
    ))
    ok = (
        rep1.predicted_rate == 1.0
        and abs(rep1.fitted_slope - 1.0) <= 0.3
        and rep2.predicted_rate == 3.0
        and abs(rep2.fitted_slope - 3.0) <= 0.4
    )
    criterion(
        10, ok,
        f"kinked exponential slope {rep1.fitted_slope:.4f} within 1 +/- 0.3; "
        f"once-smoother kernel slope {rep2.fitted_slope:.4f} within 3 +/- 0.4",
    )


def test_criterion_11_isotropic_matrix_dilation(criterion):
    # Per-level contraction is only sqrt(2), so the first four levels are
    # pre-asymptotic; the fit runs over j = 5..8.
    m = quincunx()
    rep = convergence_study(StudyPlan(
        generator=hat(2),
        dilation=m,
        rule=ExactRule(),
        signal=gaussian(2),
        p=np.inf,
        j_min=1,
        j_max=8,
        fit_skip=4,
    ))
    scale_gap = max(
        abs(s - 2.0 ** (-j / 2.0)) for j, s in zip(rep.levels, rep.scales)
    )
    ok = (
        abs(rep.fitted_slope - 2.0) <= 0.25
        and scale_gap <= 1e-12
        and rep.meta["scale_case"] == "isotropic"
    )
    criterion(
        11, ok,
        f"quincunx slope {rep.fitted_slope:.4f} within 2 +/- 0.25 against "
        f"scale 2^(-j/2) (scale error {scale_gap:.1e})",
    )


def test_criterion_12_deviation_decay(criterion):
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
    ok = rep.predicted_rate == 4.0 and rep.fitted_slope >= 3.7 and rep.verdict == "pass"
    criterion(
        12, ok,
        f"max deviation decays at order {rep.fitted_slope:.4f} >= 3.7 "
        f"(predicted {rep.predicted_rate:.0f})",
    )


def test_criterion_13_property_suite(criterion):
    checks = {}

    # partition of unity for the compactly supported kernels
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-0.5, 0.5, (40, 1))
    total = np.zeros(40, dtype=complex)
    for k in range(-3, 4):
        total += hat(1).spatial(x1 - k)
    pou = float(np.max(np.abs(total - 1.0)))
    x2 = rng.uniform(-0.5, 0.5, (40, 2))
    total2 = np.zeros(40, dtype=complex)
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            total2 += hat(2).spatial(x2 - np.array([k1, k2]))
    pou = max(pou, float(np.max(np.abs(total2 - 1.0))))
    xs = np.linspace(0.05, 0.95, 19)
    for m_ord in (2, 3, 4):
        tot = sum(bspline(m_ord, xs - k) for k in range(-3, 4))
        pou = max(pou, float(np.max(np.abs(tot - 1.0))))
    checks["partition of unity"] = pou < 1e-12

    # degree-1 polynomial reproduction by hat shifts
    f = polynomial(1, {(0,): 1.0, (1,): 2.0})
    x = np.linspace(-1.5, 1.5, 101).reshape(-1, 1)
    cs = coefficients(ExactRule(), f, dyadic(1), 3,
                      lattice_support(hat(1), dyadic(1), 3, Box.centered(2.0, 1)))
    values = evaluate(hat(1), dyadic(1), 3, cs, x)
    checks["linear reproduction"] = (
        float(np.max(np.abs(values - f.eval(x)))) < 1e-10
    )

    # the interpolatory kernel reproduces samples at lattice points
    g = sinc_squared(1)
    fg = gaussian(1)
    pts = np.array([[-0.5], [0.0], [0.75]])
    cs = coefficients(ExactRule(), fg, dyadic(1), 2,
                      lattice_support(g, dyadic(1), 2, Box.centered(1.0, 1)))
    values = evaluate(g, dyadic(1), 2, cs, pts)
    checks["lattice interpolation"] = (
        g.interpolatory and float(np.max(np.abs(values - fg(pts)))) < 1e-12
    )

    # the point operator collapses the differential rule to exact samples
    m = quincunx()
    lat = lattice_support(hat(2), m, 2, Box.centered(1.5, 2), 1e-10)
    ce = coefficients(ExactRule(), gaussian(2), m, 2, lat)
    cd = coefficients(
        DifferentialRule(delta_operator(2)), gaussian(2), m, 2, lat
    )
    checks["rule degeneracy"] = (
        ce.lattice == cd.lattice == lat
        and bool(np.all(np.abs(ce.values - cd.values) < 1e-15))
    )

    # fixed seeds make the sampled quadrature and the studies repeatable
    center = np.array([0.2, -0.1, 0.4])
    mc1 = ball_average(gaussian(3), center, 0.6)[0]
    mc2 = ball_average(gaussian(3), center, 0.6)[0]
    plan = StudyPlan(
        generator=hat(1),
        dilation=dyadic(1),
        rule=FalsifiedRule(0.5),
        signal=gaussian(1),
        operator=ball_operator(1, 2, 0.5),
        j_min=1,
        j_max=4,
        grid_per_scale=4,
        fit_skip=1,
    )
    r1 = convergence_study(plan)
    r2 = convergence_study(plan)
    checks["determinism"] = (
        mc1 == mc2 and r1.errors == r2.errors
        and r1.fitted_slope == r2.fitted_slope
    )

    failed = [name for name, ok in checks.items() if not ok]
    criterion(
        13, not failed,
        "all five property suites hold" if not failed
        else f"failing: {', '.join(failed)}",
    )


def test_criterion_14_band_limited_sampling_in_two_dimensions(criterion):
    # the signal's tail limits the coefficient box: 283 x 283 points at
    # level 5, where the generator's reach alone would take 64,059 x 64,059
    rep = convergence_study(StudyPlan(
        generator=sinc_squared(2),
        dilation=dyadic(2),
        rule=ExactRule(),
        signal=gaussian(2),
        j_min=1,
        j_max=5,
    ))
    ok = rep.predicted_rate == 1.0 and abs(rep.fitted_slope - 1.0) <= 0.25
    criterion(
        14, ok,
        f"2-d sinc^2 sampling slope {rep.fitted_slope:.4f} within 1 +/- 0.25 "
        f"(verdict {rep.verdict})",
    )
