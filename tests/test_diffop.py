"""Ball averages, moment tables, and constant-coefficient operators."""
import math

import numpy as np
import pytest

from dilsamp import (
    Box,
    DiffOperator,
    ExactRule,
    apply_to_signal,
    ball_average,
    ball_moments,
    ball_operator,
    coefficients,
    delta_operator,
    deviation,
    dilation,
    dyadic,
    evaluate,
    gaussian,
    hat,
    laplace1d,
    lattice_support,
    polynomial,
    quincunx,
    sinc_squared,
    sinc_squared_twoscale,
    symbol,
    triadic,
)
from dilsamp._quadrature import QuadSpec, ball_rule, gauss_legendre, segment_rule
from dilsamp.multiindex import factorial, indices_below

PI = math.pi


class TestQuadratureRules:
    def test_gauss_legendre_exact_on_cubics(self):
        x, w = gauss_legendre(2, 0.0, 2.0)
        assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-14)

    def test_rules_average_normalized(self):
        assert segment_rule(0.7, QuadSpec())[1].sum() == pytest.approx(1.0)
        assert ball_rule(2, 1.3, QuadSpec())[1].sum() == pytest.approx(1.0)
        order = QuadSpec().order
        pts, w = ball_rule(3, 1.0, QuadSpec())
        assert pts.shape == (2 * order**3, 3)
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_or_non_positive_radius_rejected(self, d, h):
        with pytest.raises(ValueError, match="positive and finite"):
            ball_rule(d, h, QuadSpec())
        with pytest.raises(ValueError, match="positive and finite"):
            ball_moments(d, 2, h)
        # ball_average reaches the rule before it evaluates the signal
        with pytest.raises(ValueError, match="positive and finite"):
            ball_average(gaussian(d), [0.0] * d, h)

    @pytest.mark.parametrize("d,order,degree", [(2, 16, 8), (3, 16, 8), (4, 8, 8), (3, 5, 7)])
    def test_product_rule_matches_ball_moments(self, d, order, degree):
        # exact up to degree 2 * order - d: the mean of t**beta over the
        # ball is beta! a_beta; the odd ones vanish, compared at scale h**p
        h = 0.7
        pts, w = ball_rule(d, h, QuadSpec(order))
        powers = pts.T[:, None, :] ** np.arange(degree + 1)[:, None]  # (axis, power, node)
        moments = ball_moments(d, degree, h)
        for beta in indices_below(degree + 1, d):
            got = w @ np.prod(powers[range(d), beta], axis=0)
            want = factorial(beta) * moments[beta]
            scale = abs(want) if want else h ** sum(beta)
            assert abs(got - want) <= 1e-13 * scale, beta

    @pytest.mark.parametrize("radius", [0.25, 0.5, 1.3])
    def test_disk_rule_is_the_polar_product(self, radius):
        # the former 2-d rule: Gauss-Legendre radius times 32 angles
        quad = QuadSpec()
        r, wr = gauss_legendre(quad.order, 0.0, radius)
        theta = 2.0 * np.pi * np.arange(32) / 32
        nodes = np.stack(
            [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()], axis=-1)
        weights = np.outer(wr * r, np.full_like(theta, 2.0 * np.pi / 32)).ravel()
        got_nodes, got_weights = ball_rule(2, radius, quad)
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got_weights, weights / (np.pi * radius**2))

    def test_segment_split_handles_kinks(self):
        # average of |x| over [-1, 1] is exactly 1/2 once split at the kink
        pts, w = segment_rule(1.0, QuadSpec(), breaks=(0.0,))
        assert np.sum(w * np.abs(pts[:, 0])) == pytest.approx(0.5, abs=1e-15)


class TestBallAverage:
    def test_segment_average_of_square(self):
        # (1/2h) int_{c-h}^{c+h} x^2 dx = c^2 + h^2/3
        f = polynomial(1, {(2,): 1.0})
        got = ball_average(f, [0.4], 0.25)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(0.4**2 + 0.25**2 / 3, rel=1e-13)

    def test_disk_average_of_square(self):
        f = polynomial(2, {(2, 0): 1.0})
        assert ball_average(f, [0.0, 0.0], 0.8)[0] == pytest.approx(
            0.8**2 / 4, rel=1e-12
        )

    def test_disk_average_of_gaussian(self):
        # (1/pi) int_{|x|<=1} exp(-pi |x|^2) dx = (1 - e^{-pi}) / pi
        got = ball_average(gaussian(2), [0.0, 0.0], 1.0)[0]
        assert got == pytest.approx((1 - math.exp(-PI)) / PI, rel=1e-12)

    def test_kinked_signal_split_is_exact(self):
        # (1/2) int_{-1}^{1} e^{-|x|} dx = 1 - 1/e
        got = ball_average(laplace1d(0.0), [0.0], 1.0)[0]
        assert got == pytest.approx(1 - 1 / math.e, rel=1e-13)

    def test_ball3_average_of_square(self):
        # (3 / 4 pi) int_{|x|<=1} x_1^2 dx = 1/5
        f = polynomial(3, {(2, 0, 0): 1.0})
        got = ball_average(f, [0.0, 0.0, 0.0], 1.0)[0]
        assert got == pytest.approx(0.2, rel=1e-13)
        # deterministic: bitwise reproducible
        assert got == ball_average(f, [0.0, 0.0, 0.0], 1.0)[0]


class TestBallMoments:
    def test_closed_forms_1d(self):
        h = 0.5
        m = ball_moments(1, 4, h)
        assert m[(2,)] == pytest.approx(h**2 / 6, rel=1e-12)
        assert m[(4,)] == pytest.approx(h**4 / 120, rel=1e-12)

    def test_closed_forms_2d(self):
        h = 0.5
        m = ball_moments(2, 4, h)
        assert m[(2, 0)] == pytest.approx(h**2 / 8, rel=1e-12)
        assert m[(0, 2)] == pytest.approx(h**2 / 8, rel=1e-12)
        assert m[(2, 2)] == pytest.approx(h**4 / 96, rel=1e-12)
        assert m[(4, 0)] == pytest.approx(h**4 / 192, rel=1e-12)

    def test_closed_forms_3d(self):
        m = ball_moments(3, 2, 0.5)
        assert m[(2, 0, 0)] == pytest.approx(0.5**2 / 10, rel=1e-12)

    def test_zeroth_and_odd_moments_exact(self):
        m = ball_moments(1, 1, 0.5)
        assert m == {(0,): 1.0, (1,): 0.0}
        m2 = ball_moments(2, 3, 0.7)
        assert m2[(0, 0)] == 1.0
        assert all(m2[k] == 0.0 for k in m2 if sum(k) % 2 == 1)


class TestOperators:
    def test_delta(self):
        op = delta_operator(2)
        assert op.order == 0
        assert op.coeffs == {(0, 0): 1.0}
        assert symbol(op, np.array([0.3, -1.2])) == pytest.approx(1.0)

    def test_ball_operator_drops_zero_terms_keeps_order(self):
        op = ball_operator(1, 1, 0.5)
        assert op.order == 1
        assert op.coeffs == {(0,): 1.0 + 0.0j}
        op2 = ball_operator(2, 2, 0.5)
        assert (1, 0) not in op2.coeffs
        assert op2.coeffs[(2, 0)] == pytest.approx(0.5**2 / 8)

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="does not match dimension"):
            DiffOperator(2, {(1,): 1.0}, 1)
        with pytest.raises(ValueError, match="exceeds declared order"):
            DiffOperator(1, {(3,): 1.0}, 2)

    def test_symbol_tracks_segment_average_of_waves(self):
        # averaging e^{2 pi i xi x} over [-h, h] gives sinc(2 h xi); the
        # symbol of the order-4 ball operator is its Taylor polynomial
        h, xi = 0.5, 0.1
        op = ball_operator(1, 4, h)
        want = math.sin(2 * PI * xi * h) / (2 * PI * xi * h)
        assert symbol(op, np.array([xi])) == pytest.approx(want, abs=1e-6)

    def test_symbol_value_at_origin(self):
        assert symbol(ball_operator(2, 2, 0.3), np.array([0.0, 0.0])) == pytest.approx(1.0)


class TestApplyToSignal:
    def test_delta_application_is_sampling(self):
        f = gaussian(1)
        m = dyadic(1)
        got = apply_to_signal(delta_operator(1), f, m, 2, (3,))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(complex(f(np.array([[0.75]]))[0]))

    def test_ball_application_combines_scaled_derivatives(self):
        # L[f(M^-j .)](k) = f(x) + a2 2^{-2j} f''(x) at x = 2^{-j} k
        f = gaussian(1)
        m = dyadic(1)
        h, j, k = 0.5, 1, 1
        x = np.array([[0.5]])
        a2 = h**2 / 6
        want = f(x)[0] + a2 * 2.0 ** (-2 * j) * f.derivative((2,), x)[0]
        got = apply_to_signal(ball_operator(1, 2, h), f, m, j, (k,))[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_rough_signal_guard(self):
        with pytest.raises(ValueError, match="exceeds signal smoothness"):
            apply_to_signal(ball_operator(1, 2, 0.5), laplace1d(0.0), dyadic(1), 1, (1,))


_RNG = np.random.default_rng(5)
_KS2 = _RNG.integers(-9, 10, size=(11, 2))
_SHEAR = dilation([[3, 1], [0, 3]])
# Exact coefficients of hat(2) under the shear at level 2: the entries of
# M^2 are not powers of two, so each point must be mapped on its own.
_SHEAR_CS = coefficients(
    ExactRule(), gaussian(2), _SHEAR, 2, lattice_support(hat(2), _SHEAR, 2, Box.centered(1.0, 2)))
# The unbounded generator sums the span of its nonzero coefficients in
# chunks of points; the coarse tolerance keeps the box small.
_SINC_CS = coefficients(ExactRule(), gaussian(2), _SHEAR, 1, lattice_support(
    sinc_squared(2), _SHEAR, 1, Box.centered(1.0, 2), 1e-3))
_TWOSCALE_CS = coefficients(ExactRule(), gaussian(2), quincunx(), 1, lattice_support(
    sinc_squared_twoscale(2), quincunx(), 1, Box.centered(1.0, 2), 1e-2))
_QUINCUNX_CS = coefficients(ExactRule(), gaussian(2), quincunx(), 3, lattice_support(
    sinc_squared(2), quincunx(), 3, Box.centered(1.0, 2), 1e-3))


@pytest.mark.parametrize("call,rows", [
    # 1-d centers around the kink at 1/3: some balls split, some not
    (lambda x: ball_average(laplace1d(1 / 3), x, 0.5), np.linspace(-0.9, 1.1, 11)[:, None]),
    (lambda x: ball_average(gaussian(2), x, 0.7), _RNG.uniform(-1, 1, size=(11, 2))),
    # the 3-d product rule: 8,192 nodes per ball
    (lambda x: ball_average(gaussian(3), x, 0.6), _RNG.uniform(-1, 1, size=(3, 3))),
    (lambda x: deviation(gaussian(2), ball_operator(2, 2, 0.4), quincunx(), 3, x, 0.4), _KS2),
    (lambda x: deviation(gaussian(1), ball_operator(1, 3, 0.5), triadic(1), 2, x, 0.5),
     _KS2[:, :1]),
    (lambda x: apply_to_signal(ball_operator(2, 4, 0.5), gaussian(2), _SHEAR, 2, x), _KS2),
    (lambda x: evaluate(hat(2), _SHEAR, 2, _SHEAR_CS, x),
     np.random.default_rng(0).uniform(-1, 1, size=(200, 2))),
    (lambda x: evaluate(sinc_squared(2), _SHEAR, 1, _SINC_CS, x),
     np.random.default_rng(1).uniform(-1, 1, size=(200, 2))),
    (lambda x: evaluate(sinc_squared_twoscale(2), quincunx(), 1, _TWOSCALE_CS, x),
     np.random.default_rng(2).uniform(-1, 1, size=(100, 2))),
    (lambda x: evaluate(sinc_squared(2), quincunx(), 3, _QUINCUNX_CS, x),
     np.random.default_rng(3).uniform(-1, 1, size=(100, 2))),
], ids=["ball_average-1d-kink", "ball_average-2d", "ball_average-3d", "deviation-2d",
        "deviation-1d", "apply_to_signal-2d", "evaluate-2d-shear", "evaluate-2d-sinc",
        "evaluate-2d-twoscale", "evaluate-2d-sinc-quincunx-3"])
def test_one_point_call_matches_its_row(call, rows):
    # Each row's sum is reduced on its own, so a one-point call gives the
    # many-point call's value bit for bit.
    many = call(rows)
    assert many.shape == (len(rows),)
    for i, row in enumerate(rows):
        one = call(row)
        assert one.shape == (1,)
        assert one[0] == many[i], f"row {i}"
