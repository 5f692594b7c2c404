"""Generator catalog: spline values, transforms, flatness, Strang-Fix scans."""
import dataclasses
import math

import numpy as np
import pytest

from dilsamp import (
    SquaredSincs,
    bspline,
    bspline3_2d,
    bspline4_1d,
    bspline_fourier,
    fourier_derivative,
    hat,
    named_generators,
    sinc_squared,
    sinc_squared_twoscale,
    strang_fix_order,
    strang_fix_table,
)
from dilsamp._quadrature import gauss_legendre
from dilsamp.generators import sin_power_shifts

PI = math.pi


def _truncated_power(m: int, x):
    """Oracle: the centered ``B_m`` by the truncated-power formula."""
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


def _shift_spatial(m: int, shifts):
    """Oracle: ``sum_h a_h B_m(x - h)``, one truncated-power sum per shift."""
    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for h, a in shifts:
            out += a * _truncated_power(m, x - h)
        return out

    return ev


def _quad_transform(g, xi: float, radius: float, panel: float = 0.5) -> complex:
    """Fourier transform of ``g.spatial`` by piecewise Gauss-Legendre."""
    total = 0.0 + 0.0j
    edges = np.arange(-radius, radius + panel / 2, panel)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(20, float(a), float(b))
        vals = np.asarray(g.spatial(x.reshape(-1, 1)))
        total += np.sum(w * vals * np.exp(-2j * PI * xi * x))
    return total


class TestBsplineValues:
    def test_center_values(self):
        assert bspline(2, np.array([0.0]))[0] == pytest.approx(1.0)
        assert bspline(3, np.array([0.0]))[0] == pytest.approx(0.75)
        assert bspline(4, np.array([0.0]))[0] == pytest.approx(2.0 / 3.0)

    def test_half_integer_values(self):
        assert bspline(2, np.array([0.5]))[0] == pytest.approx(0.5)
        assert bspline(3, np.array([0.5]))[0] == pytest.approx(0.5)
        assert bspline(4, np.array([0.5]))[0] == pytest.approx(23.0 / 48.0)

    def test_support_edges(self):
        assert bspline(2, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert bspline(4, np.array([2.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert bspline(4, np.array([2.3]))[0] == 0.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_partition_of_unity(self, m):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 7)
        shifts = np.arange(-4, 5)
        total = sum(bspline(m, x - k) for k in shifts)
        assert np.allclose(total, 1.0, atol=1e-13)

    def test_hat_factor_is_the_order_two_spline_bit_for_bit(self):
        one, two = np.nextafter(1.0, [0.0, 2.0]), np.nextafter(-1.0, [0.0, -2.0])
        x = np.concatenate([
            np.random.default_rng(3).uniform(-3, 3, 10_000),
            [0.0, -0.0, 1.0, -1.0, 2.0, -2.0], one, two, [np.nan, np.inf, -np.inf]])
        with np.errstate(invalid="ignore"):  # the truncated powers of inf
            ref = _truncated_power(2, x) + 0.0j
        got = hat(1).terms[0][0](x)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_fourier_is_sinc_power(self):
        xi = np.array([0.5])
        assert bspline_fourier(2, xi)[0] == pytest.approx((2 / PI) ** 2)
        assert bspline_fourier(4, xi)[0] == pytest.approx((2 / PI) ** 4)
        assert bspline_fourier(3, np.array([0.0]))[0] == pytest.approx(1.0)


class TestPiecewisePolynomialForm:
    X = np.concatenate([np.random.default_rng(5).uniform(-5, 5, 20_000),
                        np.arange(-20, 21) / 4.0])

    def _assert_close(self, got, ref):
        # observed: at most 4.5e-15 of the largest value
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bspline_matches_the_truncated_powers(self, m):
        self._assert_close(bspline(m, self.X), _truncated_power(m, self.X))

    def test_quartic_family_matches_its_shifted_sum(self):
        b1, b2, b3 = 0.2, 0.5, -0.1
        shifts = sin_power_shifts(4, {1: b1, 2: b2, 3: b3})
        shifts = [(0.0, 1.0 + 0.0j)] + list(shifts.items())
        ref = _shift_spatial(4, shifts)(self.X)
        self._assert_close(bspline4_1d(b1, b2, b3).spatial(self.X[:, None]), ref)

    def test_bicubic_family_matches_its_shifted_sums(self):
        b1, b2 = 0.3, 0.8
        x = np.random.default_rng(6).uniform(-3, 3, size=(20_000, 2))
        x1, x2 = x[:, 0], x[:, 1]
        base1, base2 = _truncated_power(3, x1) + 0.0j, _truncated_power(3, x2) + 0.0j
        shifted1 = _shift_spatial(3, sin_power_shifts(3, {2: b1}).items())
        shifted2 = _shift_spatial(3, sin_power_shifts(3, {2: b2}).items())
        ref = base1 * base2 + shifted1(x1) * base2 + base1 * shifted2(x2)
        self._assert_close(bspline3_2d(b1, b2).spatial(x), ref)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_support_edges_and_non_finite_points_give_zero(self, m):
        edge = m / 2.0
        x = [edge, np.nextafter(edge, 9.0), np.nextafter(-edge, -9.0), 1e300, -1e300,
             np.nan, np.inf, -np.inf] + ([-edge] if m > 1 else [])
        assert np.array_equal(bspline(m, x), np.zeros(len(x)))
        if m == 1:  # the indicator's left end is closed
            assert bspline(1, -0.5) == 1.0

    def test_family_support_edges_and_non_finite_points_give_zero(self):
        g = bspline4_1d(0.2, 0.5, -0.1)
        r = g.support_radius
        x = np.array([r, -r, np.nextafter(r, 9.0), np.nan, np.inf, -np.inf])
        assert np.array_equal(g.spatial(x[:, None]), np.zeros(len(x)))
        pts = [[2.5, 0.1], [-2.5, 0.3], [0.2, 2.5], [0.1, -2.5], [np.nan, 0.0],
               [0.0, np.inf], [-np.inf, 0.0]]
        assert np.array_equal(bspline3_2d(0.3, 0.8).spatial(pts), np.zeros(len(pts)))

    def test_each_term_has_one_factor_per_axis(self):
        assert [len(g.terms) for g in (hat(2), sinc_squared(3), bspline4_1d(0.1),
                                       bspline3_2d(0.3, 0.8), sinc_squared_twoscale(2),
                                       sinc_squared_twoscale(1))
                ] == [1, 1, 1, 2, 2, 1]
        with pytest.raises(ValueError, match="one factor per axis"):
            dataclasses.replace(hat(2), terms=((hat(1).terms[0][0],),))

    def test_one_dimensional_terms_fold_into_one_factor_bit_for_bit(self):
        # sinc_squared_twoscale(1) = psi(x/2) - psi(x/4) / 4, psi = sinc**2,
        # its two terms added in order by one factor
        x = np.linspace(-40.0, 40.0, 4001)
        parts = np.sinc(x / 2.0) ** 2 + 0.0j, -0.25 * np.sinc(x / 4.0) ** 2 + 0.0j
        g = sinc_squared_twoscale(1)
        assert len(g.terms) == 1
        assert np.array_equal(g.spatial(x[:, None]), parts[0] + parts[1])
        h = dataclasses.replace(hat(1), terms=((np.cos,), (np.sin,), (np.cos,)))
        assert len(h.terms) == 1
        assert np.array_equal(h.spatial(x[:, None]), np.cos(x) + np.sin(x) + np.cos(x))


class TestTransformConsistency:
    def test_hat_fourier_matches_quadrature(self):
        g = hat(1)
        for xi in (0.3, 0.7, 1.4):
            assert g.fourier(np.array([[xi]]))[0] == pytest.approx(
                _quad_transform(g, xi, 1.0), abs=1e-12
            )

    def test_parametrized_quartic_matches_quadrature(self):
        g = bspline4_1d(0.1, 0.4, -0.2)
        for xi in (0.3, 0.7):
            assert complex(g.fourier(np.array([[xi]]))[0]) == pytest.approx(
                _quad_transform(g, xi, g.support_radius), abs=1e-10
            )

    def test_hat_tensorizes(self):
        assert hat(2).spatial(np.array([[0.25, 0.5]]))[0] == pytest.approx(0.375)
        xi = np.array([[0.5, 0.0]])
        assert sinc_squared(2).fourier(xi)[0] == pytest.approx(0.5)


class TestQuarticFamilyFlatness:
    # Taylor data of the parametrized quartic spectrum at the origin:
    #   phi_hat'(0)   = b1 pi
    #   phi_hat''(0)  = (2/3) pi^2 (3 b2 - 2)
    #   phi_hat'''(0) = pi^3 (6 b3 - 5 b1)
    #   phi_hat''''(0) = 24 pi^4 (1/5 - b2)
    def test_origin_derivatives(self):
        b1, b2, b3 = 0.1, 0.4, -0.2
        g = bspline4_1d(b1, b2, b3)
        want = {
            (1,): b1 * PI,
            (2,): (2.0 / 3.0) * PI**2 * (3 * b2 - 2),
            (3,): PI**3 * (6 * b3 - 5 * b1),
            (4,): 24 * PI**4 * (1.0 / 5.0 - b2),
        }
        for beta, val in want.items():
            got = fourier_derivative(g, beta, 0.0)
            assert got == pytest.approx(val, rel=1e-6)

    def test_flat_parameters_from_taylor_data(self):
        # zeroing the first three coefficients forces (b1, b2, b3) = (0, 2/3, 0)
        g = bspline4_1d(0.0, 2.0 / 3.0, 0.0)
        for beta in [(1,), (2,), (3,)]:
            assert abs(fourier_derivative(g, beta, 0.0)) < 1e-7
        # the quartic coefficient cannot also vanish there
        assert abs(fourier_derivative(g, (4,), 0.0)) > 100.0


class TestBicubicFamilyFlatness:
    def test_origin_derivatives(self):
        b1, b2 = 0.3, 0.8
        g = bspline3_2d(b1, b2)
        assert abs(fourier_derivative(g, (1, 0), (0.0, 0.0))) < 1e-9
        assert abs(fourier_derivative(g, (0, 1), (0.0, 0.0))) < 1e-9
        assert fourier_derivative(g, (2, 0), (0.0, 0.0)) == pytest.approx(
            PI**2 * (2 * b1 - 1), rel=1e-6
        )
        assert fourier_derivative(g, (0, 2), (0.0, 0.0)) == pytest.approx(
            PI**2 * (2 * b2 - 1), rel=1e-6
        )


class TestStrangFix:
    def test_catalog_orders(self):
        assert strang_fix_order(sinc_squared(1), 4) == 1
        assert strang_fix_order(hat(1), 4) == 2
        assert strang_fix_order(bspline3_2d(0.5, 0.5), 5) == 3
        assert strang_fix_order(bspline4_1d(0.0, 2.0 / 3.0, 0.0), 6) == 4

    def test_value_only_scan_for_kinked_spectra(self):
        # triangle spectra are not differentiable at lattice points, so the
        # scan stops after certifying vanishing values
        assert strang_fix_order(sinc_squared_twoscale(1), 4) == 1

    def test_hat_table_contents(self):
        order, rows = strang_fix_table(hat(1), 4)
        assert order == 2
        # derivative scan radius 3: k in {-3..3}\{0} for derivative orders 0..2
        assert len(rows) == 18
        assert all(len(r) == 3 for r in rows)
        passing = [r[2] for r in rows if sum(r[1]) < 2]
        assert max(passing) < 1e-7
        # second derivative of sinc^2 at integer k is 2/k^2
        k3 = [r[2] for r in rows if r[0] == (3,) and r[1] == (2,)]
        assert k3[0] == pytest.approx(2.0 / 9.0, rel=1e-6)


class TestFlatSpectrum:
    def test_spectrum_is_one_near_zero_and_zero_off_band(self):
        g = sinc_squared_twoscale(1)
        assert g.band_limited
        assert g.sf_order is None
        assert g.fourier(np.array([[0.1]]))[0] == pytest.approx(1.0)
        for xi in (0.6, 1.0, 2.0):
            assert abs(g.fourier(np.array([[xi]]))[0]) < 1e-15


class TestSquaredSincs:
    def test_numerator_over_the_square_is_the_factor(self):
        x = np.linspace(-30.0, 30.0, 6000)  # no point is 0
        for g in (sinc_squared(1), sinc_squared_twoscale(1), sinc_squared_twoscale(2)):
            for f in (f for t in g.terms for f in t):
                assert np.allclose(f.numerator(x) / x**2, f(x).real, rtol=1e-12, atol=1e-17)
                assert np.allclose(f.numerator(x + f.period), f.numerator(x),
                                   rtol=0.0, atol=1e-14)
                assert f(0.0) == sum(w for w, _ in f.pairs)

    def test_periods_and_the_folded_pairs(self):
        assert sinc_squared(1).terms[0][0].period == 1
        twoscale = sinc_squared_twoscale(1).terms[0][0]
        assert twoscale.pairs == ((1.0, 2.0), (-0.25, 4.0))
        assert twoscale.period == 4
        assert [f.period for t in sinc_squared_twoscale(2).terms for f in t] == [2, 2, 4, 4]

    @pytest.mark.parametrize("scale", [0.0, 1.5, -2.0, np.nan, np.inf])
    def test_scales_must_be_positive_integers(self, scale):
        with pytest.raises(ValueError, match="positive integer scales"):
            SquaredSincs(((1.0, scale),))

    def test_unbounded_generators_need_squared_sincs(self):
        with pytest.raises(ValueError, match="must be SquaredSincs"):
            dataclasses.replace(sinc_squared(1), terms=((lambda x: np.sinc(x) ** 2,),))
        with pytest.raises(ValueError, match="must be SquaredSincs"):
            dataclasses.replace(sinc_squared(2), terms=((sinc_squared(1).terms[0][0], np.cos),))


def test_catalogs():
    assert set(named_generators) == {
        "bspline3_2d",
        "bspline4_1d",
        "hat",
        "sinc_squared",
        "sinc_squared_twoscale",
    }
    # a family is a factory whose default generator has params
    families = {name for name, factory in named_generators.items() if factory().params}
    assert families == {"bspline3_2d", "bspline4_1d"}
    assert tuple(bspline4_1d().params) == ("b1", "b2", "b3")
    assert tuple(bspline3_2d().params) == ("b1", "b2")
    g = named_generators["bspline4_1d"](**{"b1": 0.0, "b2": 2.0 / 3.0, "b3": 0.0})
    assert g.params["b2"] == pytest.approx(2.0 / 3.0)
