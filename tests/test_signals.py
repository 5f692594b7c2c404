"""Signal catalog: derivative oracles, kink guards, decay metadata."""
import dataclasses
import math

import numpy as np
import pytest

from dilsamp import (
    Box,
    Grid,
    gaussian,
    laplace1d,
    make_grid,
    matern1d,
    named_signals,
    polynomial,
)

PI = math.pi


class TestGaussian:
    # f = exp(-pi x^2): f' = -2 pi x f, f'' = (4 pi^2 x^2 - 2 pi) f,
    # f''' = (12 pi^2 x - 8 pi^3 x^3) f,
    # f'''' = (16 pi^4 x^4 - 48 pi^3 x^2 + 12 pi^2) f
    def test_univariate_derivatives_match_closed_forms(self):
        g = gaussian(1)
        x = 0.7
        pts = np.array([[x]])
        e = math.exp(-PI * x * x)
        expected = {
            (1,): -2 * PI * x * e,
            (2,): (4 * PI**2 * x**2 - 2 * PI) * e,
            (3,): (12 * PI**2 * x - 8 * PI**3 * x**3) * e,
            (4,): (16 * PI**4 * x**4 - 48 * PI**3 * x**2 + 12 * PI**2) * e,
        }
        for alpha, want in expected.items():
            got = g.derivative(alpha, pts)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_mixed_partial_factorizes(self):
        g = gaussian(2)
        x, y = 0.3, -0.6
        pts = np.array([[x, y]])
        e = math.exp(-PI * (x * x + y * y))
        want = 4 * PI**2 * x * y * e
        assert g.derivative((1, 1), pts)[0] == pytest.approx(want, rel=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order 6"):
            gaussian(1).derivative((7,), np.array([[0.1]]))

    def test_metadata(self):
        g = gaussian(2)
        assert g.decay_N == 0
        assert g.decay_eps == math.inf
        assert g.deriv_order is None
        assert g.kinks == ()
        # effective support: negligible outside |x| <= T0
        assert g(np.array([[g.T0, 0.0]]))[0] < 1e-12


class TestGridEvaluation:
    def test_one_axis_grid_gives_the_rows_bits(self):
        grid = make_grid(Box.centered(4.2, 1), 0.01)
        f = gaussian(1)
        assert np.array_equal(f.eval(grid), f.eval(grid.points()))

    @pytest.mark.parametrize("d,spacing", [(2, 0.05), (3, 0.2)])
    def test_product_of_factors_matches_the_rows(self, d, spacing):
        grid = make_grid(Box.centered(4.2, d), spacing)
        f, pts = gaussian(d), grid.points()
        got, ref = f.eval(grid), f.eval(pts)
        # 4 ulps where the exponent u = pi |x|^2 is small; exp turns the
        # rounding of u into a relative error of about u ulps, so the two
        # forms drift apart like 1 + u (observed <= 1.23 (1 + u) ulps)
        u = PI * np.sum(pts * pts, axis=1)
        ulp = np.finfo(float).eps * np.abs(ref)
        assert np.all(np.abs(got - ref) <= 4 * ulp * (1 + u))

    @pytest.mark.parametrize("d", [2, 3])
    def test_slabs_share_one_buffer_with_the_grid_bits(self, d):
        grid = make_grid(Box.centered(4.2, d), 0.2 if d == 3 else 0.05)
        f, n = gaussian(d), len(grid) // grid.axes[0].size
        ref, values = f.eval(grid), f.on_grid(grid)
        first = None
        for lo, hi, part in grid.slabs(7):
            got = values(part)
            first = got if first is None else first
            assert np.shares_memory(got, first)
            assert np.array_equal(got, ref[lo * n : hi * n])

    def test_signal_without_factor_takes_the_rows(self):
        grid = Grid((np.linspace(-1, 1, 7),))
        f = laplace1d(0.3)
        assert f.factor is None
        assert np.array_equal(f.eval(grid), f.eval(grid.points()))

    def test_factor_alone_chooses_the_grid_path(self):
        grid = make_grid(Box.centered(4.2, 2), 0.05)
        f = gaussian(2)
        rows = dataclasses.replace(f, factor=None)
        got, pts = rows.eval(grid), grid.points()
        assert np.array_equal(got, f.pointwise(pts))
        # within the product form's documented bound
        u = PI * np.sum(pts * pts, axis=1)
        ulp = np.finfo(float).eps * np.abs(got)
        assert np.all(np.abs(f.eval(grid) - got) <= 4 * ulp * (1 + u))
        assert rows(np.array([[0.3, -0.2]]))[0] == f.eval(np.array([[0.3, -0.2]]))[0]

    def test_grid_dimension_checked(self):
        for f in (gaussian(2), laplace1d(0.3)):
            with pytest.raises(ValueError, match="dimension"):
                f.eval(Grid(([0.1], [0.2]) if f.d == 1 else ([0.1],)))


class TestLaplace:
    def test_derivatives_away_from_kink(self):
        f = laplace1d(0.0)
        for n in (1, 2, 3):
            right = f.derivative((n,), np.array([[0.8]]))[0]
            left = f.derivative((n,), np.array([[-0.8]]))[0]
            assert right == pytest.approx((-1.0) ** n * math.exp(-0.8), rel=1e-14)
            assert left == pytest.approx(math.exp(-0.8), rel=1e-14)

    def test_kink_guard_and_offset(self):
        f = laplace1d(1.0 / 3.0)
        assert f.kinks == (pytest.approx(1.0 / 3.0),)
        assert f(np.array([[1.0 / 3.0]]))[0] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="kink"):
            f.derivative((1,), np.array([[1.0 / 3.0]]))

    def test_decay_metadata(self):
        f = laplace1d(0.0)
        assert (f.decay_N, f.decay_eps, f.deriv_order) == (0, 1.0, 0)


class TestMatern:
    # f = (1+|u|) e^{-|u|}: f' = -u e^{-|u|}, f'' = (|u|-1) e^{-|u|},
    # f''' = sign(u) (2-|u|) e^{-|u|}, f'''' = (|u|-3) e^{-|u|}
    @pytest.mark.parametrize("u", [0.8, -0.8, 2.5])
    def test_derivatives_match_closed_forms(self, u):
        f = matern1d(0.0)
        pts = np.array([[u]])
        au, e = abs(u), math.exp(-abs(u))
        assert f.derivative((0,), pts)[0] == pytest.approx((1 + au) * e)
        assert f.derivative((1,), pts)[0] == pytest.approx(-u * e)
        assert f.derivative((2,), pts)[0] == pytest.approx((au - 1) * e)
        assert f.derivative((3,), pts)[0] == pytest.approx(
            math.copysign(1, u) * (2 - au) * e
        )
        assert f.derivative((4,), pts)[0] == pytest.approx((au - 3) * e)

    def test_continuous_orders_defined_at_kink(self):
        f = matern1d(0.0)
        z = np.array([[0.0]])
        assert f.derivative((1,), z)[0] == pytest.approx(0.0, abs=1e-15)
        assert f.derivative((2,), z)[0] == pytest.approx(-1.0)

    def test_jump_orders_guarded_at_kink(self):
        f = matern1d(0.25)
        with pytest.raises(ValueError, match="kink"):
            f.derivative((3,), np.array([[0.25]]))
        with pytest.raises(ValueError):
            f.derivative((5,), np.array([[1.0]]))

    def test_decay_metadata(self):
        f = matern1d(0.0)
        assert (f.decay_N, f.decay_eps, f.deriv_order) == (2, 1.0, 2)


class TestPolynomial:
    def test_eval_and_derivative_exact(self):
        # p(x, y) = x^2 y + 3 y^2
        p = polynomial(2, {(2, 1): 1.0, (0, 2): 3.0})
        pts = np.array([[2.0, -1.0]])
        assert p.eval(pts)[0] == pytest.approx(-4.0 + 3.0)
        assert p.derivative((1, 1), pts)[0] == pytest.approx(2 * 2.0)  # 2x
        assert p.derivative((2, 1), pts)[0] == pytest.approx(2.0)
        assert p.derivative((3, 0), pts)[0] == pytest.approx(0.0)

    def test_rejects_exponent_arity_mismatch(self):
        with pytest.raises(ValueError):
            polynomial(2, {(1,): 1.0})


class TestTails:
    # every catalog signal with a finite T0, its kink on either side of 0
    SIGNALS = [gaussian(1), gaussian(2), laplace1d(0.0), laplace1d(1.0 / 3.0),
               laplace1d(-0.7), matern1d(0.0), matern1d(0.3), matern1d(-1.2)]
    IDS = ["gauss1", "gauss2", "laplace", "laplace-1/3", "laplace--0.7", "matern",
           "matern-0.3", "matern--1.2"]

    @staticmethod
    def _points(f, reach, n):
        # rows on the axes and on the diagonals of the box [-reach, reach]^d
        t = np.linspace(-reach, reach, n)
        rows = [np.eye(f.d)[a] * t[:, None] for a in range(f.d)] + [np.repeat(t[:, None], f.d, 1)]
        return np.concatenate(rows)

    def test_every_finite_support_signal_has_a_tail(self):
        for name, make in named_signals.items():
            f = make()
            assert math.isfinite(f.T0) and f.tail is not None, name
        assert polynomial(1, {(1,): 1.0}).tail is None

    @pytest.mark.parametrize("f", SIGNALS, ids=IDS)
    def test_below_1e_12_at_t0(self, f):
        # on the faces of the box [-T0, T0]^d and past them, by the signal
        # and by its majorant
        for reach in (f.T0, 1.01 * f.T0, 2 * f.T0):
            x = np.concatenate([np.eye(f.d) * s * reach for s in (-1, 1)])
            assert np.abs(f.eval(x)).max() < 1e-12
        assert f.tail(f.T0) < 1e-12

    @pytest.mark.parametrize("f", SIGNALS, ids=IDS)
    def test_the_majorant_bounds_the_signal(self, f):
        # the gaussian's majorant is the signal itself, equal up to rounding
        x = self._points(f, 1.5 * f.T0, 6001)
        bound = np.prod(f.tail(np.abs(x)), axis=-1) * (1 + 2.0**-40)
        assert np.all(np.abs(f.eval(x)) <= bound)

    @pytest.mark.parametrize("f", SIGNALS, ids=IDS)
    def test_the_majorant_is_non_increasing_and_log_concave(self, f):
        t = np.linspace(0.0, 1.5 * f.T0, 3001)
        v = f.tail(t)
        assert np.all(np.diff(v) <= 0) and np.all(v > 0)
        assert np.all(np.diff(np.log(v), 2) <= 1e-12)

    def test_matern_t0_passes_the_root_of_its_tail(self):
        # (1 + u) exp(-u) = 1e-12 at u = 31.0999, so T0 = 31 was short
        bound = lambda u: (1 + u) * math.exp(-u)
        assert bound(31.0) > 1e-12 > bound(31.1)
        assert matern1d(0.4).T0 == 31.1 + 0.4


def test_catalog_names():
    assert set(named_signals) == {"gaussian", "laplace1d", "matern1d"}
