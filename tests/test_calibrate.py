"""Free-parameter calibration against point and ball evaluation contexts."""
import pytest

from dilsamp import (
    CalibrationError,
    ball_operator,
    bspline3_2d,
    bspline4_1d,
    delta_operator,
    flatness_residuals,
    solve_free_params,
)


class TestQuarticFamily:
    def test_point_context_reaches_order_four(self):
        res = solve_free_params(bspline4_1d, delta_operator(1), 4)
        assert res.target_order == 4
        assert abs(res.params["b1"]) < 1e-9
        assert res.params["b2"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert abs(res.params["b3"]) < 1e-9
        assert res.max_residual < 1e-9
        # the zeroth condition holds identically and is dropped from the solve
        assert res.dropped == ((0,),)

    def test_ball_context_shifts_the_even_parameter(self):
        # flattening phi_hat times the ball symbol moves b2 by 2 h^2 / 3
        h = 0.5
        res = solve_free_params(bspline4_1d, ball_operator(1, 3, h), 4)
        assert res.params["b2"] == pytest.approx(2.0 / 3.0 + 2.0 * h**2 / 3.0, abs=1e-9)
        assert abs(res.params["b1"]) < 1e-9
        assert abs(res.params["b3"]) < 1e-9
        assert res.max_residual < 1e-8

    def test_unreachable_order_raises(self):
        with pytest.raises(CalibrationError, match="target order 5"):
            solve_free_params(bspline4_1d, delta_operator(1), 5)


class TestBicubicFamily:
    def test_point_context(self):
        res = solve_free_params(bspline3_2d, delta_operator(2), 3)
        assert res.params["b1"] == pytest.approx(0.5, abs=1e-9)
        assert res.params["b2"] == pytest.approx(0.5, abs=1e-9)
        assert res.max_residual < 1e-8

    def test_ball_context_solution_is_half_of_one_plus_h_squared(self):
        # with a20 = h^2/8 the flat parameter is (1 + 8 a20) / 2 = (1 + h^2) / 2
        h = 0.5
        res = solve_free_params(bspline3_2d, ball_operator(2, 2, h), 3)
        want = 0.5 * (1.0 + h * h)
        assert res.params["b1"] == pytest.approx(want, abs=1e-9)
        assert res.params["b2"] == pytest.approx(want, abs=1e-9)

    def test_sign_flipped_candidate_is_not_flat(self):
        # the competing closed form (1 - h^2/2) / 2 leaves an order-2
        # residual of O(1); the solved parameters pass the same check
        h = 0.5
        op = ball_operator(2, 2, h)
        bad = 0.5 * (1.0 - 4.0 * h * h / 8.0)
        bad_res = flatness_residuals(bspline3_2d(bad, bad), op, 3)
        assert max(abs(v) for v in bad_res.values()) > 1e-2
        good = 0.5 * (1.0 + h * h)
        good_res = flatness_residuals(bspline3_2d(good, good), op, 3)
        assert max(abs(v) for v in good_res.values()) < 1e-8


class TestFlatnessResiduals:
    def test_orders_covered_and_small_at_solution(self):
        g = bspline4_1d(0.0, 2.0 / 3.0, 0.0)
        res = flatness_residuals(g, delta_operator(1), 4)
        assert sorted(res) == [(0,), (1,), (2,), (3,)]
        assert max(abs(v) for v in res.values()) < 1e-8

    def test_detects_missing_flatness(self):
        g = bspline4_1d(0.3, 0.1, 0.0)
        res = flatness_residuals(g, delta_operator(1), 4)
        assert abs(res[(1,)]) > 0.5


class TestCalibratedGenerator:
    @pytest.mark.parametrize("factory,op,n", [
        (bspline4_1d, delta_operator(1), 4),
        (bspline4_1d, ball_operator(1, 3, 0.5), 4),
        (bspline3_2d, delta_operator(2), 3),
    ], ids=["quartic-point", "quartic-ball", "bicubic-point"])
    def test_result_carries_the_verified_generator(self, factory, op, n):
        cal = solve_free_params(factory, op, n)
        assert cal.generator.name == cal.family == factory().name
        assert cal.generator.params == cal.params
        assert flatness_residuals(cal.generator, op, n) == cal.residuals

    def test_factory_is_called_with_keywords(self):
        # the free parameters are the default generator's params keys, so a
        # factory taking them in another positional order solves the same
        def reversed_quartic(b3=0.0, b2=0.0, b1=0.0):
            return bspline4_1d(b1, b2, b3)

        want = solve_free_params(bspline4_1d, ball_operator(1, 3, 0.5), 4)
        got = solve_free_params(reversed_quartic, ball_operator(1, 3, 0.5), 4)
        assert got.params == want.params
        assert got.residuals == want.residuals
