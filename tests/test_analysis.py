"""Grids, discrete norms, rate fitting, predictions, and small studies."""
import dataclasses
import math

import numpy as np
import pytest

from dilsamp import (
    Box,
    ExactRule,
    FalsifiedRule,
    StudyPlan,
    ball_operator,
    convergence_study,
    deviation_study,
    dyadic,
    fit_rate,
    gaussian,
    hat,
    laplace1d,
    lp_distance,
    make_grid,
    polynomial,
    predicted_rate,
    study_domain,
)
from dilsamp import analysis
from dilsamp._quadrature import QuadSpec


class TestGrid:
    def test_irrational_anchor_avoids_lattice(self):
        g = np.asarray(make_grid(Box((0.0,), (1.0,)), 0.25))
        assert g.shape == (4, 1)
        assert g[0, 0] == pytest.approx(0.25 / math.sqrt(2.0))
        assert np.all((g > 0.0) & (g < 1.0))
        # spacing between consecutive points is the requested one
        assert np.allclose(np.diff(g[:, 0]), 0.25)

    def test_two_dimensional_product(self):
        g = np.asarray(make_grid(Box.centered(1.0, 2), 0.5))
        assert g.shape == (16, 2)
        assert np.all(np.abs(g) < 1.0)


class TestLpDistance:
    def test_unit_disagreement_has_unit_norm_for_every_p(self):
        n = 64
        fv = np.zeros(n)
        qv = np.ones(n)
        for p in (1.0, 2.0, math.inf):
            assert lp_distance(fv, qv, p, 1.0 / n, 1) == pytest.approx(1.0)

    def test_single_spike_scales_with_cell_volume(self):
        fv = np.zeros(100)
        qv = np.zeros(100)
        qv[17] = 2.0
        got = lp_distance(fv, qv, 2.0, 0.01, 1)
        assert got == pytest.approx(2.0 * math.sqrt(0.01))
        assert lp_distance(fv, qv, math.inf, 0.01, 1) == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lp_distance(np.zeros(3), np.zeros(3), 0.5, 0.1, 1)
        with pytest.raises(ValueError):
            lp_distance(np.zeros(0), np.zeros(0), 2.0, 0.1, 1)


class TestFitRate:
    def test_recovers_exact_power_law(self):
        scales = 2.0 ** -np.arange(1, 7)
        fit = fit_rate(scales, 3.0 * scales**2, levels=range(1, 7))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.used_levels == (1, 2, 3, 4, 5, 6)

    def test_skip_discards_preasymptotic_levels(self):
        scales = 2.0 ** -np.arange(1, 8)
        errors = 5.0 * scales**4
        errors[0] *= 40.0  # corrupted warm-up level
        fit = fit_rate(scales, errors, levels=range(1, 8), skip=1)
        assert fit.slope == pytest.approx(4.0, abs=1e-12)
        assert fit.used_levels == (2, 3, 4, 5, 6, 7)

    def test_floor_drops_round_off_levels(self):
        scales = 2.0 ** -np.arange(1, 8)
        errors = 1e-2 * scales**6
        errors[-2:] = 5e-14  # saturated at the arithmetic floor
        fit = fit_rate(scales, errors, floor=1e-12)
        assert 5 not in fit.used_levels and 4 in fit.used_levels
        assert fit.slope == pytest.approx(6.0, abs=1e-10)

    def test_needs_three_surviving_levels(self):
        with pytest.raises(ValueError, match="levels"):
            fit_rate([0.5, 0.25], [1.0, 0.5])

    def test_rejects_degenerate_scales(self):
        with pytest.raises(ValueError):
            fit_rate([0.5, 0.5, 0.5], [1.0, 0.9, 0.8])


class TestPredictedRate:
    def test_generator_saturation(self):
        assert predicted_rate(4, 0, math.inf, 1, math.inf, "sampling") == (
            4.0,
            "saturation",
        )

    def test_signal_window_caps(self):
        rate, case = predicted_rate(4, 0, 1.0, 1, 2.0, "sampling")
        assert rate == pytest.approx(1.5)
        assert case == "smoothness"

    def test_boundary_equality(self):
        assert predicted_rate(2, 1, 1.0, 1, math.inf, "differential") == (
            2.0,
            "boundary",
        )

    def test_band_limited_never_saturates(self):
        rate, case = predicted_rate(None, 2, 1.0, 1, math.inf, "sampling")
        assert (rate, case) == (3.0, "smoothness")

    def test_ball_window_is_operator_order_plus_one(self):
        assert predicted_rate(4, 1, math.inf, 1, math.inf, "falsified") == (
            2.0,
            "smoothness",
        )
        assert predicted_rate(4, 3, math.inf, 2, 2.0, "falsified") == (
            4.0,
            "boundary",
        )

    def test_ball_modes_require_decay_margin(self):
        with pytest.raises(ValueError, match="margin"):
            predicted_rate(4, 2, 1.0, 1, math.inf, "falsified")

    def test_endpoint_variant_is_one_dimensional(self):
        rate, case = predicted_rate(4, 2, math.inf, 1, 2.0, "falsified1d")
        assert rate == pytest.approx(2.5)
        assert case == "smoothness"
        with pytest.raises(ValueError, match="one-dimensional"):
            predicted_rate(4, 2, math.inf, 2, 2.0, "falsified1d")

    def test_flat_mode_reports_window(self):
        assert predicted_rate(None, 1, 1.0, 2, 2.0, "flat") == (3.0, "smoothness")

    def test_rejects_bad_norm_and_mode(self):
        with pytest.raises(ValueError):
            predicted_rate(2, 0, 1.0, 1, 0.5, "sampling")
        with pytest.raises(ValueError, match="mode"):
            predicted_rate(2, 0, 1.0, 1, 2.0, "weird")


class TestStudies:
    def test_plan_validates_levels(self):
        with pytest.raises(ValueError):
            StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), j_min=3, j_max=3)

    def test_domain_override_and_default(self):
        plan = StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1),
                         domain_halfwidth=2.5)
        assert study_domain(plan).hi == (2.5,)
        auto = StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1))
        assert study_domain(auto).hi == (pytest.approx(3.2 + 1.0),)

    def test_unbounded_signal_needs_a_domain_halfwidth(self, monkeypatch):
        plan = StudyPlan(hat(1), dyadic(1), ExactRule(), polynomial(1, {(2,): 1.0}))
        monkeypatch.setattr(analysis, "level_grid", None)
        with pytest.raises(ValueError, match="domain_halfwidth"):
            convergence_study(plan)
        with pytest.raises(ValueError, match="domain_halfwidth"):
            convergence_study(dataclasses.replace(plan, domain_halfwidth=math.inf))

    def test_2d_ball_averaged_study_is_deterministic(self):
        # the per-axis ball averages reduce with BLAS; the same study must
        # still repeat bit for bit, and stay close to the row-path
        # coefficients, taken when the signal's factor is hidden
        plan = StudyPlan(hat(2), dyadic(2), FalsifiedRule(0.5), gaussian(2),
                         operator=ball_operator(2, 2, 0.5), j_min=1, j_max=3,
                         grid_per_scale=4, fit_skip=0)
        first, second = convergence_study(plan), convergence_study(plan)
        assert first.errors == second.errors
        rows = convergence_study(dataclasses.replace(
            plan, signal=dataclasses.replace(plan.signal, factor=None)))
        assert np.allclose(first.errors, rows.errors, rtol=1e-12, atol=0)

    def test_second_order_study_end_to_end(self):
        plan = StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1),
                         j_min=1, j_max=5, grid_per_scale=4, fit_skip=1)
        rep = convergence_study(plan)
        assert rep.levels == (1, 2, 3, 4, 5)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
        assert rep.predicted_rate == pytest.approx(2.0)
        assert rep.predicted_case == "saturation"
        assert rep.meta["mode"] == "sampling"
        assert 1.5 < rep.fitted_slope < 2.5
        assert rep.verdict in ("pass", "fail")

    def test_norm_ordering_across_p(self):
        kw = dict(j_min=1, j_max=4, grid_per_scale=4, fit_skip=0)
        inf_rep = convergence_study(
            StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), p=math.inf, **kw)
        )
        two_rep = convergence_study(
            StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), p=2.0, **kw)
        )
        halfwidth = inf_rep.meta["domain_halfwidth"]
        vol = math.sqrt(2.0 * halfwidth)
        for e2, einf in zip(two_rep.errors, inf_rep.errors):
            assert e2 <= einf * vol * (1.0 + 1e-12)

    def test_kinked_ball_average_study_end_to_end(self):
        # the rough-signal rate of ball-averaged sampling: a kinked Laplace
        # signal caps the hat expansion at order 1
        rep = convergence_study(StudyPlan(
            generator=hat(1),
            dilation=dyadic(1),
            rule=FalsifiedRule(0.5),
            signal=laplace1d(1.0 / 3.0),
            operator=ball_operator(1, 1, 0.5),
            mode="falsified1d",
            j_min=1,
            j_max=7,
            slope_tolerance=0.3,
        ))
        assert rep.meta["mode"] == "falsified1d"
        assert rep.predicted_rate == pytest.approx(1.0)
        assert rep.verdict == "pass"

    def test_deviation_study_targets_operator_order_plus_one(self):
        rep = deviation_study(gaussian(1), ball_operator(1, 1, 0.5), dyadic(1),
                              0.5, j_min=1, j_max=5, domain_halfwidth=2.0)
        assert rep.predicted_rate == pytest.approx(2.0)
        assert 1.5 < rep.fitted_slope < 2.5

    def test_deviation_study_3d_reaches_the_predicted_rate(self):
        # the deterministic ball rule does not floor the deviation; the
        # bound on the slope is criterion 12's
        rep = deviation_study(gaussian(3), ball_operator(3, 3, 0.5), dyadic(3), 0.5,
                              j_min=1, j_max=4, domain_halfwidth=0.75, quad=QuadSpec(order=6))
        assert rep.predicted_rate == 4
        assert rep.fitted_slope >= 3.7
