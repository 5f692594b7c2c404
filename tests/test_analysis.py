"""Grids, discrete norms, rate fitting, predictions, and small studies."""
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from dilsamp import (
    Box,
    Coefficients,
    ExactRule,
    FalsifiedRule,
    Lattice,
    MissingCoefficientError,
    Signal,
    StudyPlan,
    ball_operator,
    bspline3_2d,
    bspline4_1d,
    coefficients,
    convergence_study,
    deviation_study,
    dilation,
    dyadic,
    evaluate,
    fit_rate,
    gaussian,
    hat,
    laplace1d,
    lattice_support,
    lp_distance,
    make_grid,
    polynomial,
    predicted_rate,
    quincunx,
    sinc_squared,
    sinc_squared_twoscale,
    study_domain,
)
from dilsamp import _quadrature, analysis, apply_to_signal, ball_average, expansion
from dilsamp._arrays import map_rows
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

    def test_leaves_its_arguments_as_they_were(self):
        # the difference is reduced in place, in an array of its own
        fv, qv = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        for p in (2.0, math.inf):
            lp_distance(fv, qv, p, 0.1, 1)
            assert fv.tolist() == [1.0, -2.0, 3.0] and qv.tolist() == [0.5] * 3

    def test_rejects_a_nan_p(self):
        # p < 1 is False for NaN, which then summed |d|**nan into nan
        with pytest.raises(ValueError, match="p must be at least 1, got nan"):
            lp_distance([0.0, 0.5], [1.0, 1.0], math.nan, 0.1, 1)


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

    def test_rejects_a_nan_norm(self):
        # p < 1 is False for NaN, which then read as a saturated rate of 2
        with pytest.raises(ValueError, match="p must be at least 1, got nan"):
            predicted_rate(2, 0, 1.0, 1, math.nan, "sampling")


class TestStudies:
    def test_plan_validates_levels(self):
        with pytest.raises(ValueError):
            StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), j_min=3, j_max=3)

    def test_plan_rejects_a_negative_fit_skip(self):
        # -3 would keep every level in the fit
        with pytest.raises(ValueError, match="fit_skip must be non-negative, got -3"):
            StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), fit_skip=-3)

    def test_plan_rejects_a_grid_per_scale_below_one(self):
        for n in (0, -4):
            with pytest.raises(ValueError, match=f"grid_per_scale must be positive, got {n}"):
                StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), grid_per_scale=n)

    def test_plan_rejects_a_nan_or_small_p(self):
        for p in (math.nan, 0.5):
            with pytest.raises(ValueError, match=f"p must be at least 1, got {p}"):
                StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), p=p)

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
        rep = deviation_study(_deviation_plan(gaussian(1), ball_operator(1, 1, 0.5),
                                              dyadic(1), 0.5, j_min=1, j_max=5,
                                              domain_halfwidth=2.0))
        assert rep.predicted_rate == pytest.approx(2.0)
        assert rep.predicted_case == "smoothness"
        assert 1.5 < rep.fitted_slope < 2.5
        assert rep.verdict == "pass" and rep.used_levels == (1, 2, 3, 4, 5)
        assert rep.meta["mode"] == "deviation" and rep.meta["window"] == 1

    def test_deviation_study_3d_reaches_the_predicted_rate(self):
        # the deterministic ball rule does not floor the deviation; the
        # bound on the slope is criterion 12's
        rep = deviation_study(_DEVIATION_3D)
        assert rep.predicted_rate == 4
        assert rep.fitted_slope >= 3.7


def _deviation_plan(f, op, m, h, **kw):
    return StudyPlan(hat(m.d), m, FalsifiedRule(h, kw.pop("quad", QuadSpec())), f,
                     operator=op, fit_skip=0, **kw)


_DEVIATION_3D = _deviation_plan(gaussian(3), ball_operator(3, 3, 0.5), dyadic(3), 0.5,
                                j_min=1, j_max=4, domain_halfwidth=0.75,
                                quad=QuadSpec(order=6))


class TestDeviationStudy:
    def test_3d_per_axis_averages_within_the_row_bound(self):
        # under a diagonal M^-j the ball averages run per axis; each level
        # stays within the per-axis average's stated 1e-13 * max|c_k| of
        # the same gap formed row by row
        plan = _DEVIATION_3D
        f, m, op, rule = plan.signal, plan.dilation, plan.operator, plan.rule
        rep = deviation_study(plan)
        for j, got in zip(rep.levels, rep.errors):
            ks = expansion._image_box(m, j, study_domain(plan), 0.0).points()
            a = np.asarray(m.power(-j), dtype=float)
            avg = expansion._pullback_average(f, map_rows(ks, a), a, rule.h, rule.quad)
            ref = np.abs(avg - apply_to_signal(op, f, m, j, ks)).max()
            assert abs(got - ref) <= 1e-13 * np.abs(avg).max(), f"level {j}"

    @pytest.mark.parametrize("change,match", [
        (dict(rule=ExactRule()), "rule: a deviation study compares ball averages"),
        (dict(operator=None), "operator: a deviation study needs"),
        (dict(operator=ball_operator(2, 3, 0.5)), "operator: dimension 2 differs"),
        (dict(p=2.0), "p: the deviation is a maximum"),
    ], ids=["rule", "no-operator", "operator-dimension", "finite-p"])
    def test_preconditions_raise_before_any_coefficient(self, change, match, monkeypatch):
        def no_coefficients(*args):
            raise AssertionError("a coefficient was computed")

        monkeypatch.setattr(analysis, "coefficients", no_coefficients)
        plan = dataclasses.replace(
            _deviation_plan(gaussian(1), ball_operator(1, 3, 0.5), dyadic(1), 0.5), **change)
        with pytest.raises(ValueError, match=match):
            deviation_study(plan)

    def test_a_non_finite_gap_fails_the_level(self):
        # NaN values past x = 1; a fit would otherwise call the study
        # inconclusive
        plan = _deviation_plan(gaussian(1), ball_operator(1, 1, 0.5), dyadic(1), 0.5,
                               j_min=1, j_max=4, domain_halfwidth=2.0)
        f = plan.signal

        def pointwise(x):
            return np.where(np.asarray(x)[..., 0] > 1.0, np.nan, f.pointwise(x))

        plan = dataclasses.replace(plan, signal=dataclasses.replace(f, pointwise=pointwise))
        with pytest.raises(ValueError, match="non-finite deviation at level 1: max is nan"):
            deviation_study(plan)


def _whole_grid_errors(plan, edit=lambda cs, j: cs):
    """Each level's error from the whole grid's values: the public calls, in
    the order the study makes them, the coefficients changed by ``edit``."""
    g, m, f = plan.generator, plan.dilation, plan.signal
    domain = study_domain(plan)
    errors = []
    for j in range(plan.j_min, plan.j_max + 1):
        grid, spacing = analysis.level_grid(plan, domain, j)
        cs = edit(coefficients(plan.rule, f, m, j,
                               lattice_support(g, m, j, domain, plan.truncation_tol)), j)
        qv = evaluate(g, m, j, cs, grid)
        errors.append(lp_distance(f.eval(grid), qv, plan.p, spacing, g.d))
    return errors


def test_level_spacing_is_formed_once_per_level(monkeypatch):
    # with the bits of the norm of M^-j, which perfbench's replay forms itself
    module = sys.modules["dilsamp.dilation"]
    calls, norm = [], module.operator_norm
    monkeypatch.setattr(module, "operator_norm", lambda a: calls.append(a) or norm(a))
    plan = StudyPlan(hat(1), dyadic(1), ExactRule(), gaussian(1), j_min=1, j_max=4)
    assert convergence_study(plan).errors == convergence_study(plan).errors
    assert len(calls) == 4
    for j in range(1, 5):
        spacing = analysis.level_grid(plan, study_domain(plan), j)[1]
        assert spacing == norm(plan.dilation.power(-j)) / plan.grid_per_scale


class TestStreamedErrors:
    # the 2-d unbounded boxes are kept small by the coarse tolerance
    PLANS = {
        # the axis operator on a compact generator, one term and two, and on
        # complex values, whose differences take a buffer of their own
        "hat2-dyadic": StudyPlan(hat(2), dyadic(2), ExactRule(), gaussian(2),
                                 j_min=1, j_max=3, grid_per_scale=4),
        "bspline3-dyadic": StudyPlan(bspline3_2d(0.3, 0.8), dyadic(2), ExactRule(),
                                     gaussian(2), j_min=1, j_max=2, grid_per_scale=4),
        "bspline4-odd": StudyPlan(bspline4_1d(0.2, 0.5, -0.1), dyadic(1), ExactRule(),
                                  gaussian(1), j_min=1, j_max=3, grid_per_scale=4),
        # the axis operator on an unbounded generator, one term and two
        "sinc2-1d": StudyPlan(sinc_squared(1), dyadic(1), ExactRule(), gaussian(1),
                              j_min=1, j_max=3, grid_per_scale=4),
        "twoscale-2d": StudyPlan(sinc_squared_twoscale(2), dyadic(2), ExactRule(),
                                 gaussian(2), j_min=0, j_max=1, grid_per_scale=4,
                                 truncation_tol=1e-3),
        # odd levels: the axis operator's gather on lines (compact) and the
        # rows' span sum (unbounded)
        "hat2-quincunx": StudyPlan(hat(2), quincunx(), ExactRule(), gaussian(2),
                                   j_min=2, j_max=3, grid_per_scale=4),
        "sinc2-quincunx": StudyPlan(sinc_squared(2), quincunx(), ExactRule(), gaussian(2),
                                    j_min=0, j_max=1, grid_per_scale=2, truncation_tol=1e-3),
        # p = inf levels that the bound cuts to a sub-box: a wide box, two terms,
        # complex values, quincunx's odd levels (a gather on lines), and a 1-d
        # signal without a factor
        "hat2-wide": StudyPlan(hat(2), dyadic(2), ExactRule(), gaussian(2), j_min=1, j_max=3,
                               grid_per_scale=4, domain_halfwidth=9.0),
        "bspline3-wide": StudyPlan(bspline3_2d(0.3, 0.8), dyadic(2), ExactRule(), gaussian(2),
                                   j_min=1, j_max=2, grid_per_scale=4, domain_halfwidth=7.0),
        "bspline4-wide": StudyPlan(bspline4_1d(0.2, 0.5, -0.1), dyadic(1), ExactRule(),
                                   gaussian(1), j_min=1, j_max=4, grid_per_scale=4,
                                   domain_halfwidth=12.0),
        "hat2-quincunx-odd": StudyPlan(hat(2), quincunx(), ExactRule(), gaussian(2), j_min=1,
                                       j_max=5, grid_per_scale=4, domain_halfwidth=6.0),
        # the exact shear's skew levels 4 and 5 in line mode: level 5's grid (142,129
        # points) would need a sum along its later line of 356 k values per term
        "hat2-shear": StudyPlan(hat(2), dilation([[2, 1], [0, 2]]), ExactRule(), gaussian(2),
                                j_min=4, j_max=5, grid_per_scale=4),
        "kink-wide": StudyPlan(hat(1), dyadic(1), FalsifiedRule(0.5), laplace1d(1 / 3),
                               operator=ball_operator(1, 1, 0.5), mode="falsified1d",
                               j_min=1, j_max=4, grid_per_scale=4),
    }
    CUT = ["hat2-wide", "bspline3-wide", "bspline4-wide", "hat2-quincunx-odd", "hat2-shear",
           "kink-wide"]

    # points per slab: the default, one row per slab, and sizes that leave
    # a shorter last slab (97 on the 1-d grids, 997 on the 2-d ones)
    @pytest.mark.parametrize("rows", [None, 1, 97, 997])
    @pytest.mark.parametrize("name", PLANS)
    def test_bit_identical_to_the_whole_grid_at_p_inf(self, name, rows, monkeypatch):
        plan = self.PLANS[name]
        ref = _whole_grid_errors(plan)
        if rows is not None:
            monkeypatch.setattr(expansion, "_ROWS", rows)
        assert convergence_study(plan).errors == tuple(ref)

    def test_the_sizes_split_the_grids_unevenly(self):
        def uneven(plan, size):
            grids = [analysis.level_grid(plan, study_domain(plan), j)[0]
                     for j in range(plan.j_min, plan.j_max + 1)]
            return any(g.axes[0].size % g.slab_rows(size) for g in grids)

        assert uneven(self.PLANS["sinc2-1d"], 97)
        assert uneven(self.PLANS["hat2-dyadic"], 997)
        assert uneven(self.PLANS["hat2-quincunx"], 997)

    @staticmethod
    def _evaluated(plan, monkeypatch):
        """Per level, the points whose difference the study reduced, and the grid's."""
        seen, add = [], analysis._Lp.add
        monkeypatch.setattr(analysis._Lp, "add",
                            lambda lp, diff: seen.append((lp.level, diff.size)) or add(lp, diff))
        convergence_study(plan)
        domain = study_domain(plan)
        return [(sum(n for j, n in seen if j == level),
                 len(analysis.level_grid(plan, domain, level)[0]))
                for level in range(plan.j_min, plan.j_max + 1)]

    @pytest.mark.parametrize("name", CUT)
    def test_the_bound_cuts_the_grid(self, name, monkeypatch):
        # every level of several slabs is cut; hat2-wide's first level is one
        # slab, so it is evaluated whole, and its others hold most points
        rows = None if name == "hat2-wide" else 97
        if rows is not None:
            monkeypatch.setattr(expansion, "_ROWS", rows)
        counts = self._evaluated(self.PLANS[name], monkeypatch)
        assert all(n < whole for n, whole in counts[rows is None:]), counts
        if rows is None:
            assert counts[0][0] == counts[0][1] <= expansion._ROWS
            assert sum(n for n, _ in counts) < sum(whole for _, whole in counts) / 2

    @pytest.mark.parametrize("change", [dict(p=2.0), dict(generator=sinc_squared(2),
                                                          truncation_tol=1e-3, j_max=2), {}],
                             ids=["finite-p", "unbounded", "one-slab"])
    def test_finite_p_unbounded_generators_and_one_slab_take_the_whole_grid(
            self, change, monkeypatch):
        if not change:
            monkeypatch.setattr(expansion, "_ROWS", 2**30)
        plan = dataclasses.replace(self.PLANS["hat2-wide"], **change)
        assert all(n == whole for n, whole in self._evaluated(plan, monkeypatch))

    @staticmethod
    def _edited(value):
        # one coefficient at the box's edge, two lattice units in, where f and
        # every other coefficient are about 0
        def edit(cs, j):
            vals = cs.values.copy()
            vals[2, vals.shape[1] // 3] = value
            return Coefficients(cs.lattice, vals)
        return edit

    @pytest.mark.parametrize("rows", [None, 97])
    def test_a_maximum_far_from_the_seed(self, rows, monkeypatch):
        plan, edit = self.PLANS["hat2-wide"], self._edited(0.5)
        ref = _whole_grid_errors(plan, edit)
        tail = analysis.tail_coefficients
        monkeypatch.setattr(analysis, "tail_coefficients",
                            lambda rule, f, g, m, j, box: edit(tail(rule, f, g, m, j, box), j))
        if rows is not None:
            monkeypatch.setattr(expansion, "_ROWS", rows)
        got = convergence_study(plan).errors
        assert got == tuple(ref)
        assert all(0.25 < e <= 0.5 for e in got)

    def test_a_nan_coefficient_fails_the_level(self, monkeypatch):
        # at the edge, where the bound would skip a finite coefficient
        plan, edit = self.PLANS["hat2-wide"], self._edited(np.nan)
        tail = analysis.tail_coefficients
        monkeypatch.setattr(analysis, "tail_coefficients", lambda rule, f, g, m, j, box: (
            edit if j == 2 else lambda cs, j: cs)(tail(rule, f, g, m, j, box), j))
        with pytest.raises(ValueError, match="non-finite difference at level 2"):
            convergence_study(plan)

    @pytest.mark.parametrize("name", ["hat2-dyadic", "hat2-quincunx"])
    def test_finite_p_within_the_stated_bound(self, name, monkeypatch):
        plan = dataclasses.replace(self.PLANS[name], p=2.0)
        ref = np.array(_whole_grid_errors(plan))
        monkeypatch.setattr(expansion, "_ROWS", 1)
        got = np.array(convergence_study(plan).errors)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("name", ["hat2-dyadic", "hat2-quincunx"])
    def test_a_slab_outside_a_too_small_box_raises(self, name, monkeypatch):
        def shrunk(*args):
            box = lattice_support(*args)
            return Lattice(np.add(box.origin, 1), np.subtract(box.shape, 2))

        monkeypatch.setattr(analysis, "lattice_support", shrunk)
        monkeypatch.setattr(expansion, "_ROWS", 1)
        with pytest.raises(MissingCoefficientError):
            convergence_study(self.PLANS[name])


def _two_bumps(nan_near=None):
    """A product signal whose factor ``g(t) + g(3 (t - 2)) / 2``, ``g(t) =
    exp(-pi t**2)``, peaks at 0, while its second bump, 4.5 times as curved,
    holds the maximum of ``|f - Q_j f|``: far from a seed at the peak.  Its
    tail ``1.5 g(max(t - 2, 0))`` covers both bumps.  With ``nan_near``, the
    factor is NaN within 0.01 of it where it fills a coefficient's table
    (a 2-d argument), and nowhere on the grid's axes."""
    g = lambda t: np.exp(-np.pi * (t * t))

    def factor(t):
        out = g(t) + g(3 * (t - 2)) / 2
        if nan_near is not None and np.ndim(t) == 2:
            out = np.where(np.abs(t - nan_near) < 0.01, np.nan, out)
        return out

    def derivative(alpha, x):
        raise NotImplementedError

    return Signal("two-bumps", 2, lambda x: factor(x[..., 0]) * factor(x[..., 1]), derivative,
                  None, 0, math.inf, 5.0, factor=factor,
                  tail=lambda t: 1.5 * g(np.maximum(t - 2, 0.0)))


class TestBallAveragesWhereTheMaximumLies:
    """At p = inf a ball-averaged level of more than one slab forms only the
    coefficients at the taps of the points it evaluates."""

    PLAN = StudyPlan(hat(2), dyadic(2), FalsifiedRule(0.5), _two_bumps(),
                     operator=ball_operator(2, 2, 0.5), j_min=2, j_max=3, grid_per_scale=4)

    @staticmethod
    def _formed(monkeypatch):
        """Per level, the boxes of coefficients formed by the study."""
        seen, form = [], expansion.coefficients
        spy = lambda rule, f, m, j, box: seen.append((j, box)) or form(rule, f, m, j, box)
        monkeypatch.setattr(analysis, "coefficients", spy)
        monkeypatch.setattr(expansion, "coefficients", spy)  # tail_coefficients's
        return seen

    @pytest.mark.parametrize("rows", [None, 997])
    def test_a_far_maximum_has_the_whole_grid_bits(self, rows, monkeypatch):
        plan = self.PLAN
        ref = _whole_grid_errors(plan)
        if rows is not None:
            monkeypatch.setattr(expansion, "_ROWS", rows)
        seen = self._formed(monkeypatch)
        assert convergence_study(plan).errors == tuple(ref)
        domain = study_domain(plan)
        for j in range(plan.j_min, plan.j_max + 1):
            # the maximum lies at the second bump on one axis, off the seed's
            # block at the peak (0, 0)
            grid = analysis.level_grid(plan, domain, j)[0]
            cs = coefficients(plan.rule, plan.signal, plan.dilation, j,
                              lattice_support(plan.generator, plan.dilation, j, domain))
            diff = np.abs(plan.signal.eval(grid) - evaluate(plan.generator, plan.dilation, j,
                                                            cs, grid))
            x = np.asarray(grid)[np.argmax(diff)]
            assert np.min(np.abs(x - 2)) < 0.5 < np.max(np.abs(x))
        # fewer coefficients formed than the box holds at level 3 (level 2's
        # box, out to whole tiles, spans its lattice)
        assert sum(len(box) for level, box in seen if level == 3) < len(cs)

    def test_a_3d_level_has_the_whole_grid_bits(self, monkeypatch):
        # the seed spans axis 1, which the operator forms whole
        plan = StudyPlan(hat(3), dyadic(3), FalsifiedRule(0.5), gaussian(3),
                         operator=ball_operator(3, 2, 0.5), j_min=1, j_max=2,
                         grid_per_scale=4, domain_halfwidth=1.5)
        ref = _whole_grid_errors(plan)
        monkeypatch.setattr(expansion, "_ROWS", 997)
        seen = self._formed(monkeypatch)
        assert convergence_study(plan).errors == tuple(ref)
        # level 2 formed a seed's coefficients, then a box's; at level 1 the
        # seed's, out to whole tiles, span the box
        assert [j for j, _ in seen] == [1, 2, 2]

    def test_a_call_reads_only_formed_coefficients(self, monkeypatch):
        # before each call the coefficients at the taps of its rows and
        # columns are formed, and before the seed, which the next calls may
        # reuse, those of the two periods of axis 0 that the operator may
        # form on either side of it (hat's taps: |y - k| < 1)
        calls, make = [], analysis._level

        def level(g, m, j, cs, grid):
            made = make(g, m, j, cs, grid)
            period, scale = made.units[0], np.diagonal(m.power(j))

            def run(lo, hi, cols=None):
                reach = 2 * period if not any(j == c for c, *_ in calls) else 0
                ranges = [(max(0, lo - reach), hi + reach), cols or (0, grid.axes[1].size)]
                box = []
                for x, (a, b), s, o, n in zip(grid.axes, ranges, scale, cs.lattice.origin,
                                              cs.values.shape):
                    y = s * x[a:b]
                    box.append(slice(max(0, math.ceil(y.min() - 1) - o),
                                     min(n, math.floor(y.max() + 1) + 1 - o)))
                calls.append((j, lo, hi, cols))
                assert np.all(cs.values[tuple(box)] != 0), calls[-1]
                return made.run(lo, hi, cols)

            return dataclasses.replace(made, run=run)

        monkeypatch.setattr(analysis, "_level", level)
        convergence_study(self.PLAN)
        assert {j for j, *_ in calls} == {2, 3}

    def test_a_nan_factor_value_inside_the_box_fails_the_level(self):
        plan = dataclasses.replace(self.PLAN, signal=_two_bumps(nan_near=2.0))
        with pytest.raises(ValueError, match="non-finite difference at level 2"):
            convergence_study(plan)

    def test_a_coefficient_the_tail_rules_out_is_not_formed(self, monkeypatch):
        # a NaN table value far in the tail, where the box does not reach:
        # the coefficients it spoils are never read, and at level 3, where
        # they sit at the lattice coordinate -36 on either axis, never formed
        plan = dataclasses.replace(self.PLAN, signal=_two_bumps(nan_near=-4.5))
        ref = convergence_study(self.PLAN).errors
        seen = self._formed(monkeypatch)
        assert convergence_study(plan).errors == ref
        assert all(min(box.origin) > -36 for j, box in seen if j == 3)

    def test_exact_rules_and_finite_p_form_the_whole_box(self, monkeypatch):
        seen = self._formed(monkeypatch)
        for change in (dict(rule=ExactRule()), dict(p=2.0)):
            seen.clear()
            plan = dataclasses.replace(self.PLAN, **change)
            convergence_study(plan)
            domain = study_domain(plan)
            assert [(j, len(box)) for j, box in seen] == [
                (j, len(lattice_support(plan.generator, plan.dilation, j, domain)))
                for j in range(plan.j_min, plan.j_max + 1)]


def test_ball2d_study_memory_fell_with_its_coefficients():
    # criterion 7's 2-d study, the benchmark's ball2d: a tracemalloc peak of
    # 5.04 MB when every level formed its whole coefficient box, 2.17 MB when
    # a level of more than one slab forms the taps it evaluates
    plan = StudyPlan(hat(2), dyadic(2), FalsifiedRule(0.5), gaussian(2),
                     operator=ball_operator(2, 2, 0.5), j_min=1, j_max=5)
    tracemalloc.start()
    try:
        convergence_study(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


class TestNonFiniteErrors:
    def test_lp_distance_rejects_a_non_finite_difference(self):
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(ValueError, match="non-finite difference"):
                lp_distance([0.0, np.nan, 1.0], np.zeros(3), p, 0.1, 1)
            with pytest.raises(ValueError, match="non-finite difference"):
                lp_distance(np.zeros(3), [0.0, 0.0, np.inf], p, 0.1, 1)

    def test_a_nan_in_one_slab_fails_the_level(self, monkeypatch):
        # one point of the level-2 grid is NaN, so every other slab is
        # finite, and max(0.0, nan) would be 0.0
        f = gaussian(2)
        plan = StudyPlan(hat(2), dyadic(2), ExactRule(), f, j_min=1, j_max=3,
                         grid_per_scale=4, domain_halfwidth=2.0)
        grid = analysis.level_grid(plan, study_domain(plan), 2)[0]
        bad = np.asarray(grid)[5 * grid.axes[1].size + 7]

        def pointwise(x):
            hit = np.all(np.abs(np.asarray(x) - bad) < 1e-12, axis=-1)
            return np.where(hit, np.nan, f.pointwise(x))

        plan = dataclasses.replace(plan, signal=dataclasses.replace(
            f, pointwise=pointwise, factor=None))
        assert np.isnan(plan.signal.eval(grid)).sum() == 1
        monkeypatch.setattr(expansion, "_ROWS", 1)
        with pytest.raises(ValueError, match="non-finite difference at level 2"):
            convergence_study(plan)

    def test_fit_rate_rejects_a_nan_level(self):
        scales = 2.0 ** -np.arange(5)
        errors = scales**2
        errors[2] = np.nan
        with pytest.raises(ValueError, match="non-finite error nan at level 2"):
            fit_rate(scales, errors)
        errors[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_rate(scales, errors, levels=range(1, 6))


def test_criterion_7_study_memory_is_bounded():
    # the 2-d study of criterion 7: the whole level-5 grid's values alone
    # are 74 MB, and the study held several such arrays at once
    plan = StudyPlan(hat(2), dyadic(2), FalsifiedRule(0.5), gaussian(2),
                     operator=ball_operator(2, 2, 0.5), j_min=1, j_max=5)
    tracemalloc.start()
    try:
        convergence_study(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


class TestStoredRules:
    """The quadrature rules and the dilation's powers are formed once and
    kept; a study that reuses them gives a first study's bits."""

    @staticmethod
    def _kinked(order=16):
        return StudyPlan(hat(1), dyadic(1), FalsifiedRule(0.5, QuadSpec(order)),
                         laplace1d(0.3), operator=ball_operator(1, 1, 0.5),
                         mode="falsified1d", j_min=1, j_max=4, slope_tolerance=0.3)

    def test_one_legendre_solve_per_order(self, monkeypatch):
        calls, solve = [], np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or solve(n))
        _quadrature._legendre.cache_clear()
        try:
            # every level splits the rule at the kink for some bases
            for order in (16, 12, 16, 12):
                convergence_study(self._kinked(order))
        finally:
            _quadrature._legendre.cache_clear()
        assert calls == [16, 12]

    def test_a_warm_study_gives_a_cold_study_bits(self):
        _quadrature._legendre.cache_clear()
        _quadrature.gauss_gegenbauer.cache_clear()
        plan = self._kinked()
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3))
        # cold: no stored rule and a fresh dilation; warm: both kept
        cold = convergence_study(plan).errors, ball_average(gaussian(3), pts, 0.4)
        warm = convergence_study(plan).errors, ball_average(gaussian(3), pts, 0.4)
        assert [e.hex() for e in cold[0]] == [e.hex() for e in warm[0]]
        assert cold[1].tobytes() == warm[1].tobytes()
