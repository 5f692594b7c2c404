"""Expansion machinery: lattices, coefficient rules, evaluation, deviation."""
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dilsamp import (
    Box,
    Coefficients,
    DifferentialRule,
    ExactRule,
    FalsifiedRule,
    Grid,
    Lattice,
    MissingCoefficientError,
    ball_operator,
    bspline3_2d,
    bspline4_1d,
    coefficients,
    delta_operator,
    deviation,
    diagonal,
    dilation,
    dyadic,
    evaluate,
    expand,
    gaussian,
    hat,
    laplace1d,
    lattice_support,
    make_grid,
    matern1d,
    operator_norm,
    polynomial,
    quincunx,
    sinc_squared,
    sinc_squared_twoscale,
    triadic,
)
from dilsamp import expansion
from dilsamp._arrays import map_rows
from dilsamp._quadrature import QuadSpec, ball_rule


class TestBox:
    def test_centered(self):
        b = Box.centered(2.0, 2)
        assert b.lo == (-2.0, -2.0) and b.hi == (2.0, 2.0)
        assert b.d == 2
        assert b.corners().shape == (4, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Box((0.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            Box((0.0, bound), (1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            lattice_support(hat(1), dyadic(1), 1, Box.centered(bound, 1))


class TestLattice:
    def test_length_origin_and_order(self):
        lat = Lattice([-2, 5, 0], [3, 1, 4])
        assert lat.origin == (-2, 5, 0) and lat.shape == (3, 1, 4)
        assert lat.d == 3 and len(lat) == 12
        want = [(-2 + a, 5 + b, c) for a, b, c in np.ndindex(3, 1, 4)]
        assert lat.points().tolist() == [list(k) for k in want]

    @pytest.mark.parametrize("shape", [[0], [2, 0], [3, -1]])
    def test_rejects_an_empty_lattice(self, shape):
        with pytest.raises(ValueError, match="empty"):
            Lattice([0] * len(shape), shape)

    def test_rejects_mismatched_axes(self):
        with pytest.raises(ValueError, match="one entry per axis"):
            Lattice([0, 0], [3])


class TestGrid:
    def test_points_are_the_old_make_grid_rows(self):
        domain, spacing = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 2.75)), 0.25
        grid = make_grid(domain, spacing)
        # the rows make_grid built before it returned a Grid
        axes = [lo + (np.arange(math.floor((hi - lo) / spacing)) + 1 / math.sqrt(2)) * spacing
                for lo, hi in zip(domain.lo, domain.hi)]
        rows = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert grid.d == 3 and rows.shape == (8 * 2 * 3, 3)
        assert np.array_equal(grid.points(), rows)
        assert len(grid) == len(rows)
        assert np.array_equal(np.asarray(grid), rows)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slabs_give_the_rows(self, d):
        rng = np.random.default_rng(d)
        grid = Grid([rng.uniform(-3.0, 3.0, n) for n in (5, 7, 4)[:d]])
        per_row = len(grid) // 5
        for size, rows in ((1, 1), (3 * per_row - 1, 2), (10**6, 5)):
            assert grid.slab_rows(size) == rows
            slabs = list(grid.slabs(rows))
            assert [(lo, hi) for lo, hi, _ in slabs] == [
                (lo, min(lo + rows, 5)) for lo in range(0, 5, rows)]
            assert np.array_equal(np.concatenate([s.points() for *_, s in slabs]),
                                  grid.points())

    def test_rejects_an_empty_axis(self):
        with pytest.raises(ValueError, match="at least one point"):
            Grid(([0.0, 1.0], []))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_axis(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid(([0.0, bad], [0.5]))


class TestLatticeSupport:
    def test_covers_every_contributing_shift(self):
        g = hat(1)
        m = dyadic(1)
        lat = lattice_support(g, m, 2, Box.centered(1.0, 1))
        ks = {tuple(k) for k in lat.points()}
        # phi(4x - k) != 0 on [-1, 1] exactly for k in -4..4
        assert ks >= {(k,) for k in range(-4, 5)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            lattice_support(hat(2), dyadic(1), 1, Box.centered(1.0, 1))

    @pytest.mark.parametrize("g,domain,tol", [
        # the reach sqrt(decay_const / tol) is 3.2e19
        (sinc_squared(1), Box.centered(1, 1), 1e-40),
        (hat(1), Box.centered(1e19, 1), 1e-10),
    ], ids=["tiny-tolerance", "huge-domain"])
    def test_box_past_two_to_the_62_rejected(self, g, domain, tol):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            lattice_support(g, dyadic(1), 1, domain, tol)

    def test_truncated_sum_is_exact_for_compact_support(self):
        g = hat(1)
        m = dyadic(1)
        f = gaussian(1)
        domain = Box.centered(1.0, 1)
        x = np.linspace(-0.95, 0.95, 41).reshape(-1, 1)
        res = expand(g, m, 2, ExactRule(), f, domain, x)
        dense = np.zeros(len(x), dtype=complex)
        for k in range(-30, 31):
            dense += complex(f(np.array([[k / 4.0]]))[0]) * g.spatial(4.0 * x - k)
        assert np.max(np.abs(res.values - dense)) < 1e-14


def _at(cs, k):
    """The coefficient of lattice point ``k`` in a coefficient box."""
    return cs.values[tuple(np.subtract(k, cs.lattice.origin))]


class TestCoefficientRules:
    def test_exact_rule_samples_on_the_scaled_lattice(self):
        f = gaussian(1)
        m = dyadic(1)
        # the smallest box holding the points 0, 4 and -8
        c = coefficients(ExactRule(), f, m, 3, Lattice([-8], [13]))
        assert _at(c, (4,)) == pytest.approx(complex(f(np.array([[0.5]]))[0]))
        assert _at(c, (-8,)) == pytest.approx(complex(f(np.array([[-1.0]]))[0]))

    def test_point_operator_reduces_to_exact(self):
        f = gaussian(2)
        m = quincunx()
        # the smallest box holding (0, 0), (1, 2) and (-1, 3)
        lattice = Lattice([-1, 0], [3, 4])
        ce = coefficients(ExactRule(), f, m, 2, lattice)
        cd = coefficients(DifferentialRule(delta_operator(2)), f, m, 2, lattice)
        assert ce.lattice == cd.lattice == lattice
        assert ce.values.shape == cd.values.shape == (3, 4)
        assert np.all(np.abs(ce.values - cd.values) < 1e-15)

    def test_falsified_rule_is_a_pullback_ball_average(self):
        # c_k = average of f(M^-j (k + t)) over |t| <= h; for f = x^2,
        # M = 2, j = 1, k = 3: ((3 + t)/2)^2 averages to (9 + h^2/3) / 4
        f = polynomial(1, {(2,): 1.0})
        h = 0.5
        c = coefficients(FalsifiedRule(h), f, dyadic(1), 1, Lattice([3], [1]))
        assert _at(c, (3,)) == pytest.approx((9.0 + h**2 / 3.0) / 4.0, rel=1e-12)

    def test_lattice_dimension_checked(self):
        with pytest.raises(ValueError, match="lattice dimension"):
            coefficients(ExactRule(), gaussian(2), dyadic(2), 1, Lattice([0], [3]))

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    def test_falsified_rejects_bad_radius(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            FalsifiedRule(h)


def _per_base_split(f, m, j, ks, h, quad=QuadSpec()):
    """Reference: the segment rule split at the kinks, built base by base."""
    a = np.asarray(m.power(-j), dtype=float)
    scale = float(a[0, 0])
    out = []
    for base in (ks @ a.T)[:, 0]:
        breaks = [(x0 - base) / scale for x0 in f.kinks]
        nodes, weights = ball_rule(1, h, quad, breaks=breaks)
        out.append(np.asarray(f.eval(base + nodes * scale)) @ weights)
    return np.asarray(out)


class TestKinkedCoefficients:
    # (dilation, level): the dyadic scale 1/8, and M = -2 at an odd level,
    # whose scale -1/8 is negative
    LEVELS = [(dyadic(1), 3), (dilation([[-2]]), 3)]
    LATTICE = Lattice([-40], [81])
    KS = LATTICE.points()

    @pytest.mark.parametrize("make", [laplace1d, matern1d])
    @pytest.mark.parametrize("kink", ["off_lattice", "on_lattice", "ball_edge"])
    @pytest.mark.parametrize("h", [0.25, 1.3])
    @pytest.mark.parametrize("m,j", LEVELS)
    def test_matches_the_per_base_split_rule(self, make, kink, h, m, j):
        scale = float(m.power(-j)[0, 0])
        # the ball edge lies h * |scale| from base 0: h and the power-of-two
        # scale make (x0 - 0) / scale = +-h exactly, so base 0 must not split
        x0 = {"off_lattice": 1.0 / 3.0, "on_lattice": 0.0}.get(kink, h * abs(scale))
        f = make(x0)
        got = coefficients(FalsifiedRule(h), f, m, j, self.LATTICE).values
        ref = _per_base_split(f, m, j, self.KS, h)
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - ref)) <= 4 * eps * np.max(np.abs(ref))

        # only the bases with the kink strictly inside their ball, by exact
        # arithmetic, leave the unsplit rule; at most floor(2h) + 1 of them
        smooth = coefficients(
            FalsifiedRule(h), dataclasses.replace(f, kinks=()), m, j, self.LATTICE
        ).values
        split = {int(k) for k, c, s in zip(self.KS[:, 0], got, smooth) if c != s}
        offset = Fraction(x0) / Fraction(scale)
        inside = {int(k) for k in self.KS[:, 0] if abs(offset - int(k)) < Fraction(h)}
        assert split == inside
        assert len(inside) <= math.floor(2 * h) + 1
        if kink == "ball_edge":
            assert 0 not in split


def _rows(f, m, j, lattice, rule):
    """The row path of the ball average on the lattice box's points."""
    a = np.asarray(m.power(-j), dtype=float)
    bases = map_rows(lattice.points(), a)
    return expansion._pullback_average(f, bases, a, rule.h, rule.quad)


class TestPerAxisBallAverage:
    # (signal, dilation, level, box halfwidth): M^-j is diagonal in every
    # case, so the ball centers form a tensor grid
    CASES = [
        (gaussian(2), dyadic(2), 2, 1.5),
        (gaussian(2), triadic(2), 1, 1.5),
        (gaussian(2), diagonal((2, 3)), 2, 1.5),
        # the quincunx M squares to 2I, so M^-2 = I/2
        (gaussian(2), quincunx(), 2, 1.5),
        (gaussian(3), dyadic(3), 1, 0.75),
    ]

    @pytest.mark.parametrize("f,m,j,t", CASES, ids=[
        "dyadic2", "triadic2", "diag23", "quincunx-even", "dyadic3"])
    def test_matches_the_row_path(self, f, m, j, t, monkeypatch):
        lattice = lattice_support(hat(f.d), m, j, Box.centered(t, f.d))
        rule = FalsifiedRule(0.5)
        ref = _rows(f, m, j, lattice, rule)
        calls = []
        axes = expansion._average_axes
        monkeypatch.setattr(expansion, "_average_axes",
                            lambda *a: calls.append(a) or axes(*a))
        got = coefficients(rule, f, m, j, lattice).values.ravel()
        assert len(calls) == 1
        # observed: at most 1.0e-15 here, 4.4e-15 on the boxes of criterion
        # 7 (levels 1..5), relative to the largest coefficient
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("f,m,j", [
        # M^-1 of the quincunx is not diagonal
        (gaussian(2), quincunx(), 1),
        # a polynomial has no per-axis factor
        (polynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 3): 0.25}), dyadic(2), 2),
    ], ids=["quincunx-odd", "polynomial"])
    def test_stays_on_the_rows(self, f, m, j, monkeypatch):
        lattice = lattice_support(hat(2), m, j, Box.centered(1.5, 2))
        rule = FalsifiedRule(0.5)
        monkeypatch.setattr(expansion, "_average_axes", None)
        got = coefficients(rule, f, m, j, lattice).values.ravel()
        assert np.array_equal(got, _rows(f, m, j, lattice, rule))


class TestEvaluation:
    def test_missing_coefficient_detected(self):
        with pytest.raises(MissingCoefficientError, match="no coefficient"):
            evaluate(hat(1), dyadic(1), 0, Coefficients(Lattice([0], [1]), [1.0]),
                     np.array([[0.6]]))

    def test_coefficient_values_must_fill_the_box(self):
        with pytest.raises(ValueError):
            Coefficients(Lattice([0], [3]), [1.0, 2.0])

    def test_coefficient_box_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            evaluate(hat(1), dyadic(1), 0, Coefficients(Lattice([0, 0], [1, 1]), [[1.0]]),
                     [[0.3]])

    def test_scalar_point_in_one_dimension(self):
        g, m = hat(1), dyadic(1)
        lat = lattice_support(g, m, 2, Box.centered(1.0, 1))
        cs = coefficients(ExactRule(), gaussian(1), m, 2, lat)
        scalar = evaluate(g, m, 2, cs, 0.3)
        assert scalar.shape == (1,)
        assert scalar[0] == evaluate(g, m, 2, cs, [[0.3]])[0]

    def test_linear_reproduction_by_hat(self):
        # hat shifts reproduce polynomials of degree <= 1 exactly
        f = polynomial(1, {(0,): 1.0, (1,): 2.0})
        m = dyadic(1)
        domain = Box.centered(2.0, 1)
        x = np.linspace(-1.5, 1.5, 101).reshape(-1, 1)
        res = expand(hat(1), m, 3, ExactRule(), f, domain, x)
        assert np.max(np.abs(res.values - f.eval(x))) < 1e-10

    def test_interpolatory_generator_matches_samples_on_the_lattice(self):
        g = sinc_squared(1)
        assert g.interpolatory
        f = gaussian(1)
        m = dyadic(1)
        j = 2
        pts = np.array([[-0.5], [0.0], [0.75]])  # lattice points over 4
        res = expand(g, m, j, ExactRule(), f, Box.centered(1.0, 1), pts)
        assert np.max(np.abs(res.values - f(pts))) < 1e-12

    def test_expansion_result_fields(self):
        f = gaussian(1)
        res = expand(hat(1), dyadic(1), 1, ExactRule(), f, Box.centered(1.0, 1),
                     np.array([[0.3]]))
        assert res.level == 1
        cs = res.coefficients
        assert cs.lattice == lattice_support(hat(1), dyadic(1), 1, Box.centered(1.0, 1))
        assert len(cs) == len(cs.lattice) == cs.values.size
        assert cs.values.shape == cs.lattice.shape
        assert np.array_equal(np.asarray(cs), cs.values)
        assert res.points.shape == (1, 1)
        assert res.values.shape == (1,)


def _general(g, m, j, cs, points):
    """The rows' sum, called directly: ``evaluate`` takes the per-axis
    kernel in 1-d and on a grid under a diagonal ``M^j``.  An unbounded
    generator contracts the nonzero span as rows, as in ``evaluate``."""
    y = map_rows(np.asarray(points, dtype=float), np.asarray(m.power(j), dtype=float))
    if g.support_radius is None:
        return expansion._span_terms(g, expansion._nonzero_span(cs), y.T, True)
    return expansion._rows_kernel(g, cs, len(y))(y)


def _expansion_on_grid(g, m, j, halfwidth=1.5):
    domain = Box.centered(halfwidth, g.d)
    # the coarse tolerance keeps an unbounded generator's 2-d box small
    lattice = lattice_support(g, m, j, domain, 1e-10 if g.d == 1 else 1e-2)
    cs = coefficients(ExactRule(), gaussian(g.d), m, j, lattice)
    return cs, make_grid(domain, operator_norm(m.power(-j)) / 8)


class TestPerAxisEvaluation:
    # (generator, dilation, level): M^j is diagonal in every case
    CASES = [
        (hat(1), dyadic(1), 3),
        (hat(1), dilation([[-2]]), 3),
        (hat(1), triadic(1), 2),
        # ball-calibrated at h = 0.5, and with imaginary odd-shift amplitudes
        (bspline4_1d(0.0, 2 / 3 + 2 * 0.5**2 / 3, 0.0), dyadic(1), 3),
        (bspline4_1d(0.2, 0.5, -0.1), triadic(1), 2),
        (hat(2), dyadic(2), 3),
        (hat(2), diagonal((2, 3)), 2),
        (hat(3), dyadic(3), 1),
        # the quincunx M squares to 2I, so even levels are diagonal
        (hat(2), quincunx(), 4),
        # unbounded: the taps span the nonzero coefficients
        (sinc_squared(1), dyadic(1), 3),
        # two terms each, compact and unbounded
        (bspline3_2d(0.5, 0.5), dyadic(2), 2),
        (sinc_squared_twoscale(2), dyadic(2), 1),
    ]

    @pytest.mark.parametrize("g,m,j", CASES, ids=[
        "hat1-dyadic", "hat1-minus2", "hat1-triadic", "bspline4-ball", "bspline4-odd",
        "hat2-dyadic", "hat2-diag23", "hat3-dyadic", "hat2-quincunx-even",
        "sinc2-dyadic", "bspline3-dyadic", "twoscale2-dyadic"])
    def test_matches_the_general_path(self, g, m, j, monkeypatch):
        cs, grid = _expansion_on_grid(g, m, j)
        ref = _general(g, m, j, cs, grid)
        # rows take the general path in d >= 2; in 1-d they form a one-axis
        # grid, whose per-axis sum is the general path's arithmetic
        assert np.array_equal(evaluate(g, m, j, cs, np.asarray(grid)), ref)
        calls = []
        monkeypatch.setattr(expansion, "_rows_kernel",
                            lambda *a: calls.append(a))
        got = evaluate(g, m, j, cs, grid)
        assert not calls
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(cs.values))
        if g.d == 1:
            assert np.array_equal(got, ref)

    def test_odd_quincunx_level_takes_the_general_path(self, monkeypatch):
        g, m, j = hat(2), quincunx(), 3
        cs, grid = _expansion_on_grid(g, m, j)
        monkeypatch.setattr(expansion, "_axes_kernel", None)
        assert np.array_equal(evaluate(g, m, j, cs, grid), _general(g, m, j, cs, grid))

    def test_missing_coefficient_detected(self):
        cs = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
        # phi(x - (1, k2)) is nonzero at x = (0.3, 0.6), outside the box
        missing = r"no coefficient for lattice coordinate \[1\] on axis 0"
        with pytest.raises(MissingCoefficientError, match=missing):
            evaluate(hat(2), dyadic(2), 0, cs, Grid(([0.3], [0.6])))

    def test_grid_dimension_checked(self):
        cs = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
        with pytest.raises(ValueError, match="dimension"):
            evaluate(hat(2), dyadic(2), 0, cs, Grid(([0.3],)))


_SHEAR = dilation([[3, 1], [0, 3]])


def _spatial_taps(g, m, j, cs, points):
    """The general kernel's sum with each tap's value from ``g.spatial``."""
    y = map_rows(np.asarray(points, dtype=float), np.asarray(m.power(j), dtype=float))
    k0, width = expansion._taps(g, y)
    origin, acc = np.asarray(cs.lattice.origin), np.zeros(len(y), dtype=complex)
    for off in np.ndindex(*(width,) * g.d):
        k = k0 + off
        inside = np.all((k >= origin) & (k < origin + cs.values.shape), axis=1)
        c = cs.values[tuple(np.where(inside[:, None], k - origin, 0).T)]
        acc += np.where(inside, c, 0.0) * g.spatial(y - k)
    return acc


class TestFactoredTaps:
    # (dilation, level): M^j is not diagonal, so the general kernel runs
    CASES = [(quincunx(), 1), (quincunx(), 3), (_SHEAR, 2)]

    @pytest.mark.parametrize("m,j", CASES, ids=["quincunx-1", "quincunx-3", "shear-2"])
    def test_factor_tables_give_the_spatial_bits(self, m, j):
        rows = np.random.default_rng(j).uniform(-1.5, 1.5, size=(500, 2))
        for g in (hat(2), bspline3_2d(0.3, 0.8)):
            cs, grid = _expansion_on_grid(g, m, j)
            for pts in (rows, grid):
                ref = _spatial_taps(g, m, j, cs, pts)
                assert np.array_equal(_general(g, m, j, cs, pts), ref)
                assert np.array_equal(evaluate(g, m, j, cs, pts), ref)

    def test_missing_coefficient_detected(self):
        cs = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
        # M x = (0.3, 0.6): phi(M x - (0, 1)) is nonzero, and (0, 1) is
        # outside the box
        x = np.asarray(quincunx().power(-1), dtype=float) @ [0.3, 0.6]
        with pytest.raises(MissingCoefficientError,
                           match=r"no coefficient for lattice point \[0 1\]"):
            evaluate(hat(2), quincunx(), 1, cs, [x])


class TestPointChecks:
    ONE = Coefficients(Lattice([0], [1]), [1.0])
    TWO = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
    # (generator, dilation, coefficients): the per-axis kernel, the general
    # kernel, and an unbounded generator on each
    CASES = [(hat(1), dyadic(1), ONE), (hat(2), quincunx(), TWO),
             (sinc_squared(1), dyadic(1), ONE), (sinc_squared(2), quincunx(), TWO)]
    IDS = ["per-axis", "general", "unbounded-per-axis", "unbounded-general"]

    @pytest.mark.parametrize("g,m,cs", CASES, ids=IDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, g, m, cs, bad):
        pts = [[0.25] * g.d, [bad] + [0.0] * (g.d - 1)]
        with pytest.raises(ValueError, match="must be finite"):
            evaluate(g, m, 1, cs, pts)
        with pytest.raises(ValueError, match="must be finite"):
            # the coarse tolerance keeps an unbounded generator's box small
            expand(g, m, 1, ExactRule(), gaussian(g.d), Box.centered(2, g.d), pts, 1e-3)

    def test_expand_checks_the_points_before_the_lattice_box(self, monkeypatch):
        # at the default tolerance this box would hold about 4e9 coefficients
        def unreachable(*args):
            raise AssertionError("lattice_support ran before the point check")

        monkeypatch.setattr(expansion, "lattice_support", unreachable)
        with pytest.raises(ValueError, match="must be finite"):
            expand(sinc_squared(2), quincunx(), 1, ExactRule(), gaussian(2),
                   Box.centered(2, 2), [[np.nan, 0.0]])

    @pytest.mark.parametrize("g,m,cs", CASES, ids=IDS)
    def test_points_mapping_past_two_to_the_62_rejected(self, g, m, cs):
        pts = [[1e30] + [0.0] * (g.d - 1)]
        with pytest.raises(ValueError, match="2\\*\\*62"):
            evaluate(g, m, 1, cs, pts)
        # a grid axis maps past the bound on the per-axis kernel too
        grid = Grid([[2.0**61]] + [[0.0]] * (g.d - 1))
        with pytest.raises(ValueError, match="2\\*\\*62"):
            evaluate(g, dyadic(g.d), 1, cs, grid)

    def test_points_within_the_bound_reach_the_taps(self):
        # |M| max|x| is 2**62 here, but each point maps to |y| = 2**61,
        # so the rows are mapped and the taps run
        pts = [[2.0**61, 0.0], [0.0, 2.0**61]]
        with pytest.raises(MissingCoefficientError):
            evaluate(hat(2), quincunx(), 1, self.TWO, pts)


def _whole_box(g, m, j, cs, points):
    """The sum over every lattice point of the box, one row per point."""
    y = np.asarray(points) @ np.asarray(m.power(j), dtype=float).T
    ks = cs.lattice.points()
    return g.spatial(y[:, None] - ks[None]) @ cs.values.ravel()


class TestUnboundedEvaluation:
    # (generator, dilation, level, signal, truncation_tol); the 2-d boxes
    # are kept small by the coarse tolerance
    CASES = [
        (sinc_squared(1), dyadic(1), 2, gaussian(1), 1e-10),
        (sinc_squared(1), dyadic(1), 1, laplace1d(0.3), 1e-10),
        (sinc_squared(1), triadic(1), 2, gaussian(1), 1e-10),
        (sinc_squared(1), triadic(1), 1, laplace1d(0.3), 1e-10),
        (sinc_squared_twoscale(1), dyadic(1), 2, gaussian(1), 1e-10),
        (sinc_squared(2), dyadic(2), 2, gaussian(2), 1e-3),
        (sinc_squared_twoscale(2), dyadic(2), 2, gaussian(2), 1e-3),
        (sinc_squared(2), quincunx(), 1, gaussian(2), 1e-3),
    ]
    GRIDS = {1: Grid([np.linspace(-1.4, 1.3, 9)]),
             2: Grid([np.linspace(-1.4, 1.3, 9), np.linspace(-1.2, 1.45, 7)])}

    @pytest.mark.parametrize("g,m,j,f,tol", CASES, ids=[
        "sinc2-dyadic-gauss", "sinc2-dyadic-laplace", "sinc2-triadic-gauss",
        "sinc2-triadic-laplace", "twoscale-dyadic", "sinc2-2d-dyadic",
        "twoscale-2d-dyadic", "sinc2-2d-quincunx"])
    def test_matches_the_whole_box_sum(self, g, m, j, f, tol):
        lat = lattice_support(g, m, j, Box.centered(1.5, g.d), tol)
        cs = coefficients(ExactRule(), f, m, j, lat)
        grid = self.GRIDS[g.d]
        ref = _whole_box(g, m, j, cs, grid)
        # the span differs from the box only by exact zeros, so the sums
        # differ by summation order: at most 3.4e-16 * max|c_k| here
        bound = 2e-15 * np.max(np.abs(cs.values))
        for pts in (grid, np.asarray(grid)):
            assert np.max(np.abs(evaluate(g, m, j, cs, pts) - ref)) <= bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_span_reaches_the_outermost_nonzero_coefficients(self, d):
        # order-one coefficients on the edges of the span, zeros around it
        vals = np.zeros((11,) * d, dtype=complex)
        vals[(2,) + (3,) * (d - 1)] = 1.0
        vals[(8,) + (5,) * (d - 1)] = -2.0
        vals[(4,) + (9,) * (d - 1)] = 0.5j
        g, m, grid = sinc_squared(d), dyadic(d), self.GRIDS[d]
        cs = Coefficients(Lattice((-5,) * d, (11,) * d), vals)
        ref = _whole_box(g, m, 1, cs, grid)
        for pts in (grid, np.asarray(grid)):
            assert np.max(np.abs(evaluate(g, m, 1, cs, pts) - ref)) <= 2e-15 * 2.0

    @pytest.mark.parametrize("g,m,j", [
        (sinc_squared(1), dyadic(1), 2), (sinc_squared(2), dyadic(2), 2),
        (sinc_squared_twoscale(1), dyadic(1), 2),
        # M^j is not diagonal at odd quincunx levels, so there are only rows
        (sinc_squared(2), quincunx(), 1), (sinc_squared(2), quincunx(), 3)],
        ids=["sinc2-1d", "sinc2-2d", "twoscale-1d", "sinc2-quincunx-1", "sinc2-quincunx-3"])
    def test_points_on_the_lattice(self, g, m, j):
        # every point is some M^-j k, so y - k is 0 for one tap per axis;
        # out where the samples are below 1e-17, the other taps' phi(k - k'),
        # about 1e-33 from np.sinc rather than 0, would show
        lat = lattice_support(g, m, j, Box.centered(1.5, g.d), 1e-10 if g.d == 1 else 1e-3)
        cs = coefficients(ExactRule(), gaussian(g.d), m, j, lat)
        inv = np.asarray(m.power(-j), dtype=float)
        ks = Lattice((-12,) * g.d, (25,) * g.d).points()
        rows = map_rows(ks, inv)
        point_sets = [rows]
        if np.array_equal(inv, np.diag(inv.diagonal())):
            # the same points in the same order, as a grid
            point_sets.append(Grid([s * np.arange(-12, 13) for s in inv.diagonal()]))
            assert np.array_equal(np.asarray(point_sets[1]), rows)
        ref = _whole_box(g, m, j, cs, rows)
        samples = cs.values[tuple((ks - lat.origin).T)]
        for pts in point_sets:
            got = evaluate(g, m, j, cs, pts)
            assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(cs.values))
            if g.interpolatory:
                # Q_j f = f on M^-j Z^d: both kernels give the samples
                assert np.array_equal(got, samples)

    @pytest.mark.parametrize("g,m,j", [
        (sinc_squared(1), dyadic(1), 2), (sinc_squared_twoscale(1), dyadic(1), 2),
        # rows, under a non-diagonal M^j
        (sinc_squared(2), quincunx(), 1), (sinc_squared_twoscale(2), quincunx(), 3)],
        ids=["sinc2", "twoscale", "sinc2-quincunx-1", "twoscale-quincunx-3"])
    @pytest.mark.parametrize("gap", [1e-12, 1e-8, 1e-156, 1e-200])
    def test_points_next_to_the_lattice(self, g, m, j, gap):
        # |y - k| = gap: 1e-8 is summed as a reciprocal square, the others
        # take phi(0), where (y - k)**2 would be subnormal (1e-156) or 0
        lat = lattice_support(g, m, j, Box.centered(1.5, g.d), 1e-10 if g.d == 1 else 1e-2)
        cs = coefficients(ExactRule(), gaussian(g.d), m, j, lat)
        ks = Lattice((-6,) * g.d, (13,) * g.d).points().astype(float)
        signs = [[1], [-1]] if g.d == 1 else [[1, 1], [-1, -1], [1, -1]]
        ys = np.concatenate([ks + gap * np.asarray(s) for s in signs])
        pts = map_rows(ys, np.asarray(m.power(-j), dtype=float))
        got = evaluate(g, m, j, cs, pts)
        ref = _whole_box(g, m, j, cs, pts)
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(cs.values))

    @pytest.mark.parametrize("g", [sinc_squared(1), sinc_squared_twoscale(1),
                                   sinc_squared_twoscale(2)],
                             ids=["sinc2-1d", "twoscale-1d", "twoscale-2d"])
    def test_complex_coefficients_on_a_box_off_the_period(self, g):
        # the box starts at -7 (and -10), not a multiple of the period 4,
        # so no residue class starts at the box's first column
        rng = np.random.default_rng(13)
        shape = (23, 19)[: g.d]
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        cs = Coefficients(Lattice((-7, -10)[: g.d], shape), vals)
        m = dyadic(g.d)
        # random points and lattice points M^-1 k
        grid = Grid([np.concatenate([rng.uniform(-6.0, 6.0, 9), [-1.5, 0.5, 2.0]])] * g.d)
        ref = _whole_box(g, m, 1, cs, grid)
        for pts in (grid, np.asarray(grid)):
            assert np.max(np.abs(evaluate(g, m, 1, cs, pts) - ref)) <= 2e-15 * np.max(np.abs(vals))

    def test_zero_coefficients_give_zero(self, monkeypatch):
        g, m, grid = sinc_squared(2), dyadic(2), self.GRIDS[2]
        cs = Coefficients(Lattice((-5, -5), (11, 11)), np.zeros((11, 11)))
        # the span sum serves the grid and its rows: neither compact kernel runs
        monkeypatch.setattr(expansion, "_rows_kernel", None)
        monkeypatch.setattr(expansion, "_axes_kernel", None)
        for pts in (grid, np.asarray(grid)):
            assert np.array_equal(evaluate(g, m, 1, cs, pts), np.zeros(len(grid)))

    def test_rows_memory_is_bounded(self):
        # 20,000 rows on a 69 x 69 span: summed over axis 0 at once, the
        # rows would hold 69 * 20,000 complex sums (22 MB), and their
        # stacked parts as much again
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(69, 69)) + 1j * rng.normal(size=(69, 69))
        cs = Coefficients(Lattice((-34, -34), (69, 69)), vals)
        rows = rng.uniform(-3.0, 3.0, size=(20_000, 2))
        tracemalloc.start()
        try:
            evaluate(sinc_squared(2), quincunx(), 1, cs, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestDeviation:
    def test_vanishes_on_polynomials_up_to_operator_order(self):
        op = ball_operator(1, 2, 0.3)
        f = polynomial(1, {(0,): 0.5, (1,): -1.0, (2,): 2.0})
        dev = deviation(f, op, dyadic(1), 2, (3,), 0.3)
        assert dev.shape == (1,)
        assert abs(dev[0]) < 1e-12

    def test_vanishes_in_two_dimensions(self):
        op = ball_operator(2, 2, 0.4)
        f = polynomial(2, {(0, 0): 1.0, (1, 1): 3.0, (2, 0): -2.0})
        dev = deviation(f, op, quincunx(), 2, [(1, -2), (0, 3)], 0.4)
        assert dev.shape == (2,)
        assert np.all(np.abs(dev) < 1e-12)

    def test_quartic_excess_by_hand(self):
        # f = x^4, M = 2, j = 1, k = 0: the average of (t/2)^4 over
        # |t| <= h is h^4/80, and the order-2 operator contributes nothing
        h = 0.5
        op = ball_operator(1, 2, h)
        f = polynomial(1, {(4,): 1.0})
        dev = deviation(f, op, dyadic(1), 1, (0,), h)[0]
        assert dev == pytest.approx(h**4 / 80.0, rel=1e-12)
