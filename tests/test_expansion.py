"""Expansion machinery: lattices, coefficient rules, evaluation, and the gap
between ball-averaged and differential coefficients."""
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dilsamp import (
    Box,
    Coefficients,
    DiffOperator,
    DifferentialRule,
    ExactRule,
    FalsifiedRule,
    Grid,
    Lattice,
    MissingCoefficientError,
    StudyPlan,
    ball_operator,
    bspline3_2d,
    bspline4_1d,
    coefficients,
    convergence_study,
    delta_operator,
    diagonal,
    dilation,
    dyadic,
    evaluate,
    gaussian,
    hat,
    laplace1d,
    lattice_support,
    lp_distance,
    make_grid,
    matern1d,
    named_generators,
    operator_norm,
    polynomial,
    quincunx,
    sinc_squared,
    sinc_squared_twoscale,
    study_domain,
    tail_coefficients,
    triadic,
)
from dilsamp import analysis, expansion
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
            starts = range(0, 5, rows)
            slabs = [grid.rows(lo, min(lo + rows, 5)) for lo in starts]
            assert [s.axes[0].size for s in slabs] == [min(rows, 5 - lo) for lo in starts]
            assert np.array_equal(np.concatenate([s.points() for s in slabs]), grid.points())

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
        values = _expand(g, m, 2, ExactRule(), f, domain, x)
        dense = np.zeros(len(x), dtype=complex)
        for k in range(-30, 31):
            dense += complex(f(np.array([[k / 4.0]]))[0]) * g.spatial(4.0 * x - k)
        assert np.max(np.abs(values - dense)) < 1e-14


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_rule_per_axis_is_close_to_the_rows(self, d):
        # under a diagonal M^-j a signal with a factor is sampled on the
        # lattice grid: the rows' bits in 1-d, within 4 (1 + pi |x|^2)
        # ulps of them above (the factor hidden gives the rows)
        f, m = gaussian(d), dyadic(d)
        lattice = Lattice((-9,) * d, (19,) * d)
        grid = coefficients(ExactRule(), f, m, 2, lattice).values.ravel()
        rows = coefficients(ExactRule(), dataclasses.replace(f, factor=None), m, 2,
                            lattice).values.ravel()
        if d == 1:
            assert _bits(grid).tolist() == _bits(rows).tolist()
        x = lattice.points() / 4.0
        ulps = 4 * (1 + np.pi * np.sum(x * x, axis=1))
        assert np.all(np.abs(grid - rows) <= ulps * np.spacing(rows))

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

    @pytest.mark.parametrize("f,m,j,t", [
        (gaussian(2), dyadic(2), 3, 2.0),
        (gaussian(2), diagonal((2, 3)), 2, 2.0),
        (gaussian(2), quincunx(), 2, 2.0),
        (gaussian(3), dyadic(3), 1, 0.75),
    ], ids=["dyadic2", "diag23", "quincunx-even", "dyadic3"])
    def test_a_sub_box_has_the_whole_box_bits(self, f, m, j, t):
        # a study forms its coefficients box by box, and a traced replay
        # forms the whole box: their errors must agree bit for bit
        lattice = lattice_support(hat(f.d), m, j, Box.centered(t, f.d))
        rule, shape = FalsifiedRule(0.5), np.array(lattice.shape)
        whole = coefficients(rule, f, m, j, lattice).values
        one, zero, mid = np.ones_like(shape), np.zeros_like(shape), shape // 2
        boxes = [(zero, one), (shape - 1, shape), (mid, mid + 1),  # corners and one point
                 (zero, shape - 1), (one, shape),  # edges
                 (np.maximum(mid - 3, 0), np.minimum(mid + 4, shape))]  # odd sizes
        rng = np.random.default_rng(0)
        for _ in range(12):
            lo = rng.integers(0, shape)
            boxes.append((lo, lo + rng.integers(1, shape - lo + 1)))
        for lo, hi in boxes:
            got = coefficients(rule, f, m, j, Lattice(np.add(lattice.origin, lo), hi - lo))
            assert _bits(got.values).tobytes() == _bits(whole[tuple(map(slice, lo, hi))]).tobytes()


class TestMajorant:
    """``_majorant`` bounds every ball average that ``coefficients``
    computes, rounding included, on the studies' boxes."""

    KINK3 = float.fromhex("-0x1.ba122bdba56b2p-6")  # perfbench's kink offset at seed 3

    @pytest.mark.parametrize("f,levels", [
        (gaussian(2), range(1, 6)), (laplace1d(1 / 3), range(1, 8)),
        (laplace1d(KINK3), range(1, 8)), (gaussian(3), [1]),
    ], ids=["ball2d", "kink1d", "kink1d-seed3", "dyadic3"])
    def test_bounds_every_computed_coefficient(self, f, levels):
        g, m, rule = hat(f.d), dyadic(f.d), FalsifiedRule(0.5)
        domain = study_domain(StudyPlan(g, m, rule, f))
        for j in levels:
            lattice = lattice_support(g, m, j, domain)
            cs = np.abs(coefficients(rule, f, m, j, lattice).values)
            factors = expansion._majorant(rule, f, m, j, lattice)
            bound = factors[0]
            for v in factors[1:]:
                bound = np.multiply.outer(bound, v)
            assert np.all(cs <= bound), (j, np.max(cs / bound))
            # and it is close: within a factor of 2 at the largest coefficient
            assert bound.max() < 2 * cs.max()


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
        values = _expand(hat(1), m, 3, ExactRule(), f, domain, x)
        assert np.max(np.abs(values - f.eval(x))) < 1e-10

    def test_interpolatory_generator_matches_samples_on_the_lattice(self):
        g = sinc_squared(1)
        assert g.interpolatory
        f = gaussian(1)
        m = dyadic(1)
        j = 2
        pts = np.array([[-0.5], [0.0], [0.75]])  # lattice points over 4
        values = _expand(g, m, j, ExactRule(), f, Box.centered(1.0, 1), pts)
        assert np.max(np.abs(values - f(pts))) < 1e-12

    def test_coefficients_on_the_support_and_their_values(self):
        f, g, m, domain = gaussian(1), hat(1), dyadic(1), Box.centered(1.0, 1)
        cs = coefficients(ExactRule(), f, m, 1, lattice_support(g, m, 1, domain))
        assert cs.lattice == Lattice([-3], [7])
        assert len(cs) == len(cs.lattice) == cs.values.size
        assert cs.values.shape == cs.lattice.shape
        assert np.array_equal(np.asarray(cs), cs.values)
        values = evaluate(g, m, 1, cs, np.array([[0.3]]))
        assert values.shape == (1,)


def _expand(g, m, j, rule, f, domain, points):
    """``Q_j f`` at the points, from coefficients on the lattice support."""
    cs = coefficients(rule, f, m, j, lattice_support(g, m, j, domain))
    return evaluate(g, m, j, cs, points)


def _general(g, m, j, cs, points):
    """The sum at each point on its own, independent of ``evaluate``'s
    gathers: a compact generator's taps from ``g.spatial``
    (:func:`_spatial_taps`); an unbounded generator contracts its span
    (trimmed) as rows, as in ``evaluate``."""
    if g.support_radius is not None:
        return _spatial_taps(g, m, j, cs, points)
    y = map_rows(np.asarray(points, dtype=float), np.asarray(m.power(j), dtype=float))
    return expansion._span_terms(g, expansion._span(g, cs), y.T)


def _expansion_on_grid(g, m, j, halfwidth=1.5):
    domain = Box.centered(halfwidth, g.d)
    # the coarse tolerance keeps an unbounded generator's 2-d box small
    lattice = lattice_support(g, m, j, domain, 1e-10 if g.d == 1 else 1e-2)
    cs = coefficients(ExactRule(), gaussian(g.d), m, j, lattice)
    return cs, make_grid(domain, operator_norm(m.power(-j)) / 8)


def _lip_sup(factor, reach):
    """A 1-d factor's Lipschitz constant and sup on ``[-reach, reach]``,
    sampled at a step of ``1e-5``."""
    x = np.linspace(-reach, reach, int(2e5 * reach) + 1)
    v = np.asarray(factor(x))
    return np.max(np.abs(np.diff(v))) / (x[1] - x[0]), np.max(np.abs(v))


def _phase_bound(g, m, j, cs, grid):
    """Per point, ``32 * 2**-52 * (1 + |M^j| max|x|) * Lip(phi) * sum|c_k|``:
    ``Lip`` in the max norm of the mapped coordinates ``y``, bounded by the
    sum over terms and axes of the factor's ``Lip`` times the other
    factors' sups, with 1% to spare for the sampling, and the sum over the
    coefficients the point reaches (the span, for an unbounded
    generator)."""
    reach = g.support_radius or 4.0
    lip = 0.0
    for factors in g.terms:
        ls = [_lip_sup(f, reach) for f in factors]
        lip += sum(l * math.prod(s for b, (_, s) in enumerate(ls) if b != a)
                   for a, (l, _) in enumerate(ls))
    # |M^j| max|x| bounds every mapped coordinate, for any M^j
    mj = np.asarray(m.power(j), dtype=float)
    top = (np.abs(mj) @ [np.abs(x).max() for x in grid.axes]).max()
    if g.support_radius is None:
        reached = np.abs(expansion._span(g, cs).values).sum()
    else:
        box = lambda x: (np.abs(x) <= g.support_radius).astype(float)
        within = dataclasses.replace(g, terms=((box,) * g.d,))
        reached = _general(within, m, j, Coefficients(cs.lattice, np.abs(cs.values)), grid)
    return 32 * 2.0**-52 * (1 + top) * 1.01 * lip * reached


class TestPerAxisEvaluation:
    # (generator, dilation, level): M^j is not diagonal, so axis 0 of the
    # grid is gathered per point along its line (the lines' indices are
    # i1 + i2 and i1 - i2 at odd quincunx levels)
    SKEW = [
        (hat(2), quincunx(), 3),
        (bspline3_2d(0.5, 0.5), quincunx(), 3),
        (hat(2), dilation([[2, 1], [0, 2]]), 2),
        # M^2 = [[0, -2], [2, 0]] swaps the axes and reverses one, and M^3 =
        # [[-2, -2], [2, -2]]
        (hat(2), dilation([[1, -1], [1, 1]]), 2),
        (hat(2), dilation([[1, -1], [1, 1]]), 3),
    ]
    SKEW_IDS = ["hat2-quincunx-odd", "bspline3-quincunx-odd", "hat2-shear",
                "hat2-rotation-2", "hat2-rotation-3"]
    # (generator, dilation, level): M^j is diagonal
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
        # unbounded: the taps span the trimmed nonzero coefficients
        (sinc_squared(1), dyadic(1), 3),
        # two terms each, compact and unbounded
        (bspline3_2d(0.5, 0.5), dyadic(2), 2),
        (sinc_squared_twoscale(2), dyadic(2), 1),
    ]

    @pytest.mark.parametrize("g,m,j", CASES + SKEW, ids=[
        "hat1-dyadic", "hat1-minus2", "hat1-triadic", "bspline4-ball", "bspline4-odd",
        "hat2-dyadic", "hat2-diag23", "hat3-dyadic", "hat2-quincunx-even",
        "sinc2-dyadic", "bspline3-dyadic", "twoscale2-dyadic"] + SKEW_IDS)
    def test_matches_the_general_path(self, g, m, j, monkeypatch):
        cs, grid = _expansion_on_grid(g, m, j)
        ref, bound = _general(g, m, j, cs, grid), _phase_bound(g, m, j, cs, grid)
        rows = evaluate(g, m, j, cs, np.asarray(grid))
        calls = []
        monkeypatch.setattr(expansion, "_rows_gather",
                            lambda *a: calls.append(a))
        got = evaluate(g, m, j, cs, grid)
        assert not calls
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(cs.values))
        # a grid point's value follows its phase, or its line, within the
        # stated bound of the general path's (measured: at most 6.7e-16, on
        # twoscale2-dyadic, and at most 0.017 of the bound, on hat1-triadic);
        # rows take the general path in d >= 2, and in 1-d they form the same
        # one-axis grid
        assert np.all(np.abs(got - ref) <= bound)
        assert np.array_equal(rows, got if g.d == 1 else ref)

    def test_a_decreasing_axis_takes_its_period(self, monkeypatch):
        # M^3 = -8: the mapped axis is the increasing one read back to front,
        # so its table holds one period of 8 phases, not one per point
        g, m, j = hat(1), dilation([[-2]]), 3
        cs, grid = _expansion_on_grid(g, m, j)
        periods, tap_phases = [], expansion._tap_phases
        monkeypatch.setattr(expansion, "_tap_phases",
                            lambda *a: periods.append(a[3]) or tap_phases(*a))
        got = evaluate(g, m, j, cs, grid)
        assert periods == [8]
        assert np.all(np.abs(got - _general(g, m, j, cs, grid)) <= _phase_bound(g, m, j, cs, grid))

    def test_a_grid_off_one_spacing_takes_the_general_path(self, monkeypatch):
        # under a non-diagonal M^j a grid's mapped coordinates lie on lines
        # only when its axes share one spacing; these do not
        g, m, j = hat(2), quincunx(), 3
        cs, _ = _expansion_on_grid(g, m, j)
        grid = Grid([np.linspace(-1.4, 1.4, 41), np.geomspace(0.01, 1.4, 37)])
        monkeypatch.setattr(expansion, "_operator", None)
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


class TestAxisOperator:
    # the benchmark's four studies, and the exact shear, whose levels 5 and 6
    # take line mode on grids of 0.57 M and 1.7 M points
    PLANS = {
        "ball2d": StudyPlan(hat(2), dyadic(2), FalsifiedRule(0.5), gaussian(2),
                            operator=ball_operator(2, 2, 0.5), j_max=5),
        "kink1d": StudyPlan(hat(1), dyadic(1), FalsifiedRule(0.5), laplace1d(1 / 3),
                            operator=ball_operator(1, 1, 0.5), mode="falsified1d", j_max=7),
        "sinc1d": StudyPlan(sinc_squared(1), dyadic(1), ExactRule(), gaussian(1), j_max=5),
        "quincunx": StudyPlan(hat(2), quincunx(), DifferentialRule(ball_operator(2, 2, 0.5)),
                              gaussian(2), j_max=8),
        "shear": StudyPlan(hat(2), dilation([[2, 1], [0, 2]]), ExactRule(), gaussian(2), j_max=6),
    }

    @pytest.mark.parametrize("name", PLANS)
    def test_study_levels_take_the_operator(self, name, monkeypatch):
        # every level's grid takes the axis operator, quincunx's odd levels,
        # where M^j is not diagonal, included
        plan = self.PLANS[name]
        domain = study_domain(plan)
        operator, calls = expansion._operator, []
        monkeypatch.setattr(expansion, "_operator", lambda *a: calls.append(a) or operator(*a))
        monkeypatch.setattr(expansion, "_rows_gather", None)
        for j in range(plan.j_min, plan.j_max + 1):
            calls.clear()
            for _ in analysis.level_slabs(plan, domain, j)[2]:
                pass
            assert len(calls) == 1

    @pytest.mark.parametrize("g,m,j", TestPerAxisEvaluation.CASES[:-1] + [
        (hat(1), dyadic(1), 6), (sinc_squared_twoscale(2), dyadic(2), 1)]
        + TestPerAxisEvaluation.SKEW,
        ids=["hat1-dyadic", "hat1-minus2", "hat1-triadic", "bspline4-ball", "bspline4-odd",
             "hat2-dyadic", "hat2-diag23", "hat3-dyadic", "hat2-quincunx-even",
             "sinc2-dyadic", "bspline3-dyadic", "hat1-level6", "twoscale2-dyadic"]
        + TestPerAxisEvaluation.SKEW_IDS)
    def test_slabs_do_not_change_the_values(self, g, m, j, monkeypatch):
        # slabs of one row, of fewer rows than a period, of a period and a
        # part, of several periods and a shorter last slab, and the default
        cs, grid = _expansion_on_grid(g, m, j)
        ref = evaluate(g, m, j, cs, grid)
        for size in (1, 3 * len(grid) // grid.axes[0].size, 97, 997):
            monkeypatch.setattr(expansion, "_ROWS", size)
            assert np.array_equal(evaluate(g, m, j, cs, grid), ref)

    @pytest.mark.parametrize("m,j,axis,low,k", [
        (dyadic(2), 2, 0, True, -6), (dyadic(2), 2, 1, False, 6),
        (quincunx(), 3, 0, False, 6), (quincunx(), 3, 1, True, -6)],
        ids=["dyadic-0", "dyadic-1", "quincunx-odd-0", "quincunx-odd-1"])
    def test_a_truncated_box_names_the_missing_coordinate(self, m, j, axis, low, k):
        # the study grid of halfwidth 1.5 maps into [-5.92, 5.97] on both
        # axes at dyadic level 2, and into [-5.88, 5.84] at quincunx level
        # 3: the box [-7, 7] less one row at the far end is still enough,
        # with the values' bits, and less two rows is not
        g = hat(2)
        cs, grid = _expansion_on_grid(g, m, j)
        ref = evaluate(g, m, j, cs, grid)
        for cut in (1, 2):
            keep = [slice(None)] * 2
            keep[axis] = slice(cut, None) if low else slice(None, -cut)
            origin = np.add(cs.lattice.origin, [cut * low * (a == axis) for a in range(2)])
            box = Coefficients(Lattice(origin, cs.values[tuple(keep)].shape),
                               cs.values[tuple(keep)])
            if cut == 1:
                assert np.array_equal(evaluate(g, m, j, box, grid), ref)
                continue
            missing = rf"^'no coefficient for lattice coordinate \[{k}\] on axis {axis}'$"
            with pytest.raises(MissingCoefficientError, match=missing):
                evaluate(g, m, j, box, grid)

    @pytest.mark.parametrize("b", [0, 1])
    def test_a_gathered_index_off_its_line_raises(self, b, monkeypatch):
        # a skew grid reads its lines through strided views: a line index
        # past the line's values (here n0 moved by one) raises before any
        # read, where a view would read past its array
        g, m, j = hat(2), quincunx(), 3
        cs, grid = _expansion_on_grid(g, m, j)
        lines = expansion._lines
        monkeypatch.setattr(expansion, "_lines", lambda *args: [
            (v, r, n + (a == b)) for a, (v, r, n) in enumerate(lines(*args))])
        with pytest.raises(IndexError, match="gathered index"):
            evaluate(g, m, j, cs, grid)

    @pytest.mark.parametrize("g,n,kind", [
        (hat(2), 2_600, float), (hat(2), 1_300, float), (hat(2), 1_800, float),
        (hat(2), 1_800, complex), (bspline3_2d(0.5, 0.5), 1_800, float)],
        ids=["long", "short", "mid", "mid-complex", "mid-two-terms"])
    def test_a_long_skew_strip_takes_line_mode(self, g, n, kind, monkeypatch):
        # quincunx level 11 maps a 2 x n strip of one spacing onto two lines
        # of n + 1 values, the first 96 lattice units long for n = 2,600: a
        # per-level sum over the lattice rows and the other line's values
        # would hold 102 x 2,601 values per term and real part, where line
        # mode holds one slab's workspace; each strip, complex or of two
        # terms, takes it, within the stated bound of the spatial taps
        m, j = quincunx(), 11
        s = 3.0 / 2599
        grid = Grid([s * np.arange(2), -1.5 + s * np.arange(n)])
        lattice = lattice_support(g, m, j, Box((-0.01, -1.51), (0.01, 1.51)))
        cs = coefficients(ExactRule(), gaussian(2), m, j, lattice)
        cs = Coefficients(cs.lattice, cs.values.astype(kind))
        calls, operator = [], expansion._operator
        monkeypatch.setattr(expansion, "_operator", lambda *a: calls.append(a[-1]) or operator(*a))
        monkeypatch.setattr(expansion, "_rows_gather", None)
        got, ref = evaluate(g, m, j, cs, grid), _general(g, m, j, cs, grid)
        assert len(calls) == 1 and calls[0] is grid
        assert np.all(np.abs(got - ref) <= _phase_bound(g, m, j, cs, grid))

    @pytest.mark.parametrize("g,m,j", TestPerAxisEvaluation.SKEW,
                             ids=TestPerAxisEvaluation.SKEW_IDS)
    def test_rows_mode_serves_only_points_off_lines(self, g, m, j, monkeypatch):
        # a skew grid of a compact generator takes line mode (the operator
        # given the grid); its points as rows, and the grid where _lines
        # rejects it, take rows mode
        cs, grid = _expansion_on_grid(g, m, j)
        modes, operator, rows = [], expansion._operator, expansion._rows_gather
        monkeypatch.setattr(expansion, "_operator", lambda *a: modes.append(
            "lines" if a[-1] is grid else "axes") or operator(*a))
        monkeypatch.setattr(expansion, "_rows_gather", lambda *a: modes.append("rows") or rows(*a))
        for pts, mode in ((grid, "lines"), (np.asarray(grid), "rows")):
            modes.clear()
            evaluate(g, m, j, cs, pts)
            assert modes == [mode]
        monkeypatch.setattr(expansion, "_lines", lambda *a: None)
        modes.clear()
        evaluate(g, m, j, cs, grid)
        assert modes == ["rows"]

    # the compact cases, and a 2-d grid whose last axis the operator reverses
    RANGES = [c for c in TestPerAxisEvaluation.CASES + TestPerAxisEvaluation.SKEW
              if c[0].support_radius] + [(hat(2), dilation([[2, 0], [0, -2]]), 3)]

    @pytest.mark.parametrize("g,m,j", RANGES, ids=[
        "hat1-dyadic", "hat1-minus2", "hat1-triadic", "bspline4-ball", "bspline4-odd",
        "hat2-dyadic", "hat2-diag23", "hat3-dyadic", "hat2-quincunx-even", "bspline3-dyadic"]
        + TestPerAxisEvaluation.SKEW_IDS + ["hat2-flipped-last"])
    def test_row_and_column_ranges_keep_the_grid_bits(self, g, m, j):
        # any rows, and any points of the last axis where given, after any
        # earlier call, against the whole grid's values
        cs, grid = _expansion_on_grid(g, m, j)
        shape = tuple(x.size for x in grid.axes)
        ref = evaluate(g, m, j, cs, grid).reshape(shape)
        level = expansion._level(g, m, j, cs, grid)
        rng = np.random.default_rng(7)
        # random ranges, then the same rows at other points and at all of them
        calls = [sorted(rng.choice(shape[0] + 1, 2, replace=False)) + [None if g.d == 1 or (
            rng.random() < 0.25) else tuple(sorted(rng.choice(shape[-1] + 1, 2, replace=False)))]
            for _ in range(16)]
        if g.d > 1:
            calls += [[1, 3, (0, 2)], [1, 3, (shape[-1] - 2, shape[-1])], [1, 3, None]]
        for lo, hi, cols in calls:
            got = level.run(lo, hi, cols).reshape((hi - lo,) + shape[1:])
            at = (Ellipsis, slice(*cols)) if cols else Ellipsis
            assert np.array_equal(got[at], ref[lo:hi][at])

    @pytest.mark.parametrize("name,j,peak", [
        ("kink1d", 7, 4.6e6), ("ball2d", 5, 0.8e6), ("quincunx", 7, 1.85e6),
        ("shear", 6, 2.0e6)])
    def test_workspace_memory(self, name, j, peak):
        # below the peaks measured with the per-tap kernel, which kept whole
        # axes of taps (4.70 MB on kink1d at level 7, 0.81 MB on ball2d at
        # level 5); observed here: 1.4 and 0.4 MB.  The skew levels take line
        # mode, one slab's workspace: observed 1.59 MB at quincunx level 7
        # and 1.72 MB at shear level 6 (4.98 and 4.96 MB in rows mode), each
        # bound 0.25 MB above, less than one slab of 2**15 float64 values
        plan = self.PLANS[name]
        domain = study_domain(plan)
        g, m = plan.generator, plan.dilation
        grid = analysis.level_grid(plan, domain, j)[0]
        cs = coefficients(plan.rule, plan.signal, m, j, lattice_support(g, m, j, domain))
        tracemalloc.start()
        try:
            for _ in expansion.evaluate_slabs(g, m, j, cs, grid):
                pass
            got = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got < peak


_SHEAR = dilation([[3, 1], [0, 3]])


def _spatial_taps(g, m, j, cs, points):
    """A compact generator's sum over its ``width**d`` taps per point, each
    tap's value from ``g.spatial``, taps off the box counted as zero; real
    when the coefficients and ``phi`` are."""
    y = map_rows(np.asarray(points, dtype=float), np.asarray(m.power(j), dtype=float))
    k0, width = np.ceil(y - g.support_radius - 1e-9).astype(np.int64), expansion._width(g)
    kind = np.result_type(cs.values, g.spatial(np.zeros((1, g.d))))
    origin, acc = np.asarray(cs.lattice.origin), np.zeros(len(y), dtype=kind)
    for off in np.ndindex(*(width,) * g.d):
        k = k0 + off
        inside = np.all((k >= origin) & (k < origin + cs.values.shape), axis=1)
        c = cs.values[tuple(np.where(inside[:, None], k - origin, 0).T)]
        acc += np.where(inside, c, 0.0) * g.spatial(y - k)
    return acc


class TestFactoredTaps:
    # (dilation, level): M^j is not diagonal, so rows take rows mode, and
    # a grid the axis operator on its lines
    CASES = [(quincunx(), 1), (quincunx(), 3), (_SHEAR, 2)]

    @pytest.mark.parametrize("m,j", CASES, ids=["quincunx-1", "quincunx-3", "shear-2"])
    def test_factor_tables_give_the_spatial_bits(self, m, j):
        rows = np.random.default_rng(j).uniform(-1.5, 1.5, size=(500, 2))
        for g in (hat(2), bspline3_2d(0.3, 0.8)):
            cs, grid = _expansion_on_grid(g, m, j)
            for pts in (rows, np.asarray(grid)):
                assert np.array_equal(evaluate(g, m, j, cs, pts), _spatial_taps(g, m, j, cs, pts))
            got, ref = evaluate(g, m, j, cs, grid), _general(g, m, j, cs, grid)
            assert np.all(np.abs(got - ref) <= _phase_bound(g, m, j, cs, grid))

    def test_missing_coefficient_detected(self):
        cs = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
        # M x = (0.3, 0.6): the hat's factors at lattice coordinate 1 are
        # nonzero on both axes (0.3 and 0.6), and 1 is outside the box
        x = np.asarray(quincunx().power(-1), dtype=float) @ [0.3, 0.6]
        with pytest.raises(MissingCoefficientError,
                           match=r"no coefficient for lattice coordinate \[1\] on axis 0"):
            evaluate(hat(2), quincunx(), 1, cs, [x])

    def test_a_vanishing_factor_does_not_excuse_a_missing_coordinate(self):
        # the box is checked per axis, on rows as on a grid's lines: a
        # nonzero factor at a coordinate off the box raises even where the
        # other axis's factor vanishes at every tap, so that phi(y - k) = 0
        g = hat(2)
        g = dataclasses.replace(g, terms=((g.terms[0][0], lambda x: 0.0 * x),))
        cs = Coefficients(Lattice([0, 0], [1, 1]), [[1.0]])
        missing = r"^'no coefficient for lattice coordinate \[1\] on axis 0'$"
        for pts in ([[0.3, 0.0]], Grid([np.array([0.3]), np.array([0.0])])):
            with pytest.raises(MissingCoefficientError, match=missing):
                evaluate(g, dyadic(2), 0, cs, pts)


def _trimmed(cs, low):
    """``cs`` without the first (``low``) or the last lattice row of each
    axis."""
    cut = slice(1, None) if low else slice(None, -1)
    return Coefficients(Lattice(np.add(cs.lattice.origin, low), np.subtract(cs.lattice.shape, 1)),
                        cs.values[cut, cut])


class TestEdgeTaps:
    """Points off lines gather per point (rows mode): of rows, and of a grid
    whose mapped coordinates do not lie on lines (here ``_lines`` is
    patched to say so); a skew grid on its lines does too (line mode).  A
    tap off the box reads zeros from a padded copy, and its table entry
    must be zero."""

    def test_padded_and_trimmed_boxes_give_the_spatial_bits(self, monkeypatch):
        g, m, j = hat(2), quincunx(), 3
        # on the box of halfwidth 1.5, the first row of each axis is tapped
        # only by the grid's corner points, where phi is 0, so the trimmed
        # box misses no coefficient; the first slab holds those corners
        cs, _ = _expansion_on_grid(g, m, j)
        grid = Grid([np.linspace(-1.5, 1.5, 61)] * 2)
        lat = cs.lattice
        padded = coefficients(ExactRule(), gaussian(2), m, j,
                              Lattice(np.subtract(lat.origin, 2), np.add(lat.shape, 4)))
        monkeypatch.setattr(expansion, "_lines", lambda *a: None)
        monkeypatch.setattr(expansion, "_ROWS", 97)
        pads, pad = [], np.pad
        monkeypatch.setattr(np, "pad", lambda *a, **k: pads.append(a[1]) or pad(*a, **k))
        # no tap leaves the padded box; the trimmed one is copied once per
        # level with width (3) zeros on every side
        for box, padding in ((padded, []), (_trimmed(cs, True), [3])):
            for pts in (grid, np.asarray(grid)):
                pads.clear()
                ref = _spatial_taps(g, m, j, box, pts)
                assert np.array_equal(evaluate(g, m, j, box, pts), ref)
                assert pads == padding

    def test_line_mode_gathers_a_trimmed_box_zero_padded(self, monkeypatch):
        # on its lines the grid maps to lines starting at -6, where the first
        # tap's entry is 0: the box without its first rows misses no
        # coefficient, and is gathered from a copy with a row of zeros before
        # it on each axis, with the bits of a box holding every tap
        g, m, j = hat(2), quincunx(), 3
        cs, _ = _expansion_on_grid(g, m, j)
        grid = Grid([np.linspace(-1.5, 1.5, 61)] * 2)
        lat = cs.lattice
        padded = coefficients(ExactRule(), gaussian(2), m, j,
                              Lattice(np.subtract(lat.origin, 2), np.add(lat.shape, 4)))
        pads, pad = [], np.pad
        monkeypatch.setattr(np, "pad", lambda *a, **k: pads.append(a[1]) or pad(*a, **k))
        ref = evaluate(g, m, j, padded, grid)
        assert not pads
        assert np.array_equal(evaluate(g, m, j, _trimmed(cs, True), grid), ref)
        assert pads == [[(1, 0), (1, 0)]]

    def test_a_trimmed_box_names_the_missing_point(self, monkeypatch):
        g, m, j = hat(2), quincunx(), 3
        # at halfwidth 1.4 the box's last rows are tapped with phi != 0
        cs, grid = _expansion_on_grid(g, m, j, 1.4)
        monkeypatch.setattr(expansion, "_ROWS", 97)
        # the grid on its lines: the tables, checked before its first slab,
        # name the coordinate and its axis
        missing = r"^'no coefficient for lattice coordinate \[6\] on axis 0'$"
        with pytest.raises(MissingCoefficientError, match=missing):
            next(expansion.evaluate_slabs(g, m, j, _trimmed(cs, False), grid))
        # off lines, each slab's tables are checked before its values
        monkeypatch.setattr(expansion, "_lines", lambda *a: None)
        for pts in (grid, np.asarray(grid)):
            slabs = expansion.evaluate_slabs(g, m, j, _trimmed(cs, False), pts)
            next(slabs)  # the missing coordinate is tapped in a later slab
            with pytest.raises(MissingCoefficientError, match=missing):
                list(slabs)
            with pytest.raises(MissingCoefficientError, match=missing):
                evaluate(g, m, j, _trimmed(cs, False), pts)

    def test_workspace_memory(self, monkeypatch):
        # quincunx level 7 on the benchmark's grid: 760 x 760 points in 18
        # slabs, and one workspace for the level (observed: 5.2 MB for the
        # grid, 5.3 MB for its rows; 8.1 MB with per-axis offset and mask
        # tables and each slab's points formed as rows)
        g, m, j = hat(2), quincunx(), 7
        domain = Box.centered(4.2, 2)
        grid = make_grid(domain, operator_norm(m.power(-j)) / 8)
        cs = coefficients(ExactRule(), gaussian(2), m, j, lattice_support(g, m, j, domain))
        assert len(grid) == 577_600
        monkeypatch.setattr(expansion, "_lines", lambda *a: None)
        for pts in (grid, np.asarray(grid)):
            tracemalloc.start()
            try:
                for _ in expansion.evaluate_slabs(g, m, j, cs, pts):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6.5e6


class TestDeadTaps:
    """A last tap whose arguments all lie off the support, at or below
    ``-r``, is not formed: the factor never sees them."""

    @staticmethod
    def _spied(calls):
        factor = hat(1).terms[0][0]

        def spy(x):
            calls.append(np.array(x, copy=True))
            return factor(x)

        return dataclasses.replace(hat(2), terms=((spy, spy),))

    @pytest.mark.parametrize("m,j,grid", [
        (quincunx(), 3, False), (quincunx(), 3, True), (dyadic(2), 2, False), (dyadic(2), 2, True),
    ], ids=["quincunx-rows", "quincunx-grid", "dyadic-rows", "dyadic-grid-per-axis"])
    def test_dead_rows_are_not_evaluated(self, m, j, grid):
        cs, pts = _expansion_on_grid(hat(2), m, j)
        if not grid:
            pts = np.random.default_rng(j).uniform(-1.5, 1.5, size=(500, 2))
        calls = []
        got = evaluate(self._spied(calls), m, j, cs, pts)
        # the last tap's arguments lie in (-2 + 1e-9, -1 + 1e-9], and no
        # point here is within 1e-9 of -1
        assert calls and min(x.min() for x in calls) > -1.0
        assert np.array_equal(got, evaluate(hat(2), m, j, cs, pts))

    @pytest.mark.parametrize("grid", [False, True])
    def test_a_point_within_the_margin_keeps_the_row(self, grid):
        # y = (1 + 5e-10, 0.3): the last tap on axis 0 is k = 2, where the
        # argument is -1 + 5e-10 and phi is 5e-10
        cs = coefficients(ExactRule(), gaussian(2), dyadic(2), 0, Lattice([-3, -3], [7, 7]))
        pts = [[1.0 + 5e-10, 0.3], [0.2, -0.45]]
        pts = Grid(np.transpose(pts)) if grid else np.asarray(pts)
        calls = []
        got = evaluate(self._spied(calls), dyadic(2), 0, cs, pts)
        assert any(np.any((x > -1.0) & (x <= -1.0 + 1e-9)) for x in calls)
        ref = _spatial_taps(hat(2), dyadic(2), 0, cs, pts).real
        # the per-axis kernel sums in another order than the taps
        assert np.max(np.abs(got - ref)) <= (1e-14 if grid else 0.0) * np.max(cs.values)


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

    def test_points_are_checked_before_the_span_and_the_kernels(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the span or a kernel ran before the point check")

        for name in ("_span", "_operator", "_rows_gather"):
            monkeypatch.setattr(expansion, name, unreachable)
        for g, m, cs in self.CASES:
            with pytest.raises(ValueError, match="must be finite"):
                evaluate(g, m, 1, cs, [[np.nan] + [0.0] * (g.d - 1)])

    @pytest.mark.parametrize("g,m,cs", CASES, ids=IDS)
    def test_points_mapping_past_two_to_the_53_rejected(self, g, m, cs):
        pts = [[1e30] + [0.0] * (g.d - 1)]
        with pytest.raises(ValueError, match="2\\*\\*53"):
            evaluate(g, m, 1, cs, pts)
        # a grid axis maps past the bound on the per-axis kernel too
        grid = Grid([[2.0**52]] + [[0.0]] * (g.d - 1))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            evaluate(g, dyadic(g.d), 1, cs, grid)

    def test_points_within_the_bound_reach_the_taps(self):
        # |M| max|x| is 2**53 here, but each point maps to |y| = 2**52,
        # so the rows are mapped and the taps run
        pts = [[2.0**52, 0.0], [0.0, 2.0**52]]
        with pytest.raises(MissingCoefficientError):
            evaluate(hat(2), quincunx(), 1, self.TWO, pts)

    def test_coordinates_that_round_together_rejected(self):
        # M x = (2**54, 0.5): past 2**53 the taps 2**54 - 1, 2**54 and
        # 2**54 + 1 round to one float, and a box of ones summed 3.0 there
        # where the partition of unity gives 1
        cs = Coefficients(Lattice([2**54 - 4, -4], [9, 9]), np.ones((9, 9)))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            evaluate(hat(2), quincunx(), 1, cs, [[2.0**53 + 0.25, 2.0**53 - 0.25]])

    def test_a_compact_generator_keeps_its_taps_below_two_to_the_53(self):
        # bspline4_1d taps y - 2 .. y + 2; at y = 2**53 - 1 the last tap,
        # 2**53 + 1, rounds to 2**53, and a box of ones summed 7/6
        g, m = bspline4_1d(), dyadic(1)
        cs = Coefficients(Lattice([2**53 - 12], [16]), np.ones(16))
        with pytest.raises(ValueError, match="2\\*\\*53 - 6"):
            evaluate(g, m, 0, cs, [2.0**53 - 1])
        assert evaluate(g, m, 0, cs, [2.0**53 - 7])[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g,m,cs", CASES, ids=IDS)
    def test_zero_points_give_an_empty_array(self, g, m, cs):
        got = evaluate(g, m, 1, cs, np.zeros((0, g.d)))
        assert got.shape == (0,) and got.dtype == np.float64
        assert list(expansion.evaluate_slabs(g, m, 1, cs, np.zeros((0, g.d)))) == []


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
        # the span leaves out zeros and tails of summed |c_k| at most
        # 2**-53 * max|c_k| / sup|phi|, so the sums differ by that and by
        # summation order: at most 3.4e-16 * max|c_k| here
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

    @pytest.mark.parametrize("g,sup", [
        (sinc_squared(1), 1.0), (sinc_squared(2), 1.0), (sinc_squared_twoscale(1), 1.25)],
        ids=["sinc2-1d", "sinc2-2d", "twoscale-1d"])
    def test_tails_within_the_budget_are_trimmed(self, g, sup):
        # per end, the budget is 2**-53 * max|c_k| / sup|phi| / (2 d); the
        # low end's marginal sits on it, the high end's one ulp over it
        d = g.d
        budget = 2.0**-53 / sup / (2 * d)
        vals = np.zeros((21,) + (5,) * (d - 1))
        vals[(10,) + (2,) * (d - 1)] = 1.0
        # in 2-d the marginal of the first row is summed from two entries
        vals[(0,) + (1,) * (d - 1)] = budget / d
        vals[(0,) + (3,) * (d - 1)] += budget - budget / d
        vals[(20,) + (2,) * (d - 1)] = np.nextafter(budget, 1.0)
        cs = Coefficients(Lattice((-10,) + (-2,) * (d - 1), vals.shape), vals)
        span = expansion._span(g, cs).lattice
        assert span.origin[0] == 0 and span.shape[0] == 11
        if d == 2:
            # on axis 1, columns -1 and 1 hold budget / 2 each: both trimmed
            assert span.origin[1] == 0 and span.shape[1] == 1

    @pytest.mark.parametrize("g,m,j,tol", [
        (sinc_squared(1), dyadic(1), 3, 1e-10), (sinc_squared_twoscale(1), dyadic(1), 2, 1e-10),
        (sinc_squared(2), dyadic(2), 2, 1e-3), (sinc_squared(2), quincunx(), 1, 1e-3)],
        ids=["sinc2-1d", "twoscale-1d", "sinc2-2d", "sinc2-quincunx"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_omitted_sum_is_within_the_bound(self, g, m, j, tol, kind):
        # in exact arithmetic (fsum), sum over the nonzero coefficients
        # outside the span of |c_k phi(y - k)| <= 2**-53 max|c_k| sup|phi|
        lat = lattice_support(g, m, j, Box.centered(1.5, g.d), tol)
        vals = coefficients(ExactRule(), gaussian(g.d), m, j, lat).values
        if kind == "complex":
            vals = vals * np.exp(0.7j * np.arange(vals.size)).reshape(vals.shape)
        cs = Coefficients(lat, vals)
        span = expansion._span(g, cs).lattice
        ks = lat.points()
        inside = np.all((ks >= span.origin) & (ks < np.add(span.origin, span.shape)), axis=1)
        omitted = ~inside & (vals.ravel() != 0)
        # the trim is not vacuous: it leaves out nonzero coefficients
        assert omitted.any()
        sup = sum(math.prod(sum(abs(w) for w, _ in f.pairs) for f in t) for t in g.terms)
        bound = 2.0**-53 * np.max(np.abs(vals)) * sup
        rng = np.random.default_rng(5)
        half = np.max(np.abs(ks[inside]), axis=0) + 3
        for y in rng.uniform(-half, half, size=(25, g.d)):
            terms = np.abs(vals.ravel()[omitted]) * np.abs(g.spatial(y - ks[omitted]))
            assert math.fsum(terms) <= bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_nan_at_the_far_edge_reaches_every_point(self, d):
        g, m, grid = sinc_squared(d), dyadic(d), self.GRIDS[d]
        lat = lattice_support(g, m, 2, Box.centered(1.5, d), 1e-10 if d == 1 else 1e-3)
        vals = coefficients(ExactRule(), gaussian(d), m, 2, lat).values.copy()
        nz = np.argwhere(vals != 0)
        vals[tuple(nz[np.argmax(nz[:, 0])])] = np.nan
        cs = Coefficients(lat, vals)
        for pts in (grid, np.asarray(grid)):
            assert np.all(np.isnan(evaluate(g, m, 2, cs, pts)))

    @pytest.mark.parametrize("g,m,j", [
        (sinc_squared(1), dyadic(1), 2), (sinc_squared(2), dyadic(2), 2),
        (sinc_squared_twoscale(2), dyadic(2), 2), (sinc_squared(2), quincunx(), 1)],
        ids=["sinc2-1d", "sinc2-2d", "twoscale-2d", "sinc2-quincunx"])
    def test_one_point_calls_give_the_rows_bits(self, g, m, j):
        # random points, and lattice points M^-j k on both sides of the
        # span's ends, where phi(0) c_k is added from the box
        lat = lattice_support(g, m, j, Box.centered(1.5, g.d), 1e-10 if g.d == 1 else 1e-3)
        cs = Coefficients(lat, coefficients(ExactRule(), gaussian(g.d), m, j, lat).values)
        span = expansion._span(g, cs).lattice
        assert span.shape[0] < lat.shape[0]
        edge = np.arange(span.origin[0] - 2, span.origin[0] + 2)
        ks = np.stack([edge] + [np.full(edge.size, o) for o in span.origin[1:]], axis=1)
        inv = np.asarray(m.power(-j), dtype=float)
        rng = np.random.default_rng(11)
        pts = np.concatenate([map_rows(ks, inv), rng.uniform(-4.0, 4.0, size=(8, g.d))])
        rows = evaluate(g, m, j, cs, pts)
        for p, v in zip(pts, rows):
            assert _bits(evaluate(g, m, j, cs, p[None])) == _bits(v)
        if g.interpolatory:
            # the samples, on either side of the span's end
            assert np.array_equal(rows[: len(ks)], cs.values[tuple((ks - lat.origin).T)])

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
        monkeypatch.setattr(expansion, "_rows_gather", None)
        monkeypatch.setattr(expansion, "_tap_phases", None)
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

    def test_grid_memory_is_bounded(self):
        # 2,000 x 4 points on a 201 x 201 span: summed over axis 0 at once,
        # the grid would hold 201 * 2,000 partial sums (3.2 MB) several times
        # over (10 MB peak), and axis 0's (points, span) table 3.2 MB; in
        # slabs of 40 rows, whose table holds at most _TILE entries, it holds
        # about as much as the rows (observed: 1.34 MB against 1.34 MB)
        rng = np.random.default_rng(3)
        cs = Coefficients(Lattice((-100, -100), (201, 201)), rng.normal(size=(201, 201)))
        g, m = sinc_squared(2), dyadic(2)
        grid = Grid([np.linspace(-40.0, 40.0, 2_000), np.array([-0.3, 0.1, 0.45, 0.8])])
        # the grid transposed: axis 1's (points, span) table would be whole,
        # 2,000 x 201 entries (16.9 MB peak with its sums), so the grid
        # takes the rows' span sum (observed: 1.34 MB against 1.34 MB)
        flipped = Grid(grid.axes[::-1])
        peaks, values = {}, {}
        for name, pts in (("grid", grid), ("rows", np.asarray(grid)),
                          ("flipped", flipped), ("flipped rows", np.asarray(flipped))):
            tracemalloc.start()
            try:
                values[name] = evaluate(g, m, 1, cs, pts)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["grid"] < 1.5 * peaks["rows"]
        assert peaks["flipped"] < 1.5 * peaks["flipped rows"]
        assert np.array_equal(values["flipped"], values["flipped rows"])
        # axes 0 and 1 have no period, so each takes one phase per point: a
        # point's row of the table times the span, the last axis first,
        # where the rows sum axis 0 first.  The same terms summed in another
        # order, over 201 + 201 terms per point, with phi >= 0: within 402 *
        # 2**-52 * sum_k |c_k| phi of the rows' values
        reached = evaluate(g, m, 1, Coefficients(cs.lattice, np.abs(cs.values)), grid)
        assert np.all(np.abs(values["grid"] - values["rows"]) <= 402 * 2.0**-52 * reached)
        # each point's product has the same shapes in every slab, so the
        # grid of the first 400 rows of axis 0 alone has the same bits
        head = evaluate(g, m, 1, cs, Grid([grid.axes[0][:400], grid.axes[1]]))
        assert np.array_equal(values["grid"][: head.size], head)


class TestReach:
    """The majorants a p = inf level limits its points by: outside the box
    that ``_reach`` gives for ``t``, no value exceeds ``t``, and outside the
    signal's box no ``prod_i |f_i(x_i)|`` does."""

    # dyadic and quincunx (an odd level: a gather on lines), two terms,
    # complex tables, and 1-d
    CASES = [(hat(2), dyadic(2), 3), (hat(2), quincunx(), 3),
             (bspline3_2d(0.3, 0.8), dyadic(2), 2), (bspline4_1d(0.2, 0.5, -0.1), dyadic(1), 3),
             (hat(1), dyadic(1), 4)]

    @pytest.mark.parametrize("g,m,j", CASES, ids=["hat2", "hat2-quincunx", "bspline3",
                                                  "bspline4", "hat1"])
    def test_no_value_outside_the_box_exceeds_t(self, g, m, j):
        domain = Box.centered(3.0, g.d)
        grid = make_grid(domain, m.norm(-j) / 4)
        box = lattice_support(g, m, j, domain)
        # small noise and one spike, a third of the way into the box
        vals = np.random.default_rng(0).uniform(-1e-3, 1e-3, box.shape)
        vals[tuple(n // 3 for n in box.shape)] = 1.0
        cs = Coefficients(box, vals)
        level = expansion._level(g, m, j, cs, grid)
        got = np.abs(evaluate(g, m, j, cs, grid)).reshape([x.size for x in grid.axes])
        for t in (0.5, 0.05, 2e-3):
            ranges = level.reach(t)
            inside = np.ones(got.shape, bool)
            for a, (x, (lo, hi)) in enumerate(zip(grid.axes, ranges)):
                inside &= np.expand_dims((lo <= x) & (x <= hi), tuple(
                    b for b in range(g.d) if b != a))
            assert np.all(got[~inside] <= t) and got[inside].max() > t
            assert not inside.all()
        assert level.reach(2.0) is None

    def test_a_non_finite_coefficient_reaches_every_point(self):
        g, m, j, domain = hat(2), dyadic(2), 2, Box.centered(2.0, 2)
        grid = make_grid(domain, 0.1)
        cs = coefficients(ExactRule(), gaussian(2), m, j, lattice_support(g, m, j, domain))
        vals = cs.values.copy()
        vals[0, 0] = np.nan
        level = expansion._level(g, m, j, Coefficients(cs.lattice, vals), grid)
        assert level.reach(0.5) == [(-math.inf, math.inf)] * 2

    def test_no_signal_value_outside_its_box_exceeds_t(self):
        rng = np.random.default_rng(1)
        mods = [np.abs(rng.standard_normal(n)) * np.exp(-np.linspace(-3, 3, n) ** 2)
                for n in (40, 57)]
        prod = np.multiply.outer(*mods)
        for t in (0.1, 0.5, prod.max() * 0.99):
            ranges = analysis._signal_reach(mods, [v.max() for v in mods], t)
            inside = np.zeros(prod.shape, bool)
            inside[tuple(slice(lo, hi) for lo, hi in ranges)] = True
            assert np.all(prod[~inside] <= t) and prod[inside].max() > t
        assert analysis._signal_reach(mods, [v.max() for v in mods], prod.max()) == [(0, 0)] * 2


def _tail_boxes(g, m, j, rule, f, tol=1e-10):
    """The coefficients on the study's box before and after the signal
    limits it."""
    wide = lattice_support(g, m, j, study_domain(StudyPlan(g, m, rule, f)), tol)
    return coefficients(rule, f, m, j, wide), tail_coefficients(rule, f, g, m, j, wide)


def _left_out(wide, cs):
    """``|c_k|`` of the coefficients in ``wide`` outside the box of ``cs``,
    after checking that the two agree inside it."""
    lo = np.subtract(cs.lattice.origin, wide.lattice.origin)
    inside = np.zeros(wide.values.shape, bool)
    inside[tuple(map(slice, lo, lo + cs.values.shape))] = True
    assert np.array_equal(wide.values[inside], cs.values.ravel())
    return np.abs(wide.values[~inside])


def _study_box(plan, j, monkeypatch):
    """The coefficient box that level ``j`` of a study evaluates."""
    seen = []
    monkeypatch.setattr(analysis, "evaluate_slabs",
                        lambda g, m, j, cs, grid: seen.append(cs.lattice))
    analysis.level_slabs(plan, study_domain(plan), j)
    return seen[0]


# the catalog's compact generators, at their default parameters
_COMPACT = [g for g in (make() for make in named_generators.values()) if g.support_radius]


class TestTailBox:
    # the box leaves out sum |c_k| <= 2**-80 * max|c_k| / sup|phi| over all
    # of Z^d, and the span 2**-53 * max|c_k| at any point
    SHARE, SPAN = 2.0**-80, 2.0**-53
    # (generator, dilation, level, rule, signal, truncation_tol); the 2-d
    # generator's box is kept small by the coarse tolerance
    CASES = [(sinc_squared(1), dyadic(1), j, ExactRule(), f, 1e-10)
             for f in (gaussian(1), laplace1d(1.0 / 3.0), matern1d(0.3)) for j in range(1, 6)]
    # ball averages: off its kink, laplace's majorant has slack on one side
    CASES += [(sinc_squared(1), dyadic(1), j, FalsifiedRule(0.5), laplace1d(x0), 1e-10)
              for j, x0 in ((1, 1.0 / 3.0), (4, 1.0 / 3.0), (2, 0.0))]
    CASES += [(sinc_squared(2), dyadic(2), 2, ExactRule(), gaussian(2), 1e-3),
              (sinc_squared_twoscale(1), triadic(1), 2, ExactRule(), matern1d(0.3), 1e-10)]
    IDS = [f"{g.name}{g.d}-{f.name}{''.join(f'@{x:.2g}' for x in f.kinks)}-"
           f"{type(r).__name__[:5]}-j{j}" for g, _, j, r, f, _ in CASES]

    @pytest.mark.parametrize("g,m,j,rule,f,tol", CASES, ids=IDS)
    def test_omitted_sum_is_within_the_share(self, g, m, j, rule, f, tol):
        wide, cs = _tail_boxes(g, m, j, rule, f, tol)
        omitted = _left_out(wide, cs)
        # not vacuous: nonzero coefficients are left out
        assert np.count_nonzero(omitted) and len(cs) < len(wide)
        sup = sum(math.prod(sum(abs(w) for w, _ in f.pairs) for f in t) for t in g.terms)
        assert math.fsum(omitted) * sup <= self.SHARE * np.abs(cs.values).max()

    @pytest.mark.parametrize("g,m,j,rule,f,tol", CASES, ids=IDS)
    def test_the_box_bounds_what_it_leaves_out(self, g, m, j, rule, f, tol):
        # the bound _tail_box states, by brute force on the generator's box,
        # for a coarse budget: a box small enough that the bound is not all
        # slack
        wide = coefficients(rule, f, m, j, lattice_support(
            g, m, j, study_domain(StudyPlan(g, m, rule, f)), tol))
        budget = 2.0**-40
        lattice, bound = expansion._tail_box(rule, f, m, j, wide.lattice, budget)
        omitted = _left_out(wide, coefficients(rule, f, m, j, lattice))
        assert math.fsum(omitted) <= bound <= budget

    @pytest.mark.parametrize("g,m,j,rule,f,tol", CASES[:15], ids=IDS[:15])
    def test_a_1d_box_forms_the_tail_once_per_half_width(self, g, m, j, rule, f, tol):
        # in 1-d no other axis takes a share, so no sum over Z is formed: each
        # f.tail call is one half-width n of the box's own search, t(0..n + 2),
        # from ceil(T0 / s) doubled; the box and its bits are those of the sums'
        calls, passes, tail_box = [], [], expansion._tail_box
        counted = dataclasses.replace(f, tail=lambda t: calls.append(len(t)) or f.tail(t))
        wide, cs = _tail_boxes(g, m, j, rule, f, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "_tail_box", lambda *a: passes.append(1) or tail_box(*a))
            got = tail_coefficients(rule, counted, g, m, j, wide.lattice)
        assert got.lattice == cs.lattice and np.array_equal(got.values, cs.values)
        n0 = math.ceil(f.T0 * 2**j)
        assert passes == [1] and [n - 3 for n in calls] == [n0 << i for i in range(len(calls))]

    @pytest.mark.parametrize("g,m,j,rule,f,tol", CASES, ids=IDS)
    def test_values_within_the_stated_total(self, g, m, j, rule, f, tol):
        wide, cs = _tail_boxes(g, m, j, rule, f, tol)
        grid = make_grid(study_domain(StudyPlan(g, m, rule, f)), 0.37)
        # within 1e-9 of lattice points just outside the box, and on them
        ks = [np.add(cs.lattice.origin, cs.values.shape), np.subtract(cs.lattice.origin, 3)]
        ks += [np.where(np.arange(g.d) == 0, k[0], 0) for k in ks]
        near = [np.asarray(k, float) + gap for k in ks for gap in (0.0, 4e-10, -9e-10)]
        rows = map_rows(np.array(near), np.asarray(m.power(-j), dtype=float))
        bound = (self.SPAN + self.SHARE) * np.abs(cs.values).max()
        for pts in (grid, rows):
            assert np.abs(evaluate(g, m, j, cs, pts) - evaluate(g, m, j, wide, pts)).max() <= bound

    @pytest.mark.parametrize("f", [gaussian(1), laplace1d(1.0 / 3.0), matern1d(0.3)],
                             ids=["gaussian", "laplace", "matern"])
    def test_study_errors_are_the_wide_box_errors(self, f):
        # bit for bit: the benchmark's replay builds the generator's box
        plan = StudyPlan(sinc_squared(1), dyadic(1), ExactRule(), f, j_min=1, j_max=5)
        domain = study_domain(plan)
        for j, err in zip(range(1, 6), convergence_study(plan).errors):
            grid, spacing = analysis.level_grid(plan, domain, j)
            cs = coefficients(plan.rule, f, plan.dilation, j,
                              lattice_support(plan.generator, plan.dilation, j, domain))
            qv = evaluate(plan.generator, plan.dilation, j, cs, grid)
            assert lp_distance(f.eval(grid), qv, math.inf, spacing, 1) == err

    PLANS = {
        "sinc2-polynomial": StudyPlan(sinc_squared(1), dyadic(1), ExactRule(),
                                      polynomial(1, {(0,): 1.0, (2,): -0.5}),
                                      domain_halfwidth=2.0),
        "sinc2-differential": StudyPlan(sinc_squared(1), dyadic(1),
                                        DifferentialRule(ball_operator(1, 2, 0.5)), gaussian(1)),
        "sinc2-quincunx": StudyPlan(sinc_squared(2), quincunx(), ExactRule(), gaussian(2),
                                    truncation_tol=1e-3),
        **{f"{g.name}-{type(rule).__name__}": StudyPlan(g, dyadic(g.d), rule, gaussian(g.d))
           for g in _COMPACT for rule in (ExactRule(), FalsifiedRule(0.5))},
    }

    @pytest.mark.parametrize("name", PLANS)
    def test_other_studies_keep_the_generators_box(self, name, monkeypatch):
        plan = self.PLANS[name]
        box = _study_box(plan, 1, monkeypatch)
        g, m = plan.generator, plan.dilation
        assert box == lattice_support(g, m, 1, study_domain(plan), plan.truncation_tol)

    def test_a_band_limited_study_limits_its_box(self, monkeypatch):
        plan = StudyPlan(sinc_squared(1), dyadic(1), ExactRule(), gaussian(1))
        box = _study_box(plan, 5, monkeypatch)
        assert box == Lattice((-136,), (273,))

    def test_a_box_over_the_share_is_chosen_again(self, monkeypatch):
        # max|c_k| = 1e-3, below the first guess of 1: the first box leaves
        # out more than 2**-80 * 1e-3, so a wider one is chosen for 1e-3
        g, m, j = sinc_squared(1), dyadic(1), 3
        f0 = gaussian(1)
        f = dataclasses.replace(f0, pointwise=lambda x: 1e-3 * f0.pointwise(x),
                                factor=lambda t: 1e-3 * f0.factor(t),
                                tail=lambda t: 1e-3 * f0.tail(t))
        calls, rule = [], ExactRule()
        real = expansion.coefficients
        monkeypatch.setattr(expansion, "coefficients",
                            lambda *a: calls.append(a[-1]) or real(*a))
        wide, cs = _tail_boxes(g, m, j, rule, f)
        assert len(calls) == 2 and len(calls[0]) < len(calls[1]) == len(cs)
        sums = [math.fsum(_left_out(wide, c)) for c in (real(rule, f, m, j, calls[0]), cs)]
        assert sums[0] > self.SHARE * 1e-3 >= sums[1]

    def test_a_box_cut_by_the_tolerance_is_the_generators_box(self):
        # the reach sqrt(decay_const / 0.1) = 1 keeps the box inside the tail's
        g, m, j, f = sinc_squared(1), dyadic(1), 3, gaussian(1)
        box = lattice_support(g, m, j, Box.centered(1.5, 1), 0.1)
        assert tail_coefficients(ExactRule(), f, g, m, j, box).lattice == box


def _bits(values):
    """The bits of the real parts."""
    return np.ascontiguousarray(np.real(values)).view(np.uint64)


def _complex_signal(f):
    """``f`` with complex values, derivatives and factor: the same real
    parts, imaginary parts 0."""
    return dataclasses.replace(
        f, pointwise=lambda x: f.pointwise(x) + 0j,
        derivative=lambda alpha, x: f.derivative(alpha, x) + 0j,
        factor=f.factor and (lambda t: f.factor(t) + 0j))


class TestRealArithmetic:
    """A real generator, signal and rule are summed in real arithmetic,
    with the bits of the real parts of the complex sums."""

    RULES = [ExactRule(), FalsifiedRule(0.5), DifferentialRule(ball_operator(2, 2, 0.5))]
    RULE_IDS = ["exact", "ball", "ball-operator"]

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    @pytest.mark.parametrize("g,m,j", [
        (hat(2), dyadic(2), 2), (hat(2), quincunx(), 1), (sinc_squared(2), dyadic(2), 1)],
        ids=["hat2-dyadic", "hat2-quincunx", "sinc2-dyadic"])
    def test_a_real_signal_gives_real_coefficients_and_values(self, rule, g, m, j):
        domain = Box.centered(1.5, 2)
        cs = coefficients(rule, gaussian(2), m, j, lattice_support(g, m, j, domain, 1e-2))
        assert cs.values.dtype == np.float64
        grid = make_grid(domain, 0.2)
        for pts in (grid, np.asarray(grid)):
            assert evaluate(g, m, j, cs, pts).dtype == np.float64

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_a_complex_polynomial_gives_complex_coefficients(self, rule):
        lattice = Lattice((-3, -3), (7, 7))
        f = polynomial(2, {(0, 0): 1.0, (1, 0): 0.5j, (0, 2): -0.25})
        vals = coefficients(rule, f, dyadic(2), 2, lattice).values
        assert vals.dtype == np.complex128 and np.any(vals.imag != 0)
        real = polynomial(2, {(0, 0): 1.0, (0, 2): -0.25})
        assert coefficients(rule, real, dyadic(2), 2, lattice).values.dtype == np.float64

    def test_a_complex_operator_gives_complex_coefficients(self):
        op = DiffOperator(2, {(0, 0): 1.0, (1, 0): 0.5j}, 1)
        vals = coefficients(DifferentialRule(op), gaussian(2), dyadic(2), 2,
                            Lattice((-3, -3), (7, 7))).values
        assert vals.dtype == np.complex128 and np.any(vals.imag != 0)

    def test_odd_sine_powers_give_complex_values(self):
        # criterion 6's case: real coefficients under a complex factor
        g, m, j = bspline4_1d(0.2, 0.5, -0.1), dyadic(1), 3
        cs, grid = _expansion_on_grid(g, m, j)
        assert cs.values.dtype == np.float64
        got = evaluate(g, m, j, cs, grid)
        assert got.dtype == np.complex128 and np.any(got.imag != 0)
        cz = Coefficients(cs.lattice, cs.values.astype(complex))
        assert np.array_equal(evaluate(g, m, j, cz, grid), got)

    @pytest.mark.parametrize("m,j", [(dyadic(2), 2), (quincunx(), 1)],
                             ids=["per-axis", "general"])
    def test_a_complex_factor_promotes_real_coefficients(self, m, j):
        twisted = lambda x: (1.0 + 0.5j) * hat(1).terms[0][0](x)
        g = dataclasses.replace(hat(2), terms=((twisted, hat(1).terms[0][0]),))
        cs, grid = _expansion_on_grid(hat(2), m, j)
        cz = Coefficients(cs.lattice, cs.values.astype(complex))
        for pts in (grid, np.asarray(grid)):
            got = evaluate(g, m, j, cs, pts)
            assert got.dtype == np.complex128
            assert np.array_equal(got, evaluate(g, m, j, cz, pts))

    @pytest.mark.parametrize("g,m,j", [
        (hat(1), dyadic(1), 3), (hat(2), dyadic(2), 2), (hat(2), quincunx(), 1),
        (bspline3_2d(0.3, 0.8), dyadic(2), 2), (sinc_squared(1), dyadic(1), 2),
        (sinc_squared(2), dyadic(2), 1), (sinc_squared_twoscale(2), quincunx(), 1)],
        ids=["hat1", "hat2-dyadic", "hat2-quincunx", "bspline3", "sinc2-1d", "sinc2-2d",
             "twoscale2-quincunx"])
    def test_kernels_give_the_bits_of_complex_coefficients(self, g, m, j):
        # a grid takes the axis operator (a compact generator's under any
        # M^j) or the span sum on a grid; rows take rows mode or the span sum
        # on rows
        cs, grid = _expansion_on_grid(g, m, j)
        cz = Coefficients(cs.lattice, cs.values.astype(complex))
        for pts in (grid, np.asarray(grid)):
            got, ref = evaluate(g, m, j, cs, pts), evaluate(g, m, j, cz, pts)
            assert got.dtype == np.float64 and not np.any(ref.imag)
            assert np.array_equal(_bits(got), _bits(ref))

    @pytest.mark.parametrize("rule,f,m,j", [
        (FalsifiedRule(0.5), gaussian(2), dyadic(2), 2),
        (FalsifiedRule(0.5), gaussian(2), quincunx(), 1),
        (FalsifiedRule(0.5), laplace1d(1.0 / 3.0), dyadic(1), 3),
        (DifferentialRule(ball_operator(2, 2, 0.5)), gaussian(2), quincunx(), 1),
        (DifferentialRule(ball_operator(2, 4, 0.5)), gaussian(2), dyadic(2), 2)],
        ids=["ball-per-axis", "ball-rows", "ball-kink-split", "operator2", "operator4"])
    def test_coefficients_give_the_bits_of_a_complex_signal(self, rule, f, m, j):
        lattice = lattice_support(hat(f.d), m, j, Box.centered(1.5, f.d))
        got = coefficients(rule, f, m, j, lattice).values
        ref = coefficients(rule, _complex_signal(f), m, j, lattice).values
        assert got.dtype == np.float64 and not np.any(ref.imag)
        assert np.array_equal(_bits(got), _bits(ref))


def _gap(f, op, m, j, lattice, h):
    """Ball-averaged minus differential coefficients on a lattice box."""
    avg = coefficients(FalsifiedRule(h), f, m, j, lattice).values
    return avg - coefficients(DifferentialRule(op), f, m, j, lattice).values


class TestDeviation:
    def test_vanishes_on_polynomials_up_to_operator_order(self):
        op = ball_operator(1, 2, 0.3)
        f = polynomial(1, {(0,): 0.5, (1,): -1.0, (2,): 2.0})
        dev = _gap(f, op, dyadic(1), 2, Lattice((3,), (1,)), 0.3)
        assert dev.shape == (1,)
        assert abs(dev[0]) < 1e-12

    def test_vanishes_in_two_dimensions(self):
        # the box holds (1, -2) and (0, 3)
        op = ball_operator(2, 2, 0.4)
        f = polynomial(2, {(0, 0): 1.0, (1, 1): 3.0, (2, 0): -2.0})
        dev = _gap(f, op, quincunx(), 2, Lattice((0, -2), (2, 6)), 0.4)
        assert dev.shape == (2, 6)
        assert np.all(np.abs(dev) < 1e-12)

    def test_quartic_excess_by_hand(self):
        # f = x^4, M = 2, j = 1, k = 0: the average of (t/2)^4 over
        # |t| <= h is h^4/80, and the order-2 operator contributes nothing
        h = 0.5
        op = ball_operator(1, 2, h)
        f = polynomial(1, {(4,): 1.0})
        dev = _gap(f, op, dyadic(1), 1, Lattice((0,), (1,)), h)[0]
        assert dev == pytest.approx(h**4 / 80.0, rel=1e-12)
