"""Integer expansive dilations: validation, spectra, powers, scales."""
import numpy as np
import pytest

from dilsamp import (
    Dilation, diagonal, dyadic, named_dilations, operator_norm, quincunx, triadic,
)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Dilation(np.array([[2, 0, 0], [0, 2, 0]]))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            Dilation(np.array([[1.5, 0.0], [0.0, 2.0]]))

    def test_rejects_non_expansive(self):
        # eigenvalue 1 on the diagonal
        with pytest.raises(ValueError):
            Dilation(np.array([[1, 0], [0, 2]]))
        # rotation: all eigenvalues on the unit circle
        with pytest.raises(ValueError):
            Dilation(np.array([[0, -1], [1, 0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            Dilation(np.array([[2, 2], [1, 1]]))

    def test_accepts_shear_with_expansive_spectrum(self):
        m = Dilation(np.array([[2, 1], [0, 2]]))
        assert m.d == 2
        # defective double eigenvalue: expansive but not isotropic
        assert not m.isotropic
        assert m.theta == pytest.approx(2.0)


class TestSpectralScales:
    def test_dyadic_is_isotropic(self):
        m = dyadic(3)
        assert m.isotropic
        assert m.lambda_abs == pytest.approx(2.0)
        assert m.theta == pytest.approx(2.0)
        assert m.scale(2) == pytest.approx(0.25)

    def test_quincunx_modulus_is_sqrt2(self):
        m = quincunx()
        assert m.isotropic
        assert m.lambda_abs == pytest.approx(np.sqrt(2.0))
        assert m.det_abs == 2
        # |det| = 2, so two steps halve the scale exactly
        assert m.scale(2) == pytest.approx(0.5)

    def test_diagonal_mixed_moduli(self):
        m = diagonal((2, 3))
        assert not m.isotropic
        assert m.lambda_abs is None
        assert m.theta == pytest.approx(2.0)
        assert m.eig_moduli == pytest.approx((2.0, 3.0))
        # scale follows the slowest-contracting direction
        assert m.scale(2) == pytest.approx(0.25)


class TestPowers:
    def test_positive_power_stays_integer_exact(self):
        m = quincunx()
        p = m.power(6)
        assert p.dtype.kind in "iu"
        assert np.array_equal(
            p, np.linalg.matrix_power(np.asarray(m.matrix), 6)
        )

    def test_negative_power_is_true_inverse(self):
        m = diagonal((2, 3))
        inv2 = m.power(-2)
        assert np.allclose(inv2 @ m.power(2), np.eye(2), atol=1e-14)

    def test_zero_power(self):
        assert np.allclose(quincunx().power(0), np.eye(2))

    def test_power_is_exact_up_to_the_int64_range(self):
        assert triadic(1).power(39)[0, 0] == 3**39
        assert dyadic(2).power(62)[1, 1] == 2**62

    @pytest.mark.parametrize("m,j", [
        (triadic(1), 40), (triadic(1), -40), (dyadic(2), 63), (dyadic(2), -63),
    ])
    def test_power_beyond_int64_raises(self, m, j):
        with pytest.raises(OverflowError, match="int64"):
            m.power(j)

    @pytest.mark.parametrize("j", [3, -3])
    def test_powers_are_read_only(self, j):
        with pytest.raises(ValueError, match="read-only"):
            quincunx().power(j)[0, 0] = 1

    @pytest.mark.parametrize("rows", [[[1, 1], [1, -1]], [[2, 0], [0, 3]], [[2, 1], [0, 2]]],
                             ids=["quincunx", "diag23", "shear"])
    def test_a_kept_power_has_the_bits_of_a_fresh_one(self, rows):
        m = Dilation(np.array(rows))
        for j in (5, -5, 1, -1, 0):
            first = m.power(j)
            assert m.power(j) is first
            fresh = Dilation(np.array(rows)).power(j)
            assert fresh.dtype == first.dtype and fresh.tobytes() == first.tobytes()

    def test_operator_norm_matches_numpy(self):
        a = np.array([[0.5, 0.25], [0.0, 0.5]])
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2))


def test_named_catalog_contents():
    assert set(named_dilations) >= {"dyadic1", "dyadic2", "quincunx", "diag23"}
    for make in named_dilations.values():
        m = make()
        assert m.theta > 1.0
