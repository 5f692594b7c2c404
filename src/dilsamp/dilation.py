"""Integer dilation matrices and their spectral data.

A dilation matrix is an integer d x d matrix all of whose eigenvalues have
modulus strictly greater than one.  Isotropic matrices (diagonalizable with
all eigenvalue moduli equal) admit sharper convergence statements, so the
isotropy test and the common modulus are computed once at construction.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

_EXPANSIVE_TOL = 1e-10
_ISO_REL_TOL = 1e-9
_ISO_COND_MAX = 1e6
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Dilation:
    """Validated dilation matrix with cached spectral quantities.

    Attributes
    ----------
    matrix : ndarray
        Integer entries, shape ``(d, d)``.
    det_abs : int
        ``|det M|``, the number of cosets of ``M Z^d`` in ``Z^d``.
    eig_moduli : tuple of float
        Eigenvalue moduli in ascending order.
    isotropic : bool
        True when diagonalizable with all moduli equal (within tolerance).
    lambda_abs : float or None
        The common eigenvalue modulus for isotropic matrices, else None.
    theta : float
        Smallest eigenvalue modulus; drives worst-case decay rates.
    """

    matrix: np.ndarray
    det_abs: int = field(init=False)
    eig_moduli: tuple = field(init=False)
    isotropic: bool = field(init=False)
    lambda_abs: float | None = field(init=False)
    theta: float = field(init=False)
    _powers: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _norms: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dilation matrix must be square")
        if not np.all(m == np.round(m)):
            raise ValueError("dilation matrix must have integer entries")
        m = m.astype(np.int64)
        object.__setattr__(self, "matrix", m)
        det = round(float(np.linalg.det(m.astype(float))))
        if det == 0:
            raise ValueError("dilation matrix is singular")
        vals, vecs = np.linalg.eig(m.astype(float))
        moduli = np.sort(np.abs(vals))
        if moduli[0] <= 1.0 + _EXPANSIVE_TOL:
            raise ValueError(
                f"not expansive: eigenvalue modulus {moduli[0]:.6g} <= 1"
            )
        spread = (moduli[-1] - moduli[0]) / moduli[-1]
        iso = bool(spread < _ISO_REL_TOL and np.linalg.cond(vecs) < _ISO_COND_MAX)
        object.__setattr__(self, "det_abs", abs(det))
        object.__setattr__(self, "eig_moduli", tuple(float(v) for v in moduli))
        object.__setattr__(self, "isotropic", iso)
        object.__setattr__(self, "lambda_abs", float(moduli.mean()) if iso else None)
        object.__setattr__(self, "theta", float(moduli[0]))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def power(self, j: int) -> np.ndarray:
        """``M**j`` exactly for ``j >= 0`` (integer), by solve for ``j < 0``.

        ``M**|j|`` is formed in exact integer arithmetic; ``OverflowError``
        is raised when an entry leaves the int64 range.  Each power is
        formed once per instance and kept: every call with the same ``j``
        returns the same read-only array.
        """
        j = operator.index(j)
        out = self._powers.get(j)
        if out is None:
            exact = np.linalg.matrix_power(self.matrix.astype(object), abs(j))
            if any(not _INT64.min <= v <= _INT64.max for v in exact.flat):
                raise OverflowError(f"M**{abs(j)} has entries beyond the int64 range")
            out = exact.astype(np.int64)
            if j < 0:
                out = np.linalg.solve(out.astype(float), np.eye(self.d))
            out.flags.writeable = False
            self._powers[j] = out
        return out

    def norm(self, j: int) -> float:
        """``operator_norm(M**j)``, formed once per instance and ``j``."""
        if j not in self._norms:
            self._norms[j] = operator_norm(self.power(j))
        return self._norms[j]

    def scale(self, j: int) -> float:
        """Natural per-level scale: ``lambda_abs**-j`` when isotropic, else
        ``theta**-j``."""
        base = self.lambda_abs if self.isotropic else self.theta
        return float(base) ** (-j)


def dilation(rows) -> Dilation:
    """Build a :class:`Dilation` from nested lists or an array."""
    return Dilation(np.asarray(rows))


def operator_norm(a) -> float:
    """Spectral norm of a matrix."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def dyadic(d: int = 1) -> Dilation:
    """``2 I_d``: the standard separable refinement."""
    return dilation(2 * np.eye(d, dtype=int))


def triadic(d: int = 1) -> Dilation:
    return dilation(3 * np.eye(d, dtype=int))


def quincunx() -> Dilation:
    """The rotated-and-scaled plane lattice; determinant 2, isotropic."""
    return dilation([[1, 1], [1, -1]])


def diagonal(entries) -> Dilation:
    """Diagonal dilation, e.g. ``diagonal((2, 3))`` for an anisotropic case."""
    return dilation(np.diag(np.asarray(entries, dtype=int)))


named_dilations = {
    "dyadic1": lambda: dyadic(1),
    "triadic1": lambda: triadic(1),
    "dyadic2": lambda: dyadic(2),
    "quincunx": quincunx,
    "diag23": lambda: diagonal((2, 3)),
}
