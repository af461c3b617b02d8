"""Small density matrices over fixed color-pattern bases.

Two matrix types cover everything the tomography protocol needs: the 2x2
conditioned-pair matrix in the ordered basis {|BR>, |RB>} and the 3x3
three-photon matrix in {|BBR>, |BRB>, |RBB>} (one photon per channel, two
blue and one red, as energy conservation dictates for the heralded branch).

Constructors enforce hermiticity and unit trace.  Positivity is *reported*
(:meth:`min_eigenvalue`, :meth:`is_physical`), not enforced: matrices
reconstructed from finite-shot statistics may dip slightly negative and the
point of linear inversion is to show exactly that, not to repair it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidRho

BASIS_PAIR = ("BR", "RB")
BASIS_THREE = ("BBR", "BRB", "RBB")

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-9


def _validated(matrix, dim: int) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (dim, dim):
        raise DimensionMismatch(f"expected a {dim}x{dim} matrix, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidRho("matrix entries must be finite")
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > _HERM_TOL:
        raise InvalidRho(f"matrix is not Hermitian (max deviation {herm:.3g})")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidRho(f"trace must be 1, got {tr:.12g}")
    mat = 0.5 * (mat + mat.conj().T)  # symmetrize float noise below tolerance
    mat.setflags(write=False)
    return mat


def _matrix_json(mat: np.ndarray, basis: tuple[str, ...]) -> dict:
    return {
        "basis": list(basis),
        "re": [[float(x.real) for x in row] for row in mat],
        "im": [[float(x.imag) for x in row] for row in mat],
    }


def _matrix_csv(mat: np.ndarray, basis: tuple[str, ...]) -> str:
    header = ["basis"]
    for label in basis:
        header += [f"{label}_re", f"{label}_im"]
    lines = [",".join(header)]
    for label, row in zip(basis, mat):
        cells = [label]
        for x in row:
            cells += [repr(float(x.real)), repr(float(x.imag))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class PairRho:
    """Conditioned photon-pair density matrix in the {|BR>, |RB>} basis."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _validated(self.matrix, 2))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def is_physical(self, tol: float = _PSD_TOL) -> bool:
        return self.min_eigenvalue() >= -tol

    def as_json_dict(self) -> dict:
        return _matrix_json(self.matrix, BASIS_PAIR)

    def to_csv(self) -> str:
        return _matrix_csv(self.matrix, BASIS_PAIR)


@dataclass(frozen=True, eq=False)
class ThreePhotonRho:
    """Three-photon density matrix in the {|BBR>, |BRB>, |RBB>} basis.

    For states with verified uniform counting statistics the diagonal is
    (1/3, 1/3, 1/3) and the full matrix is determined by the three complex
    off-diagonals ``a = rho[0,1]``, ``b = rho[0,2]``, ``c = rho[1,2]``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _validated(self.matrix, 3))

    @classmethod
    def from_offdiagonals(cls, a: complex, b: complex, c: complex) -> "ThreePhotonRho":
        """Uniform-diagonal matrix with the given coherences."""
        third = 1.0 / 3.0
        mat = np.array(
            [
                [third, a, b],
                [np.conjugate(a), third, c],
                [np.conjugate(b), np.conjugate(c), third],
            ],
            dtype=complex,
        )
        return cls(mat)

    @property
    def a(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def b(self) -> complex:
        return complex(self.matrix[0, 2])

    @property
    def c(self) -> complex:
        return complex(self.matrix[1, 2])

    @property
    def diagonals(self) -> tuple[float, float, float]:
        d = np.real(np.diag(self.matrix))
        return (float(d[0]), float(d[1]), float(d[2]))

    def fidelity_w(self) -> float:
        """<W|rho|W> for the equal-amplitude W state in this basis; equals
        the mean of all nine matrix entries."""
        w = np.full(3, 1.0 / np.sqrt(3.0))
        return float(np.real(w @ self.matrix @ w))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def is_physical(self, tol: float = _PSD_TOL) -> bool:
        return self.min_eigenvalue() >= -tol

    def as_json_dict(self) -> dict:
        return _matrix_json(self.matrix, BASIS_THREE)

    def to_csv(self) -> str:
        return _matrix_csv(self.matrix, BASIS_THREE)


def trace_distance(rho1, rho2) -> float:
    """(1/2) * trace norm of the difference of two density matrices."""
    m1 = rho1.matrix if hasattr(rho1, "matrix") else np.asarray(rho1, dtype=complex)
    m2 = rho2.matrix if hasattr(rho2, "matrix") else np.asarray(rho2, dtype=complex)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shape mismatch {m1.shape} vs {m2.shape}")
    eigs = np.linalg.eigvalsh(m1 - m2)
    return float(0.5 * np.sum(np.abs(eigs)))
