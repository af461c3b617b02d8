"""The three-photon density matrix over a fixed color-pattern basis.

The heralded branch holds one photon per channel, two blue and one red, as
energy conservation dictates, so every matrix lives in the ordered basis
{|BBR>, |BRB>, |RBB>}.

The constructor enforces hermiticity and unit trace, not positivity:
matrices reconstructed from finite-shot statistics may dip slightly negative
and the point of linear inversion is to show exactly that, not to repair it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BASIS_THREE = ("BBR", "BRB", "RBB")

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ThreePhotonRho:
    """Three-photon density matrix in the {|BBR>, |BRB>, |RBB>} basis.

    For states with verified uniform counting statistics the diagonal is
    (1/3, 1/3, 1/3) and the full matrix is determined by the three complex
    off-diagonals ``a = rho[0,1]``, ``b = rho[0,2]``, ``c = rho[1,2]``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (3, 3):
            raise ValidationError(f"expected a 3x3 matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValidationError("matrix entries must be finite")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > _HERM_TOL:
            raise ValidationError(f"matrix is not Hermitian (max deviation {herm:.3g})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValidationError(f"trace must be 1, got {tr:.12g}")
        mat = 0.5 * (mat + mat.conj().T)  # symmetrize float noise below tolerance
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

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
    def diagonals(self) -> tuple[float, float, float]:
        d = np.real(np.diag(self.matrix))
        return (float(d[0]), float(d[1]), float(d[2]))

    def fidelity_w(self) -> float:
        """<W|rho|W> for the equal-amplitude W state in this basis; equals
        the mean of all nine matrix entries."""
        w = np.full(3, 1.0 / np.sqrt(3.0))
        return float(np.real(w @ self.matrix @ w))


def trace_distance(rho1: ThreePhotonRho, rho2: ThreePhotonRho) -> float:
    """(1/2) * trace norm of the difference of two density matrices."""
    eigs = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))
