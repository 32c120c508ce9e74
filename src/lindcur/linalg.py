"""Dense complex-matrix primitives.

Hermitian eigendecomposition with a reproducible phase convention, and the
record of a superoperator's N^2 x N^2 matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Spectral resolution of a Hermitian matrix.

    energies are sorted ascending; the k-th column of basis is the k-th
    eigenvector.  Eigenvector phases are fixed so the first component of
    significant magnitude is real and positive, which makes repeated
    decompositions bit-identical.
    """

    energies: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.energies)

    def matrix(self) -> np.ndarray:
        """Reconstruct the original Hermitian matrix."""
        return (self.basis * self.energies) @ self.basis.conj().T

    def to_energy_basis(self, A: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ A @ self.basis

    def to_site_basis(self, A: np.ndarray) -> np.ndarray:
        return self.basis @ A @ self.basis.conj().T


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    out = basis.copy()
    n = basis.shape[0]
    for k in range(basis.shape[1]):
        col = out[:, k]
        scale = np.max(np.abs(col))
        for i in range(n):
            if np.abs(col[i]) > 1e-12 * scale:
                phase = col[i] / np.abs(col[i])
                out[:, k] = col * np.conj(phase)
                break
    return out


def hermitian_eigensystem(M: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with fixed conventions.

    Raises NotHermitian when the anti-Hermitian part exceeds 1e-10 relative
    to the largest entry, and NoConvergence if the LAPACK solver fails.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > HERMITICITY_TOL * scale:
        raise NotHermitian(f"anti-Hermitian defect {defect:.3e} exceeds tolerance")
    try:
        energies, basis = np.linalg.eigh((M + M.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenSystem(energies=energies, basis=_fix_phases(basis))


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on N x N matrices, stored as an N^2 x N^2 matrix.

    The matrix acts on column-stacked operands: with x = X.reshape(-1,
    order="F"), the image of X is (matrix @ x).reshape(N, N, order="F").
    """

    dimension: int
    matrix: np.ndarray
