"""Open tight-binding chains: densities, bond currents, local coupling.

Site r hosts the projector n_r = |r><r|.  Bond b sits between sites b and
b+1 and carries the Hermitian current operator fixed (including its sign)
by the exact identity

    i [H, n_r] + (div J)_r = 0

with the discrete divergence (div J)_r = J_{r} - J_{r-1} and zero virtual
bonds outside the chain.  Positive current flows toward larger site index.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and couplings of an open chain."""

    n_sites: int
    hopping: float
    potential: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if not (np.isfinite(self.hopping) and self.hopping > 0):
            raise ValueError("hopping must be positive and finite")
        pot = np.asarray(self.potential, dtype=float)
        cpl = np.asarray(self.coupling, dtype=float)
        for name, arr in (("potential", pot), ("coupling", cpl)):
            if arr.shape != (self.n_sites,):
                raise LengthMismatch(f"{name} must have length {self.n_sites}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
        object.__setattr__(self, "potential", pot)
        object.__setattr__(self, "coupling", cpl)


@dataclass(frozen=True)
class LatticeOperators:
    """Site-basis operators of a chain."""

    chain: ChainSpec
    h: np.ndarray
    n_ops: list = field(repr=False)
    j_ops: list = field(repr=False)
    v: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.chain.n_sites

    @property
    def n_bonds(self) -> int:
        return self.chain.n_sites - 1


def build_chain(spec: ChainSpec) -> LatticeOperators:
    """Assemble H, the site projectors, the bond currents, and V."""
    N = spec.n_sites
    t = spec.hopping
    H = np.diag(spec.potential.astype(complex))
    for r in range(N - 1):
        H[r, r + 1] = -t
        H[r + 1, r] = -t
    n_ops = []
    for r in range(N):
        n = np.zeros((N, N), dtype=complex)
        n[r, r] = 1.0
        n_ops.append(n)
    j_ops = []
    for r in range(N - 1):
        J = np.zeros((N, N), dtype=complex)
        J[r + 1, r] = 1j * t
        J[r, r + 1] = -1j * t
        j_ops.append(J)
    V = np.diag(spec.coupling.astype(complex))
    return LatticeOperators(chain=spec, h=H, n_ops=n_ops, j_ops=j_ops, v=V)


def discrete_divergence(bond_values):
    """Site-wise differences of bond values, zero virtual outer bonds.

    Accepts scalars or matrices; the N site values telescope to zero
    (for matrices: to the zero matrix) exactly.
    """
    bonds = list(bond_values)
    if len(bonds) < 1:
        raise LengthMismatch("need at least one bond value")
    out = [bonds[0]]
    for r in range(1, len(bonds)):
        out.append(bonds[r] - bonds[r - 1])
    out.append(-bonds[-1])
    return out

