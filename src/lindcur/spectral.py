"""Frequency-resolved operator decompositions.

An operator A is split into components A_w connecting eigenstates whose
energy difference falls in the bin of frequency w.  Each energy-basis entry
(n, m) lies in exactly one bin, the one nearest to E_n - E_m, so the split
is stored as the energy-basis operator and an (N, N) map of bin labels,
not as one matrix per bin.  Rotation back to the site basis happens where
results are reported.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BinCollision, DimensionMismatch
from .linalg import EigenSystem

DEFAULT_FREQ_TOL_SCALE = 1e-9


def default_freq_tol(eig: EigenSystem) -> float:
    """Default binning tolerance: 1e-9 relative to the largest energy."""
    scale = float(np.max(np.abs(eig.energies))) if eig.dimension else 0.0
    return DEFAULT_FREQ_TOL_SCALE * max(1.0, scale)


@dataclass(frozen=True)
class BohrSpectrum:
    """Sorted distinct transition frequencies with their bin tolerance."""

    frequencies: np.ndarray
    bin_tolerance: float

    def nearest(self, x) -> np.ndarray:
        """Index of the centre nearest to each x, as an int array of x's shape.

        A search over the sorted centres picks the two neighbours of x and
        a tie goes to the lower one, so the result is the first index of
        the smallest |x - frequencies| unless rounding also puts a third
        centre at that distance, which takes |x| far beyond the centre
        spacing.  The spectrum must not be empty.
        """
        w = self.frequencies
        x = np.asarray(x, dtype=float)
        if len(w) == 1:
            return np.zeros(x.shape, dtype=np.intp)
        hi = np.clip(np.searchsorted(w, x), 1, len(w) - 1)
        lo = hi - 1
        return np.where(np.abs(x - w[hi]) < np.abs(x - w[lo]), hi, lo)

    def __len__(self) -> int:
        return len(self.frequencies)


def bohr_frequencies(eig: EigenSystem, freq_tol: float) -> BohrSpectrum:
    """Cluster all pairwise energy differences into frequency bins.

    Sorted sweep: a new cluster starts wherever the gap to the previous
    difference exceeds a linkage of freq_tol/4, and each center is the
    mean of its cluster (one reduceat over the starts).  The tighter
    linkage keeps genuinely distinct transition frequencies in separate
    clusters, so an oversized freq_tol shows up as two centers closer
    than freq_tol instead of being silently merged away.  Cluster
    centers are anti-symmetrized afterwards so the set is exactly
    closed under negation and contains an exact zero.

    Raises BinCollision when two cluster centers end up closer than
    freq_tol, or when a difference strays more than freq_tol from its
    center (both mean freq_tol is unsuited to this spectrum).
    """
    if freq_tol <= 0:
        raise ValueError("freq_tol must be positive")
    w = eig.energies
    diffs = np.sort((w[:, None] - w[None, :]).ravel())
    linkage = freq_tol / 4.0
    starts = np.flatnonzero(np.diff(diffs, prepend=-np.inf) > linkage)
    counts = np.diff(starts, append=len(diffs))
    centers = np.add.reduceat(diffs, starts) / counts
    # enforce exact negation symmetry (the raw difference set is symmetric,
    # so clusters pair up; average each with its mirror)
    centers = (centers - centers[::-1]) / 2.0
    if np.any(np.diff(centers) <= freq_tol):
        raise BinCollision(
            "cluster centers closer than the bin tolerance; "
            "freq_tol is too large for this spectrum"
        )
    spectrum = BohrSpectrum(frequencies=centers, bin_tolerance=freq_tol)
    if np.max(np.abs(diffs - centers[spectrum.nearest(diffs)])) > freq_tol:
        raise BinCollision(
            "a transition frequency lies farther than freq_tol from every "
            "cluster center; freq_tol is too small for this spectrum"
        )
    return spectrum


@dataclass(frozen=True)
class SpectralOperator:
    """An operator resolved into frequency components.

    source is the full operator in the energy basis and labels[n, m] the
    index of the bin of energies[n] - energies[m] in spectrum.frequencies;
    component k is the part of source where labels == k.  The generating
    EigenSystem is kept for basis rotations downstream.
    """

    source: np.ndarray
    labels: np.ndarray
    spectrum: BohrSpectrum
    eig: EigenSystem = field(repr=False)


def decompose(A: np.ndarray, eig: EigenSystem, spectrum: BohrSpectrum) -> SpectralOperator:
    """Resolve a site-basis operator into frequency components.

    The operator is rotated into the energy basis and each matrix element
    (n, m) is labelled with the bin nearest to energies[n] - energies[m].
    The components sum to the rotated operator exactly.
    """
    A = np.asarray(A, dtype=complex)
    N = eig.dimension
    if A.shape != (N, N):
        raise DimensionMismatch(f"operator shape {A.shape} vs dimension {N}")
    w = eig.energies
    labels = spectrum.nearest(w[:, None] - w[None, :])
    return SpectralOperator(
        source=eig.to_energy_basis(A), labels=labels, spectrum=spectrum, eig=eig
    )

