"""Dissipative current correction on an open chain.

Secular dissipation breaks the lattice continuity identity: the density no
longer changes only through the Hamiltonian bond currents, but picks up a
local source term, the adjoint-generator image of the site density.  Because
the chain is one-dimensional and open, that source has a unique bond-wise
antiderivative vanishing at both ends, which defines a correction current
J_D per bond: the correction whose divergence cancels the dissipative
source.  This module builds J_D three independent ways and checks them
against each other:

  * the resonant spectral sum in closed form (jd_observables, with
    jd_expectation = tr(rho O_b)).  Each energy-basis matrix entry lies in
    exactly one Bohr bin, so the sum over resonant bin quadruples becomes
    a sum over index chains (i, j, k, l) of the energy basis, weighted by
    two elementwise selection rules on the bins of the four factors and
    contracted in two einsums,
  * the cumulative one-dimensional inversion of the source
    (jd_cumulative_1d),
  * a finite-time-average quadrature that knows nothing about the secular
    limit (jd_finite_time_oracle), converging to the spectral sum as the
    averaging window grows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .lattice import LatticeOperators, discrete_divergence
from .linalg import EigenSystem
from .lindblad import (
    LindbladGenerator,
    Trajectory,
    apply_adjoint,
    sampled_window,
    triangle_convolution,
)
from .reservoir import CorrelationKernel, HalfFourierTable
from .spectral import BohrSpectrum, SpectralOperator, decompose

ORACLE_HORIZON = 20.0


@dataclass(frozen=True)
class ContinuityReport:
    """Densities, currents, sources and continuity residuals along a
    trajectory, one row per stored state.

    times is (T,); site_density, dn_dt, site_lstar_density, residual_raw and
    residual_corrected are (T, N); bond_j_ham and bond_j_diss are (T, N - 1).
    dn_dt is the exact time-derivative of site_density, read off the
    generator.
    """

    times: np.ndarray
    site_density: np.ndarray
    dn_dt: np.ndarray
    site_lstar_density: np.ndarray
    bond_j_ham: np.ndarray
    bond_j_diss: np.ndarray
    residual_raw: np.ndarray
    residual_corrected: np.ndarray


@dataclass(frozen=True)
class JDEngine:
    """Precomputed spectral data for the correction-current sum.

    The resonant bin quadruples are the rows (a_J, a_1, a_2, a_rho) of two
    (n, 4) int arrays of indices into the binned frequencies.  The first
    family satisfies w_J + w_1 - w_2 = 0 with w_rho = 0 and enters with a plus
    sign; the second satisfies w_1 = w_2 with w_rho = -w_J and enters with
    a minus.  Bins with |w_J| at or below the matching tolerance are
    excluded everywhere: their would-be contribution is divergence-free on
    an open chain, so the conservation identity does not miss them.
    jd_observables applies the same two rules elementwise over index
    chains; the arrays record which quadruples resonate and how many.
    """

    bond_currents: tuple
    coupling: SpectralOperator
    gplus: HalfFourierTable
    spectrum: BohrSpectrum
    first_index: np.ndarray
    second_index: np.ndarray

    @property
    def dimension(self) -> int:
        return self.coupling.eig.dimension

    @property
    def n_bonds(self) -> int:
        return len(self.bond_currents)


def _near(w: np.ndarray, targets: np.ndarray, tol: float):
    """(row, col) pairs with w[col] within 2 tol of targets[row].

    w must be sorted.  The window is twice the selection tolerance so that
    rounding in the caller's exact test can never fall outside it; rows
    come out in order, and columns ascend within a row.
    """
    lo = np.searchsorted(w, targets - 2.0 * tol, side="left")
    hi = np.searchsorted(w, targets + 2.0 * tol, side="right")
    counts = hi - lo
    row = np.repeat(np.arange(len(targets)), counts)
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return row, np.arange(int(counts.sum())) + offsets


def _resonant_quadruples(spectrum: BohrSpectrum):
    """Both quadruple families as (n, 4) int arrays, in row-major order over
    the bins.

    A sorted search proposes the candidates; the selection rules are then
    applied with the same float expressions as their definition.
    """
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    n = len(w)
    nonsingular = np.flatnonzero(np.abs(w) > tol)
    zero = np.flatnonzero(np.abs(w) <= tol)

    # first family: w_2 = w_J + w_1 for every (a_J, a_1), any zero a_rho
    aJ = np.repeat(nonsingular, n)
    a1 = np.tile(np.arange(n), len(nonsingular))
    row, a2 = _near(w, w[aJ] + w[a1], tol)
    aJ, a1 = aJ[row], a1[row]
    keep = np.abs(w[aJ] + w[a1] - w[a2]) <= tol
    aJ, a1, a2 = aJ[keep], a1[keep], a2[keep]
    first = np.stack(
        [
            np.repeat(aJ, len(zero)),
            np.repeat(a1, len(zero)),
            np.repeat(a2, len(zero)),
            np.tile(zero, len(aJ)),
        ],
        axis=1,
    )

    # second family: independent pairs a_1 ~ a_2 and a_rho ~ -a_J
    a1, a2 = _near(w, w, tol)
    keep = np.abs(w[a1] - w[a2]) <= tol
    a1, a2 = a1[keep], a2[keep]
    row, ar = _near(w, -w[nonsingular], tol)
    aJ = nonsingular[row]
    keep = np.abs(w[aJ] + w[ar]) <= tol
    aJ, ar = aJ[keep], ar[keep]
    second = np.stack(
        [
            np.repeat(aJ, len(a1)),
            np.tile(a1, len(aJ)),
            np.tile(a2, len(aJ)),
            np.repeat(ar, len(a1)),
        ],
        axis=1,
    )
    return first, second[np.lexsort(second.T[::-1])]


def build_engine(
    ops: LatticeOperators,
    eig: EigenSystem,
    spectrum: BohrSpectrum,
    gplus: HalfFourierTable,
) -> JDEngine:
    """Decompose the bond currents and coupling and index the resonances.

    The coupling is decomposed once and the bond currents share its label
    map, so decompose stays the one binning rule.  The index lists the
    quadruples in row-major order over the sorted bins, so it is
    deterministic.  Raises MissingFrequency when the half-Fourier table
    does not cover the spectrum.
    """
    tol = spectrum.bin_tolerance
    for w in spectrum.frequencies:
        gplus.value_at(w, tol)
    coupling = decompose(ops.v, eig, spectrum)
    bond_sops = tuple(
        replace(coupling, source=eig.to_energy_basis(J)) for J in ops.j_ops
    )
    first, second = _resonant_quadruples(spectrum)
    return JDEngine(
        bond_currents=bond_sops,
        coupling=coupling,
        gplus=gplus,
        spectrum=spectrum,
        first_index=first,
        second_index=second,
    )


def _chain_coefficient(wJ, w1, w2, wr, g2, tol):
    """i gplus(w_2) / w_J times (first-family mask - second-family mask)."""
    nonsingular = np.abs(wJ) > tol
    first = nonsingular & (np.abs(wJ + w1 - w2) <= tol) & (np.abs(wr) <= tol)
    second = nonsingular & (np.abs(w1 - w2) <= tol) & (np.abs(wJ + wr) <= tol)
    sign = first.astype(np.int8) - second.astype(np.int8)
    return 1j * g2 / np.where(nonsingular, wJ, 1.0) * sign


def jd_observables(engine: JDEngine) -> np.ndarray:
    """Site-basis Hermitian matrices O_b with tr(rho O_b) = jd_expectation.

    Every energy-basis entry (i, j) of an operator lies in the single bin
    L[i, j] nearest to E_i - E_j, so the resonant sum is a sum over index
    chains (i, j, k, l).  In the energy basis, with W = w[L], W2 = w[m[L]]
    for the mirror bin m of -w (V_kl is the V_{w_2}^dag factor; bins with
    no mirror within the tolerance drop out) and G2 = gplus(W2),

        A_b[i, l] = sum_jk V_ij J_jk V_kl T(W_jk, W_ij)
                         - J_ij V_jk V_kl T(W_ij, W_jk),
        T(w_J, w_1) = i G2_kl / w_J (F1 - F2),

    where the two selection rules hold elementwise, with w_2 = W2_kl and
    w_rho = W_li: F1 is |w_J| > tol, |w_J + w_1 - w_2| <= tol, |w_rho| <= tol;
    F2 is |w_J| > tol, |w_1 - w_2| <= tol, |w_J + w_rho| <= tol.  Then
    O_b = U (A_b + A_b^dag) U^dag.  Returns an (N-1, N, N) stack.
    """
    spectrum = engine.spectrum
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    L = engine.coupling.labels
    mirror = spectrum.nearest(-w)
    found = np.abs(w[mirror] + w) <= tol
    w2 = np.where(found, w[mirror], np.nan)
    g2 = np.zeros(len(w), dtype=complex)
    g2[found] = [engine.gplus.value_at(x, tol) for x in w2[found]]
    W, W2, G2 = w[L], w2[L][None, None], g2[L][None, None]
    Wli = W.T[:, None, None, :]
    T1 = _chain_coefficient(W[None, :, :, None], W[:, :, None, None], W2, Wli, G2, tol)
    T2 = _chain_coefficient(W[:, :, None, None], W[None, :, :, None], W2, Wli, G2, tol)
    V = engine.coupling.source
    J = np.stack([s.source for s in engine.bond_currents])
    A = np.einsum("ij,kl,ijkl,bjk->bil", V, V, T1, J, optimize=True)
    A -= np.einsum("jk,kl,ijkl,bij->bil", V, V, T2, J, optimize=True)
    U = engine.coupling.eig.basis
    return U @ (A + A.conj().transpose(0, 2, 1)) @ U.conj().T


def jd_expectation(engine: JDEngine, rho: np.ndarray) -> np.ndarray:
    """Per-bond correction current of a Hermitian state: tr(rho O_b).

    O_b is the closed-form stack of jd_observables, the resonant spectral
    sum (i / w_J) gplus(w_2) tr[J_{w_J} (V_{w_2}^dag rho_{w_rho} V_{w_1}
    - V_{w_1} V_{w_2}^dag rho_{w_rho})] over both families (the first
    adds, the second subtracts) plus its Hermitian conjugate.  Defined for
    Hermitian rho, where that conjugate is the complex conjugate.
    """
    rho = np.asarray(rho, dtype=complex)
    N = engine.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    return np.einsum("bij,ji->b", jd_observables(engine), rho).real


def jd_observable(engine: JDEngine, bond: int) -> np.ndarray:
    """The correction current of one bond as a Hermitian observable."""
    if not 0 <= bond < engine.n_bonds:
        raise IndexOutOfRange(f"bond {bond} not in [0, {engine.n_bonds})")
    return jd_observables(engine)[bond]


def lstar_density(G: LindbladGenerator, ops: LatticeOperators) -> list:
    """Adjoint-dissipator images of the site densities.

    These are the local source matrices; by unitality they sum to zero.
    """
    if G.dimension != ops.n_sites:
        raise DimensionMismatch(
            f"generator dimension {G.dimension} vs {ops.n_sites} sites"
        )
    return [apply_adjoint(G, n) for n in ops.n_ops]


def jd_cumulative_1d(
    G: LindbladGenerator, ops: LatticeOperators, rho: np.ndarray
) -> np.ndarray:
    """Correction current from the running sum of the source expectations.

    On an open chain the bond values are fixed by requiring that their
    site-wise differences cancel the local source and that both virtual
    outer bonds vanish; unitality makes the two boundary conditions
    compatible.  Bond b carries minus the partial sum of the source over
    sites 0..b.
    """
    rho = np.asarray(rho, dtype=complex)
    N = ops.n_sites
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs {N} sites")
    sources = np.array(
        [np.trace(rho @ L).real for L in lstar_density(G, ops)]
    )
    return -np.cumsum(sources)[:-1]


def jd_finite_time_oracle(
    ops: LatticeOperators,
    eig: EigenSystem,
    spectrum: BohrSpectrum,
    kernel: CorrelationKernel,
    rho: np.ndarray,
    t: float,
    dt: float,
    include_zero_mode: bool = False,
) -> np.ndarray:
    """Correction current from a direct finite-window time average.

    Trapezoidal quadrature of

        -(1/t) int_0^t ds int_0^s du
            tr[ Z_b(s) (V_u rho V_s - V_s V_u rho) ] g(s - u)   + c.c.

    with V_s the interaction-picture coupling and Z_b the bond current's
    phase-integrated spectral sum, Z_b(s) = sum_{w != 0} J_w
    (exp(i w s) - 1)/(i w), plus the s-linear zero-bin term only when
    include_zero_mode is set.  Each energy-basis entry of J_b carries the
    phase factor of its own bin (decompose's labels; no selection rule
    enters), so every bond is traced in one contraction.  The inner
    integral is triangle_convolution's per-bin running trapezoid, and the
    window is walked in the chunks of sampled_window: each chunk's
    trapezoid-weighted traces are added to one (N-1) total, so memory is
    O(chunk N^2 + bins) whatever t is.  With the flag off the values
    approach jd_expectation as t grows, with a 1/t envelope.  The input
    checks of sampled_window apply; t must also reach the averaging
    horizon.
    """
    rho = np.asarray(rho, dtype=complex)
    N = eig.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    coupling = decompose(ops.v, eig, spectrum)
    h, chunks = sampled_window(coupling, kernel, t, dt)
    freqs = spectrum.frequencies
    nonzero = np.abs(freqs) > spectrum.bin_tolerance
    if np.any(nonzero):
        horizon = ORACLE_HORIZON / float(np.min(np.abs(freqs[nonzero])))
        if t < horizon:
            raise ValueError(
                f"t={t:.3g} is below the averaging horizon {horizon:.3g}"
            )
    rho_en = eig.to_energy_basis(rho)
    J_en = eig.basis.conj().T @ np.array(ops.j_ops) @ eig.basis
    i_freqs = 1j * np.where(nonzero, freqs, 1.0)
    total = np.zeros(N - 1, dtype=complex)
    carry = None
    for s, w, g, phase, V_s in chunks:
        C, carry = triangle_convolution(coupling, phase, g, V_s, h, carry)
        CR = (C.reshape(-1, N) @ rho_en).reshape(C.shape)  # one GEMM per chunk
        D = CR @ V_s - V_s @ CR
        zero_mode = s[:, None] if include_zero_mode else 0.0
        zfac = np.where(nonzero, (phase - 1.0) / i_freqs, zero_mode)
        integrand = np.einsum(
            "bij,tji,tij->bt", J_en, D, zfac[:, coupling.labels], optimize=True
        )
        total += (integrand * w).sum(axis=1)
    return 2.0 * (-total / t).real


def divergence_identity_check(
    engine: JDEngine, G: LindbladGenerator, ops: LatticeOperators
) -> float:
    """Max Frobenius deviation of the conservation identity, over sites.

    Assembles every bond observable, forms the site-wise divergence
    matrices, and measures how far they are from cancelling the source
    matrices.  Zero (to rounding) is the module's central theorem; callers
    threshold the returned number.
    """
    obs = jd_observables(engine)
    div = discrete_divergence(list(obs))
    sources = lstar_density(G, ops)
    return max(
        float(np.linalg.norm(d + L)) for d, L in zip(div, sources)
    )


def continuity_report(
    G: LindbladGenerator,
    ops: LatticeOperators,
    engine: JDEngine,
    traj: Trajectory,
) -> ContinuityReport:
    """Densities, currents, and continuity residuals along a trajectory.

    The density time-derivative is evaluated through the generator, not by
    finite differences, so the residuals measure operator identities rather
    than integrator error.  residual_raw should reproduce the source
    expectations exactly; residual_corrected should vanish.  All stored
    states are evaluated at once, and row t of every column belongs to
    traj.times[t].  Each column is a C-contiguous float array of its own,
    so the report pins neither the states nor the complex products.
    """
    if len(traj.states) == 0:
        raise ValueError("trajectory is empty")
    states = np.asarray(traj.states, dtype=complex)
    T, N = len(states), G.dimension
    vecs = states.transpose(0, 2, 1).reshape(T, N * N)
    drho = np.matmul(G.full_matrix(), vecs[:, :, None])
    dn_dt = np.ascontiguousarray(drho[:, :: N + 1, 0].real)
    densities = np.ascontiguousarray(np.diagonal(states, axis1=1, axis2=2).real)

    def traces(stack):
        return np.ascontiguousarray(np.einsum("tij,bji->tb", states, stack).real)

    j_ham = traces(np.array(ops.j_ops))
    lstar = traces(np.array(lstar_density(G, ops)))
    j_diss = traces(jd_observables(engine))
    raw = dn_dt + np.array(discrete_divergence(j_ham.T)).T
    corrected = dn_dt + np.array(discrete_divergence((j_ham + j_diss).T)).T
    return ContinuityReport(
        times=np.array(traj.times, dtype=float),
        site_density=densities,
        dn_dt=dn_dt,
        site_lstar_density=lstar,
        bond_j_ham=j_ham,
        bond_j_diss=j_diss,
        residual_raw=raw,
        residual_corrected=corrected,
    )
