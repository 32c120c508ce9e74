"""Dissipative current correction on an open chain.

Secular dissipation breaks the lattice continuity identity: the density no
longer changes only through the Hamiltonian bond currents, but picks up a
local source term, the adjoint-generator image of the site density.  Because
the chain is one-dimensional and open, that source has a unique bond-wise
antiderivative vanishing at both ends, which defines a correction current
J_D per bond: the correction whose divergence cancels the dissipative
source.  This module builds J_D three independent ways and checks them
against each other:

  * a spectral sum over resonant quadruples of Bohr frequencies
    (jd_expectation, and its linear-form matrix jd_observable),
  * the cumulative one-dimensional inversion of the source
    (jd_cumulative_1d),
  * a finite-time-average quadrature that knows nothing about the secular
    limit (jd_finite_time_oracle), converging to the spectral sum as the
    averaging window grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .lattice import LatticeOperators, discrete_divergence, expectation_report
from .linalg import EigenSystem, unvec, vec
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
class CurrentReport:
    """Densities, currents, sources, and continuity residuals at one time.

    dn_dt is the exact time-derivative of site_density, read off the generator.
    """

    time: float
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

    Quadruples are stored as index tuples (a_J, a_1, a_2, a_rho) into the
    binned frequencies.  The first family satisfies w_J + w_1 - w_2 = 0 with
    w_rho = 0 and enters with a plus sign; the second satisfies w_1 = w_2
    with w_rho = -w_J and enters with a minus.  Bins with |w_J| at or below
    the matching tolerance are excluded everywhere: their would-be
    contribution is divergence-free on an open chain, so the conservation
    identity does not miss them.
    """

    bond_currents: tuple
    coupling: SpectralOperator
    gplus: HalfFourierTable
    spectrum: BohrSpectrum
    first_index: tuple
    second_index: tuple

    @property
    def dimension(self) -> int:
        return self.coupling.eig.dimension

    @property
    def n_bonds(self) -> int:
        return len(self.bond_currents)


def _resonant_quadruples(spectrum: BohrSpectrum):
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    J, A, B, R = np.meshgrid(w, w, w, w, indexing="ij", sparse=True)
    nonsingular = np.abs(J) > tol
    first = nonsingular & (np.abs(J + A - B) <= tol) & (np.abs(R) <= tol)
    second = nonsingular & (np.abs(A - B) <= tol) & (np.abs(J + R) <= tol)

    def to_tuples(mask):
        return tuple(tuple(int(i) for i in q) for q in np.argwhere(mask))

    return to_tuples(first), to_tuples(second)


def build_engine(
    ops: LatticeOperators,
    eig: EigenSystem,
    spectrum: BohrSpectrum,
    gplus: HalfFourierTable,
) -> JDEngine:
    """Decompose the bond currents and coupling and index the resonances.

    The quadruple loop runs over binned frequencies in ascending order
    (row-major over the sorted bins), so the stored index and every
    downstream reduction are deterministic.  Raises MissingFrequency when
    the half-Fourier table does not cover the spectrum.
    """
    tol = spectrum.bin_tolerance
    for w in spectrum.frequencies:
        gplus.value_at(w, tol)
    bond_sops = tuple(decompose(J, eig, spectrum) for J in ops.j_ops)
    coupling = decompose(ops.v, eig, spectrum)
    first, second = _resonant_quadruples(spectrum)
    return JDEngine(
        bond_currents=bond_sops,
        coupling=coupling,
        gplus=gplus,
        spectrum=spectrum,
        first_index=first,
        second_index=second,
    )


def _family_sum(engine: JDEngine, rho_comps: np.ndarray, index) -> np.ndarray:
    """Complex per-bond sum over one quadruple family."""
    w = engine.spectrum.frequencies
    tol = engine.spectrum.bin_tolerance
    V = engine.coupling.components
    J_stack = np.stack([s.components for s in engine.bond_currents])
    total = np.zeros(engine.n_bonds, dtype=complex)
    for aJ, a1, a2, ar in index:
        a2dag = engine.spectrum.index_of(-w[a2])
        if a2dag is None:
            continue
        Vdag = V[a2dag]
        V1 = V[a1]
        P = rho_comps[ar]
        if not (Vdag.any() and V1.any() and P.any()):
            continue
        coeff = 1j * engine.gplus.value_at(w[a2], tol) / w[aJ]
        M = Vdag @ P @ V1 - V1 @ Vdag @ P
        total += coeff * np.einsum("bij,ji->b", J_stack[:, aJ], M)
    return total


def jd_expectation(engine: JDEngine, rho: np.ndarray) -> np.ndarray:
    """Per-bond correction current of a state, by the resonant spectral sum.

    For each indexed quadruple the summand is
    (i / w_J) gplus(w_2) tr[J_{w_J} (V_{w_2}^dag rho_{w_rho} V_{w_1}
    - V_{w_1} V_{w_2}^dag rho_{w_rho})], with V_{w_2}^dag the component at
    -w_2; the first family adds, the second subtracts, and the Hermitian
    conjugate is folded as twice the real part.
    """
    rho = np.asarray(rho, dtype=complex)
    N = engine.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    rho_sop = decompose(rho, engine.coupling.eig, engine.spectrum)
    total = _family_sum(engine, rho_sop.components, engine.first_index)
    total -= _family_sum(engine, rho_sop.components, engine.second_index)
    return 2.0 * total.real


def _unit(N: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((N, N), dtype=complex)
    E[i, j] = 1.0
    return E


def jd_observables(engine: JDEngine) -> np.ndarray:
    """Site-basis Hermitian matrices O_b with tr(rho O_b) = jd_expectation.

    The expectation is a real-linear functional on Hermitian matrices, so it
    is evaluated on the N^2 Hermitian unit combinations (projectors plus the
    symmetric and antisymmetric off-diagonal pairs) and the entries read off
    from the dual pairing.  Returns an (N-1, N, N) stack.
    """
    N = engine.dimension
    obs = np.zeros((engine.n_bonds, N, N), dtype=complex)
    for i in range(N):
        obs[:, i, i] = jd_expectation(engine, _unit(N, i, i))
    for i in range(N):
        for j in range(i + 1, N):
            sym = jd_expectation(engine, _unit(N, i, j) + _unit(N, j, i))
            asym = jd_expectation(
                engine, 1j * (_unit(N, i, j) - _unit(N, j, i))
            )
            obs[:, i, j] = (sym + 1j * asym) / 2.0
            obs[:, j, i] = (sym - 1j * asym) / 2.0
    return obs


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
    include_zero_mode is set.  With the flag off the values approach
    jd_expectation as t grows, with a 1/t envelope.  The input checks of
    sampled_window apply; t must also reach the averaging horizon.
    """
    rho = np.asarray(rho, dtype=complex)
    N = eig.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    coupling = decompose(ops.v, eig, spectrum)
    s, h, g, V_t = sampled_window(coupling, kernel, t, dt)
    freqs = spectrum.frequencies
    nonzero = np.abs(freqs) > spectrum.bin_tolerance
    if np.any(nonzero):
        horizon = ORACLE_HORIZON / float(np.min(np.abs(freqs[nonzero])))
        if t < horizon:
            raise ValueError(
                f"t={t:.3g} is below the averaging horizon {horizon:.3g}"
            )
    C = triangle_convolution(g, V_t, h)
    rho_en = eig.to_energy_basis(rho)
    D = np.einsum("tij,jk,tkl->til", C, rho_en, V_t)
    D -= np.einsum("tij,tjk,kl->til", V_t, C, rho_en)

    zfac = np.zeros((len(freqs), len(s)), dtype=complex)
    for a, w in enumerate(freqs):
        if nonzero[a]:
            zfac[a] = (np.exp(1j * w * s) - 1.0) / (1j * w)
        elif include_zero_mode:
            zfac[a] = s

    out = np.zeros(len(ops.j_ops))
    for b, J in enumerate(ops.j_ops):
        J_sop = decompose(J, eig, spectrum)
        traces = np.einsum("aij,tji->at", J_sop.components, D)
        integrand = np.einsum("at,at->t", zfac, traces)
        out[b] = 2.0 * (-np.trapezoid(integrand, dx=h) / t).real
    return out


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
) -> list:
    """Densities, currents, and continuity residuals along a trajectory.

    The density time-derivative is evaluated through the generator, not by
    finite differences, so the residuals measure operator identities rather
    than integrator error.  residual_raw should reproduce the source
    expectations exactly; residual_corrected should vanish.
    """
    if len(traj.states) == 0:
        raise ValueError("trajectory is empty")
    M = G.full_matrix()
    sources = lstar_density(G, ops)
    obs = jd_observables(engine)
    reports = []
    for time, rho in zip(traj.times, traj.states):
        densities, currents = expectation_report(ops, rho)
        lstar = np.array([np.trace(rho @ L).real for L in sources])
        drho = unvec(M @ vec(rho), G.dimension)
        # astype copies: a stored view would keep all of drho alive
        dn_dt = np.real(np.diag(drho)).astype(float)
        j_diss = np.array([np.trace(rho @ O).real for O in obs])
        raw = dn_dt + np.array(discrete_divergence(currents))
        corrected = dn_dt + np.array(discrete_divergence(currents + j_diss))
        reports.append(
            CurrentReport(
                time=float(time),
                site_density=densities,
                dn_dt=dn_dt,
                site_lstar_density=lstar,
                bond_j_ham=currents,
                bond_j_diss=j_diss,
                residual_raw=raw,
                residual_corrected=corrected,
            )
        )
    return reports
