"""Dissipative current correction on an open chain.

Secular dissipation breaks the lattice continuity identity: the density no
longer changes only through the Hamiltonian bond currents, but picks up a
local source term, the adjoint-generator image of the site density.  Because
the chain is one-dimensional and open, that source has a unique bond-wise
antiderivative vanishing at both ends, which defines a correction current
J_D per bond: the correction whose divergence cancels the dissipative
source.  This module builds J_D three independent ways and checks them
against each other:

  * the resonant spectral sum in closed form (the observables O_b of the
    JDEngine, with jd_expectation = tr(rho O_b)).  Each energy-basis
    matrix entry lies in exactly one Bohr bin, so the sum over resonant
    bin quadruples becomes a sum over index chains (i, j, k, l) of the
    energy basis, weighted by two elementwise selection rules on the bins
    of the four factors and contracted in two einsums,
  * the cumulative one-dimensional inversion of the source
    (jd_cumulative_1d),
  * a finite-time-average quadrature that knows nothing about the secular
    limit (jd_finite_time_oracle), converging to the spectral sum as the
    averaging window grows.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .lattice import LatticeOperators, discrete_divergence
from .linalg import EigenSystem
from .lindblad import (
    CHUNK_BYTES,
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
    """Densities, currents, sources and continuity residuals of a
    trajectory or a block of its states, one row per state.

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
    """The decomposed coupling, and the read-only (N - 1, N, N) stacks of
    the energy-basis bond currents and of the site-basis observables O_b.

    first_index and second_index, formed from the spectrum on each access
    (no library path reads them), list the resonant bin quadruples as the
    rows (a_J, a_1, a_2, a_rho) of (n, 4) int arrays of bin indices.  The
    first family satisfies w_J + w_1 - w_2 = 0 with w_rho = 0 and enters
    with a plus sign; the second satisfies w_1 = w_2 with w_rho = -w_J and
    enters with a minus.  Bins with |w_J| at or below the matching
    tolerance are excluded everywhere: their would-be contribution is
    divergence-free on an open chain, so the conservation identity does
    not miss them.  _observables applies the same two rules elementwise.
    """

    coupling: SpectralOperator
    currents: np.ndarray
    observables: np.ndarray

    @property
    def dimension(self) -> int:
        return self.coupling.eig.dimension

    @property
    def n_bonds(self) -> int:
        return len(self.currents)

    @property
    def first_index(self) -> np.ndarray:
        return _resonant_quadruples(self.coupling.spectrum)[0]

    @property
    def second_index(self) -> np.ndarray:
        return _resonant_quadruples(self.coupling.spectrum)[1]


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
    ops: LatticeOperators, coupling: SpectralOperator, gplus: HalfFourierTable
) -> JDEngine:
    """Rotate the bond currents into the eigenbasis of the decomposed
    coupling (decompose's result for ops.v) and form O_b.

    The bond currents are read with the coupling's label map, so decompose
    stays the one binning rule.  Raises MissingFrequency when the
    half-Fourier table does not cover the coupling's spectrum.
    """
    spectrum = coupling.spectrum
    gplus.value_at(spectrum.frequencies, spectrum.bin_tolerance)
    currents = coupling.eig.to_energy_basis(np.array(ops.j_ops))
    currents.flags.writeable = False
    observables = _observables(coupling, currents, gplus)
    observables.flags.writeable = False
    return JDEngine(coupling=coupling, currents=currents, observables=observables)


def _chain_coefficient(wJ, w1, w2, wr, g2, tol):
    """i gplus(w_2) / w_J times (first-family mask - second-family mask)."""
    nonsingular = np.abs(wJ) > tol
    first = nonsingular & (np.abs(wJ + w1 - w2) <= tol) & (np.abs(wr) <= tol)
    second = nonsingular & (np.abs(w1 - w2) <= tol) & (np.abs(wJ + wr) <= tol)
    sign = first.astype(np.int8) - second.astype(np.int8)
    return 1j * g2 / np.where(nonsingular, wJ, 1.0) * sign


def _observables(
    coupling: SpectralOperator, currents: np.ndarray, gplus: HalfFourierTable
) -> np.ndarray:
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
    O_b = U (A_b + A_b^dag) U^dag.  Takes and returns (N-1, N, N) stacks,
    the energy-basis J_b (binned by coupling's labels) and O_b.
    """
    spectrum = coupling.spectrum
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    L = coupling.labels
    mirror = spectrum.nearest(-w)
    found = np.abs(w[mirror] + w) <= tol
    w2 = np.where(found, w[mirror], np.nan)
    g2 = np.zeros(len(w), dtype=complex)
    g2[found] = gplus.value_at(w2[found], tol)
    W, W2, G2 = w[L], w2[L][None, None], g2[L][None, None]
    Wli = W.T[:, None, None, :]
    T1 = _chain_coefficient(W[None, :, :, None], W[:, :, None, None], W2, Wli, G2, tol)
    T2 = _chain_coefficient(W[:, :, None, None], W[None, :, :, None], W2, Wli, G2, tol)
    V = coupling.source
    A = np.einsum("ij,kl,ijkl,bjk->bil", V, V, T1, currents, optimize=True)
    A -= np.einsum("jk,kl,ijkl,bij->bil", V, V, T2, currents, optimize=True)
    U = coupling.eig.basis
    return U @ (A + A.conj().transpose(0, 2, 1)) @ U.conj().T


def jd_expectation(engine: JDEngine, rho: np.ndarray) -> np.ndarray:
    """Per-bond correction current of a Hermitian state: tr(rho O_b).

    O_b is the closed-form stack engine.observables, the resonant spectral
    sum (i / w_J) gplus(w_2) tr[J_{w_J} (V_{w_2}^dag rho_{w_rho} V_{w_1}
    - V_{w_1} V_{w_2}^dag rho_{w_rho})] over both families (the first
    adds, the second subtracts) plus its Hermitian conjugate.  Defined for
    Hermitian rho, where that conjugate is the complex conjugate.
    """
    rho = np.asarray(rho, dtype=complex)
    N = engine.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    return np.einsum("bij,ji->b", engine.observables, rho).real


def jd_observable(engine: JDEngine, bond: int) -> np.ndarray:
    """The correction current of one bond as a Hermitian observable, a copy
    of engine.observables[bond]."""
    if not 0 <= bond < engine.n_bonds:
        raise IndexOutOfRange(f"bond {bond} not in [0, {engine.n_bonds})")
    return engine.observables[bond].copy()


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
    t: float | np.ndarray,
    dt: float,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Correction current from a direct finite-window time average.

    Trapezoidal quadrature of

        -(1/t) int_0^t ds int_0^s du
            tr[ Z_b(s) (V_u rho V_s - V_s V_u rho) ] g(s - u)   + c.c.

    with V_s the interaction-picture coupling and Z_b the bond current's
    phase-integrated spectral sum, Z_b(s) = sum_{w != 0} J_w
    (exp(i w s) - 1)/(i w).  Each energy-basis entry of J_b carries the
    phase factor of its own bin (decompose's labels; no selection rule
    enters).  The inner integral is triangle_convolution's per-bin running
    trapezoid, and the window is walked in the chunks of sampled_window.
    The values approach jd_expectation as t grows, with a 1/t envelope.

    The integrand is evaluated in sampled_window's rotating frame.  With
    P = diag(u_s), V_s = P V conj(P) and C_s = P R_s conj(P) (R_s from
    triangle_convolution), so

        D_s = C_s rho V_s - V_s C_s rho = P E_s,
        E_s = (Y_s P) V conj(P) - V Y_s,   Y_s = R_s conj(P) rho:

    three products with the constant rho and V between O(N^2) elementwise
    phases per sample.  Entry (i, j) of Z's phase factor times the u_j that
    D_ji takes from P is (u_i - u_j)/(i w), so every bond is traced against
    E_s in one (N - 1, N^2) @ (N^2, chunk) product.  The frame phase of
    entry (i, j) is its bin's to rounding where bins are additive, and
    within 3 bin_tolerance s of it otherwise.

    t is one window length or a sorted 1-D array of them.  The integrand
    does not depend on the window length, so the grid of the longest
    window is walked once and the outer trapezoid is kept as a running
    sum; the value of each requested length is read off at the grid point
    nearest to it.  A chunk holds 3 (N, N) stacks per sample, R, Y and E,
    allocated once per call at the first chunk's size and filled in place
    (the per-bin sums of triangle_convolution, the phase factor, the
    broadcast copies of u, conj(u) and 1/(i w) that keep every product
    free of broadcast operands, the integrand and its running sums reuse
    them); with sampled_window's phases that fits CHUNK_BYTES
    (window_chunk).  Besides it memory is O(bins + len(t) (N - 1))
    whatever the lengths are.  For a scalar t returns the (N-1,) values of
    that window; for an array returns (times, values): the grid times
    used, shape (T,), and one row of values per time, shape (T, N-1).
    The input checks of sampled_window apply; every t must reach the
    averaging horizon.
    """
    rho = np.asarray(rho, dtype=complex)
    N = eig.dimension
    if rho.shape != (N, N):
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {N}")
    coupling = decompose(ops.v, eig, spectrum)
    h, ends, chunks = sampled_window(coupling, kernel, t, dt, 3)
    freqs = spectrum.frequencies
    nonzero = np.abs(freqs) > spectrum.bin_tolerance
    if np.any(nonzero):
        horizon = ORACLE_HORIZON / float(np.min(np.abs(freqs[nonzero])))
        shortest = float(np.min(t))
        if shortest < horizon:
            raise ValueError(
                f"t={shortest:.3g} is below the averaging horizon {horizon:.3g}"
            )
    V = coupling.source
    rho_en = eig.to_energy_basis(rho)
    J_en = eig.basis.conj().T @ np.array(ops.j_ops) @ eig.basis
    # row b, column (j, i): J_b[i, j], against entry (j, i) of D_s Z
    J_rows = J_en.transpose(0, 2, 1).reshape(N - 1, N * N)
    # entry [j, i]: 1/(i w) of the bin of (i, j), 0 on the zero bin
    entry_nonzero = nonzero[coupling.labels].T
    inv_iw = np.zeros((N, N), dtype=complex)
    inv_iw[entry_nonzero] = 1.0 / (1j * freqs[coupling.labels].T[entry_nonzero])
    totals = np.empty((len(ends), N - 1), dtype=complex)
    running = np.zeros(N - 1, dtype=complex)  # integrand summed over the samples walked
    head = None  # the integrand at s = 0
    carry = None
    start = 0
    for s, g, phase, u in chunks:
        S = len(s)
        if head is None:  # the first chunk is the longest
            R_buf = np.empty(N * N * S, dtype=complex)
            # Y and E side by side: triangle_convolution's work buffer
            YE_buf = np.empty(2 * N * N * S, dtype=complex)
            Y_buf, E_buf = YE_buf[: N * N * S], YE_buf[N * N * S :]
        Y = Y_buf[: N * N * S].reshape(N, N, S)
        E = E_buf[: N * N * S].reshape(N, N, S)
        ubar = u.conj()
        R, carry = triangle_convolution(coupling, phase, g, h, carry, R_buf, YE_buf)
        # every factor that varies along some axes only is broadcast-copied
        # into a free stack first: numpy's buffered loop would copy a
        # broadcast operand of a small product
        E[...] = ubar
        R *= E  # R conj(P), then Y = R conj(P) rho
        np.matmul(rho_en.T, R, out=Y)
        E[...] = u
        np.multiply(Y, E, out=R)
        np.matmul(V.T, R, out=E)  # (Y P) V conj(P)
        R[...] = ubar
        E *= R
        np.matmul(V, Y.reshape(N, -1), out=R.reshape(N, -1))
        E -= R
        # Y becomes the phase factor of entry [j, i], (u_i - u_j) / (i w)
        Y[...] = u[None, :, :]
        R[...] = u[:, None, :]
        Y -= R
        R[...] = inv_iw[:, :, None]
        Y *= R
        E *= Y
        # R and then Y are free: the integrand and its running sums
        integrand = R_buf[: (N - 1) * S].reshape(N - 1, S)
        np.matmul(J_rows, E.reshape(N * N, -1), out=integrand)
        if head is None:
            head = integrand[:, 0].copy()
        sums = Y_buf[: (N - 1) * S].reshape(N - 1, S)
        np.cumsum(integrand, axis=1, out=sums)
        offset = E_buf[: (N - 1) * S].reshape(N - 1, S)
        offset[...] = running[:, None]
        sums += offset
        here = (ends >= start) & (ends < start + S)
        k = ends[here] - start
        totals[here] = (h * (sums[:, k] - 0.5 * (head[:, None] + integrand[:, k]))).T
        running = sums[:, -1].copy()
        start += S
    used = h * ends
    values = 2.0 * (-totals / used[:, None]).real
    if np.ndim(t) == 0:
        return values[0]
    return used, values


def divergence_identity_check(
    engine: JDEngine, G: LindbladGenerator, ops: LatticeOperators
) -> float:
    """Max Frobenius deviation of the conservation identity, over sites.

    Forms the site-wise divergence matrices of the bond observables
    engine.observables and measures how far they are from cancelling the
    source matrices.  Zero (to rounding) is the module's central theorem;
    callers threshold the returned number.
    """
    div = discrete_divergence(list(engine.observables))
    sources = lstar_density(G, ops)
    return max(
        float(np.linalg.norm(d + L)) for d, L in zip(div, sources)
    )


def continuity_columns(
    G: LindbladGenerator, ops: LatticeOperators, engine: JDEngine
):
    """The continuity report of any stack of states, as a function.

    The fixed observables are stacked once: the N - 1 bond currents, the N
    source matrices of lstar_density and the N - 1 correction-current
    observables engine.observables, as the (N^2, 3N - 2) columns of
    X, each observable transposed, so that a state flattened to a row of
    N^2 entries times X holds all of its traces tr(rho O_b).  The returned
    columns(times, states) maps (k,) times and a (k, N, N) stack of states
    to their ContinuityReport.  Each state's traces are a (1, N^2) @
    (N^2, 3N - 2) product of its own, and apply_full acts on each state
    alone, so a state's row does not depend on the stack it comes in.
    The density time-derivative is evaluated through the generator, not by
    finite differences, so the residuals measure operator identities
    rather than integrator error.
    """
    N = ops.n_sites
    observables = np.concatenate(
        [np.array(ops.j_ops), np.array(lstar_density(G, ops)), engine.observables]
    )
    X = observables.transpose(0, 2, 1).reshape(len(observables), N * N).T

    def columns(times, states) -> ContinuityReport:
        states = np.asarray(states, dtype=complex)
        k = len(states)
        traces = np.matmul(states.reshape(k, 1, N * N), X).reshape(k, -1).real
        j_ham, lstar, j_diss = np.split(traces, [N - 1, 2 * N - 1], axis=1)
        dn_dt = G.apply_full(states).diagonal(axis1=1, axis2=2).real
        return ContinuityReport(
            times=np.asarray(times, dtype=float),
            site_density=np.diagonal(states, axis1=1, axis2=2).real,
            dn_dt=dn_dt,
            site_lstar_density=lstar,
            bond_j_ham=j_ham,
            bond_j_diss=j_diss,
            residual_raw=dn_dt + np.array(discrete_divergence(j_ham.T)).T,
            residual_corrected=dn_dt
            + np.array(discrete_divergence((j_ham + j_diss).T)).T,
        )

    return columns


def continuity_report(
    G: LindbladGenerator,
    ops: LatticeOperators,
    engine: JDEngine,
    traj: Trajectory,
) -> ContinuityReport:
    """Densities, currents, and continuity residuals along a trajectory.

    residual_raw should reproduce the source expectations exactly;
    residual_corrected should vanish.  The columns of continuity_columns
    are taken in pieces of CHUNK_BYTES of states, so no stack of the whole
    trajectory is formed; row t of every column belongs to traj.times[t].
    Each column is a C-contiguous float array of its own, so the report
    pins neither the states nor the complex products.
    """
    if len(traj.states) == 0:
        raise ValueError("trajectory is empty")
    columns = continuity_columns(G, ops, engine)
    times = np.asarray(traj.times, dtype=float)
    size = max(1, CHUNK_BYTES // (16 * G.dimension**2))
    parts = [
        columns(times[t : t + size], traj.states[t : t + size])
        for t in range(0, len(traj.states), size)
    ]
    return ContinuityReport(
        **{
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(ContinuityReport)
        }
    )
