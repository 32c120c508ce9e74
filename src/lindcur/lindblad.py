"""The secular generator: assembly, evolution, steady states, and the
finite-window precursor map used as a convergence oracle.

The dissipator acts on site-basis states.  For each bin frequency w with
coupling component V_w (rotated back to the site basis) it adds

    g_w (V_w^dag rho V_w - V_w V_w^dag rho)
    + conj(g_w) (V_w^dag rho V_w - rho V_w V_w^dag)

with g_w = gplus(w).  Summed over bins this is the standard form

    sum_w gamma_w V_w^dag rho V_w - K rho - rho K^dag,
    gamma_w = 2 Re g_w,   K = sum_w g_w V_w V_w^dag,

which build_generator assembles in one pass over all bins.  Trace
preservation, Hermiticity preservation, and unitality of the adjoint are
exact consequences of this form and are enforced as tested invariants
rather than assumptions.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateKernel,
    DimensionMismatch,
    MissingFrequency,
    NoConvergence,
    PointwiseUndefined,
    PositivityLost,
    PositivityViolation,
    StepTooCoarse,
    StepTooLarge,
)
from .linalg import EigenSystem, SuperOperator, kron_map, superop_adjoint, unvec, vec
from .reservoir import (
    CorrelationKernel,
    HalfFourierTable,
    WhiteNoise,
    resolution_bound,
    sample_kernel,
)
from .spectral import BohrSpectrum, SpectralOperator

logger = logging.getLogger(__name__)

STABILITY_BOUND = 0.1
POSITIVITY_FLOOR = -1e-6
POSITIVITY_CHUNK = 64
KERNEL_CUTOFF = 1e-10
CHUNK_BYTES = 1 << 20  # one (chunk, N, N) complex stack of a streamed window


@dataclass(frozen=True)
class LindbladGenerator:
    """Coherent and dissipative parts of the master-equation generator.

    hamiltonian_part, dissipator and dissipator_adjoint are dense N^2 x N^2
    matrices on column-stacked site-basis operators.  The same generator
    is also held in the energy basis of eig, where it is block-diagonal
    over groups of Bohr bins: block_order lists the flat energy-basis
    positions i * N + j in block order, and blocks holds the blocks as
    (count, m, m) stacks, one per block size m in ascending order, that
    take consecutive runs of block_order.  Entry [b, r, c] of a stack is
    the coefficient of the state's entry at the block's c-th position in
    the image's entry at its r-th position.  evolve and steady_state work
    on the blocks.
    """

    dimension: int
    hamiltonian_part: SuperOperator
    dissipator: SuperOperator
    frequencies_used: BohrSpectrum
    gplus_used: HalfFourierTable
    dissipator_adjoint: SuperOperator = field(repr=False)
    eig: EigenSystem = field(repr=False)
    block_order: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)

    def full_matrix(self) -> np.ndarray:
        return self.hamiltonian_part.matrix + self.dissipator.matrix

    def apply_full(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for the given state."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dimension, self.dimension):
            raise DimensionMismatch(
                f"state shape {rho.shape} vs dimension {self.dimension}"
            )
        return unvec(self.full_matrix() @ vec(rho), self.dimension)


@dataclass(frozen=True)
class Trajectory:
    """States at every integrator step, with per-step correction logs."""

    times: np.ndarray
    states: list
    herm_defects: np.ndarray
    trace_defects: np.ndarray


def validate_density(rho: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check the density-matrix invariants and return the array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {rho.shape}")
    if n is not None and rho.shape[0] != n:
        raise DimensionMismatch(f"state shape {rho.shape} vs dimension {n}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("state is not Hermitian within 1e-10")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("state trace differs from 1 by more than 1e-10")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -1e-9:
        raise PositivityLost("state has an eigenvalue below -1e-9")
    return rho


def build_generator(
    V: SpectralOperator,
    gplus: HalfFourierTable,
    H: EigenSystem,
    positivity_tol: float = 1e-10,
) -> LindbladGenerator:
    """Assemble the generator from the coupling components and bath table.

    The dense site-basis matrices are assembled in one pass over all bins,
    and the energy-basis blocks straight from V's label map (see
    _bohr_blocks).

    Raises MissingFrequency when the table lacks a bin of V's spectrum and
    PositivityViolation when any damping rate 2 Re gplus is negative beyond
    positivity_tol.
    """
    N = H.dimension
    spectrum = V.spectrum
    tol = spectrum.bin_tolerance
    rates = []
    for w in spectrum.frequencies:
        rates.append(gplus.value_at(w, tol))
    rates = np.array(rates)
    bad = spectrum.frequencies[2.0 * rates.real < -positivity_tol]
    if len(bad):
        raise PositivityViolation(
            f"negative damping rate at frequencies {bad.tolist()}"
        )
    U = H.basis
    Hmat = H.matrix()
    ident = np.eye(N, dtype=complex)
    ham = -1j * (kron_map(Hmat, ident) - kron_map(ident, Hmat))
    # the per-bin components V_w, stacked here only for this assembly
    rows, cols = np.indices((N, N))
    comps = np.zeros((len(spectrum), N, N), dtype=complex)
    comps[V.labels, rows, cols] = V.source
    Vs = U @ comps @ U.conj().T
    # K = sum_w g_w V_w V_w^dag; in the energy basis only entries (i, m)
    # and (k, m) of one bin meet: K_ik = sum_m g V_im conj(V_km) over
    # labels[i, m] == labels[k, m]
    same_bin = V.labels[:, None, :] == V.labels[None, :, :]
    K = np.einsum(
        "ikm,im,km->ik", same_bin, rates[V.labels] * V.source, V.source.conj()
    )
    K_site = U @ K @ U.conj().T
    # entry [a, c, b, d] is the coefficient of rho[d, b] in out[c, a]
    jump = np.einsum(
        "k,kba,kdc->acbd", 2.0 * rates.real, Vs, Vs.conj(), optimize=True
    ).reshape(N * N, N * N)
    diss = jump - kron_map(K_site, ident) - kron_map(ident, K_site.conj().T)
    dissipator = SuperOperator(N, diss)
    block_order, blocks = _bohr_blocks(V, rates, K, H.energies)
    return LindbladGenerator(
        dimension=N,
        hamiltonian_part=SuperOperator(N, ham),
        dissipator=dissipator,
        frequencies_used=spectrum,
        gplus_used=gplus,
        dissipator_adjoint=superop_adjoint(dissipator),
        eig=H,
        block_order=block_order,
        blocks=blocks,
    )


def _same_label_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (p, q) of flat positions with labels p and q equal.

    The positions are sorted by label, and each one is repeated once per
    member of its label group and paired with that group's members in turn.
    """
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat)
    reps = counts[flat[order]]
    group_start = np.repeat(np.cumsum(counts)[flat[order]] - reps, reps)
    within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.repeat(order, reps), order[group_start + within]


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node of the connected component of each of the nodes 0..n-1
    of the graph with edges (u, v): propagation of the minimum along the
    edges, with pointer jumping, until nothing changes."""
    root = np.arange(n)
    while True:
        low = root.copy()
        np.minimum.at(low, root[u], root[v])
        np.minimum.at(low, root[v], root[u])
        low = low[low]
        if np.array_equal(low, root):
            return root
        root = low


def _bohr_blocks(
    V: SpectralOperator, rates: np.ndarray, K: np.ndarray, energies: np.ndarray
):
    """The generator in the energy basis as (block_order, blocks).

    In the energy basis the secular generator maps rho_kl to rho_ij through

        jump term     2 Re g_b conj(V_ki) V_lj,  labels[k, i] == labels[l, j] == b
        K rho         -K_ik when l == j
        rho K^dag     -conj(K_jl) when k == i
        Hamiltonian   -i (E_i - E_j) when (k, l) == (i, j)

    with g_b = rates[b] and K, in the energy basis, nonzero only where
    labels[i, m] == labels[k, m] for some m.
    The blocks start as the groups of pairs with one bin label.  Groups are
    merged wherever one of these terms can connect them: a jump-term
    coupling, or an off-diagonal entry of K's pattern.  For a tolerance
    wide enough to bin distinct gaps together, label groups alone are not
    closed under the generator, and the merge keeps the blocks exact.
    Every step is vectorised over pairs and label groups.
    """
    N = len(energies)
    labels, src = V.labels, V.source
    first, second = _same_label_pairs(labels)
    k, i = np.divmod(first, N)
    l, j = np.divmod(second, N)
    # off-diagonal pattern of K: rows a, c that share a label in one column
    shared = (i == j) & (k != l)
    a, c = k[shared], l[shared]
    u = np.concatenate([labels[k, l], labels[a].ravel(), labels[:, a].ravel()])
    v = np.concatenate([labels[i, j], labels[c].ravel(), labels[:, c].ravel()])
    group = _components(len(rates), u, v)[labels.ravel()]
    size = np.bincount(group)[group]
    block_order = np.lexsort((np.arange(N * N), group, size))
    gamma = 2.0 * rates.real
    blocks = []
    start = 0
    for m in np.flatnonzero(np.bincount(size)):
        stop = start + int(np.sum(size == m))
        pos = block_order[start:stop].reshape(-1, m)
        i, j = np.divmod(pos[:, :, None], N)
        k, l = np.divmod(pos[:, None, :], N)
        bin_ki = labels[k, i]
        B = np.where(
            bin_ki == labels[l, j], gamma[bin_ki] * src[k, i].conj() * src[l, j], 0.0
        )
        B -= np.where(l == j, K[i, k], 0.0) + np.where(k == i, K[j, l].conj(), 0.0)
        B -= np.where((k == i) & (l == j), 1j * (energies[i] - energies[j]), 0.0)
        blocks.append(B)
        start = stop
    return block_order, tuple(blocks)


def _block_runs(G: LindbladGenerator):
    """(part, B) for each stack B of G.blocks, with part the slice of
    G.block_order that the stack's blocks take."""
    start = 0
    for B in G.blocks:
        stop = start + B.shape[0] * B.shape[1]
        yield slice(start, stop), B
        start = stop


def apply_adjoint(G: LindbladGenerator, A: np.ndarray) -> np.ndarray:
    """Image of an observable under the dissipator's adjoint.

    Defined through the pairing tr(A . dissipator(rho)) =
    tr(apply_adjoint(A) . rho); the coherent part is deliberately not
    included (its contribution to observables is carried by the current
    operators).
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (G.dimension, G.dimension):
        raise DimensionMismatch(f"operand {A.shape} vs dimension {G.dimension}")
    return G.dissipator_adjoint.apply(A)


def _rk4_step_matrix(M: np.ndarray, h: float) -> np.ndarray:
    """RK4's stability polynomial I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24
    of each square matrix in the stack M, shape (..., m, m).

    Built in Horner form, I + hM(I + hM/2(I + hM/3(I + hM/4))), with three
    batched products.  M is left as it is.
    """
    M = h * M
    diag = np.arange(M.shape[-1])
    P = M / 4.0
    P[..., diag, diag] += 1.0
    spare = np.empty_like(P)
    for k in (3.0, 2.0, 1.0):
        np.matmul(M, P, out=spare)
        spare /= k
        spare[..., diag, diag] += 1.0
        P, spare = spare, P
    return P


def _guard_positivity(chunk: np.ndarray, first: int, h: float) -> None:
    """Raise PositivityLost for the earliest chunk[i], the stored state
    first + i, whose lowest eigenvalue is below POSITIVITY_FLOOR."""
    lows = np.linalg.eigvalsh(chunk).min(axis=1)
    bad = np.flatnonzero(lows < POSITIVITY_FLOOR)
    if len(bad):
        i = int(bad[0])
        raise PositivityLost(f"eigenvalue {lows[i]:.3e} at t={h * (first + i):.6g}")


def evolve(
    G: LindbladGenerator, rho0: np.ndarray, t_final: float, dt: float
) -> Trajectory:
    """Fixed-step classic Runge-Kutta integration of the master equation.

    The generator is linear, so one RK4 step of size h is exactly the
    product with RK4's stability polynomial of hM,

        P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.

    A polynomial of a block-diagonal matrix is block-diagonal, so P is
    formed block by block from G.blocks, and the state is kept in the
    energy basis, in block order.  A step is one batched mat-vec per
    block size, a gather of each entry's mirror (i, j) -> (j, i) to
    re-Hermitize, and a sum over the diagonal positions for the trace: a
    fixed number of numpy calls however many blocks there are, and
    O(sum of m^2) work over the blocks m x m (O(N^2) on a chain with
    distinct gaps, where every block but the N x N population block is
    1 x 1).  The truncation error and the stability bound are RK4's; the
    states differ from a four-stage loop on the dense matrix only by
    rounding.

    Stores the state at every step.  Each stored state is re-Hermitized and
    trace-renormalized; the applied correction magnitudes are recorded in
    the trajectory so drift never disappears silently (the Hermiticity
    correction is measured in the energy basis).  The steps are taken in
    chunks of POSITIVITY_CHUNK.  After each chunk positivity is checked
    with one batched eigvalsh, so at most that many steps are taken past a
    state that has lost it; then the chunk is rotated to the site basis and
    Hermitized there.  Besides the stored states, memory is O(chunk N^2).

    Raises ValueError for dt <= 0 or t_final < 0 (before any matrix is
    built), StepTooLarge when dt violates the stability bound
    dt * ||G.full_matrix()||_inf <= STABILITY_BOUND, and PositivityLost for
    the first state with an eigenvalue below POSITIVITY_FLOOR.
    """
    rho0 = validate_density(rho0, G.dimension)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    norm = float(np.linalg.norm(G.full_matrix(), np.inf))
    if dt * norm > STABILITY_BOUND:
        raise StepTooLarge(
            f"dt * ||generator|| = {dt * norm:.3e} exceeds {STABILITY_BOUND}"
        )
    if t_final == 0:
        return Trajectory(
            times=np.array([0.0]),
            states=[rho0.copy()],
            herm_defects=np.array([0.0]),
            trace_defects=np.array([0.0]),
        )
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    N = G.dimension
    order = G.block_order
    where = np.empty_like(order)
    where[order] = np.arange(N * N)
    mirror = where[(order % N) * N + order // N]
    on_diagonal = np.zeros(N * N, dtype=complex)
    on_diagonal[where[:: N + 1]] = 1.0
    # the state x and its image y under the step, with a view of each run
    # of equal-size blocks
    x = G.eig.to_energy_basis(rho0).ravel()[order]
    y = np.empty_like(x)
    x_real = x.view(float)
    steps = []
    for part, B in _block_runs(G):
        P = _rk4_step_matrix(B, h)
        if B.shape[1] == 1:  # 1 x 1 blocks scale their entries
            steps.append((np.multiply, P.ravel(), x[part], y[part]))
        else:
            shape = (*B.shape[:2], 1)
            x_part, y_part = x[part].reshape(shape), y[part].reshape(shape)
            steps.append((np.matmul, P, x_part, y_part))
    U = G.eig.basis
    states = [rho0.copy()]
    herm_defects = [np.zeros(1)]
    trace_defects = [np.zeros(1)]
    for first in range(1, n_steps + 1, POSITIVITY_CHUNK):
        size = min(POSITIVITY_CHUNK, n_steps + 1 - first)
        raw = np.empty((size, N * N), dtype=complex)
        done = np.empty((size, N * N), dtype=complex)
        traces = np.empty(size)
        for s in range(size):
            for apply, P, x_part, y_part in steps:
                apply(P, x_part, out=y_part)
            raw[s] = y
            # twice the Hermitian part, then one division for both the
            # halving and the trace; dividing the real view by the real
            # trace rounds as a complex division by it does
            np.add(y, y[mirror].conj(), out=x)
            traces[s] = tr = np.dot(on_diagonal, x).real
            x_real /= tr
            done[s] = x
        herm_defects.append(np.max(np.abs(raw - raw[:, mirror].conj()), axis=1))
        trace_defects.append(np.abs(traces / 2.0 - 1.0))
        energy = np.empty_like(done)
        energy[:, order] = done
        energy = energy.reshape(size, N, N)
        _guard_positivity(energy, first, h)
        site = U @ energy @ U.conj().T
        states.extend((site + site.conj().transpose(0, 2, 1)) / 2.0)
    herm_defects = np.concatenate(herm_defects)
    trace_defects = np.concatenate(trace_defects)
    times = h * np.arange(n_steps + 1)
    logger.debug(
        "evolve: %d steps, max herm defect %.3e, max trace defect %.3e",
        n_steps,
        herm_defects.max(),
        trace_defects.max(),
    )
    return Trajectory(
        times=times,
        states=states,
        herm_defects=herm_defects,
        trace_defects=trace_defects,
    )


def steady_state(G: LindbladGenerator) -> np.ndarray:
    """Stationary state from the kernel of the generator's blocks.

    The singular values of the generator are those of its blocks, so the
    kernel is counted over the blocks' SVDs (singular values <= 1e-10).
    It must be one-dimensional; otherwise DegenerateKernel is raised.  On a
    chain with distinct gaps the kernel lies in the N x N population
    block, so this costs O(N^3) where the dense SVD costs O(N^6).  The
    kernel vector is rotated to the site basis, Hermitized and
    trace-normalized; its residual against G.full_matrix() and its
    positivity are verified.
    """
    N = G.dimension
    svals = []
    kernel = np.zeros(N * N, dtype=complex)
    for part, B in _block_runs(G):
        try:
            _, s, vh = np.linalg.svd(B)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        svals.append(s.ravel())
        null = s[:, -1] <= KERNEL_CUTOFF
        kernel[G.block_order[part].reshape(B.shape[:2])[null]] = vh[null, -1].conj()
    svals = np.concatenate(svals)
    n_kernel = int(np.sum(svals <= KERNEL_CUTOFF))
    if n_kernel >= 2:
        raise DegenerateKernel(
            f"{n_kernel} singular values below {KERNEL_CUTOFF}; "
            "the stationary state is not unique"
        )
    if n_kernel == 0:
        raise DegenerateKernel(
            f"smallest singular value {svals.min():.3e} is not numerically zero"
        )
    rho = G.eig.to_site_basis(kernel.reshape(N, N))
    rho = (rho + rho.conj().T) / 2.0
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-8:
        raise DegenerateKernel("kernel vector is traceless; no stationary state")
    rho = rho / tr.real if abs(tr.imag) < abs(tr.real) else rho / tr
    rho = np.asarray(rho, dtype=complex)
    M = G.full_matrix()
    residual = float(np.linalg.norm(M @ vec(rho)))
    bound = 1e-10 * float(np.linalg.norm(M))
    if residual > bound:
        raise NoConvergence(
            f"stationary residual {residual:.3e} exceeds {bound:.3e}"
        )
    low = float(np.min(np.linalg.eigvalsh(rho)))
    if low < -1e-9:
        raise PositivityLost(f"stationary state eigenvalue {low:.3e}")
    return rho


def sampled_window(V: SpectralOperator, k: CorrelationKernel, t: float, dt: float):
    """Grid of n = max(2, ceil(t/dt)) steps h over [0, t], streamed in chunks.

    Returns (h, chunks).  chunks yields (s, w, g, phase, V_s) for
    consecutive runs of grid points s_k = h k: w holds the outer trapezoid
    weights (h, and h/2 at s = 0 and s = t, the ends of the whole window,
    not of a chunk), g the kernel, phase = exp(i w s) for every bin
    frequency w, shape (chunk, bins), and V_s the energy-basis coupling at
    s.  A chunk holds at most CHUNK_BYTES of (chunk, N, N) complex samples,
    so memory does not grow with the window.  Shared by the finite-window
    quadratures.

    Raises, before any sample is taken, PointwiseUndefined, ValueError (t
    or dt not positive) or StepTooCoarse (dt above resolution_bound).
    """
    if isinstance(k, WhiteNoise):
        raise PointwiseUndefined("finite-window quadrature needs a pointwise kernel")
    if t <= 0 or dt <= 0:
        raise ValueError("the window length and dt must be positive")
    bound = resolution_bound(k, V.spectrum)
    if dt > bound:
        raise StepTooCoarse(f"dt={dt:.3e} exceeds the resolution bound {bound:.3e}")
    n = max(2, math.ceil(t / dt))
    h = t / n
    N = V.eig.dimension
    size = max(1, CHUNK_BYTES // (16 * N * N))

    def chunks():
        for start in range(0, n + 1, size):
            s = h * np.arange(start, min(start + size, n + 1))
            w = np.full(len(s), h)
            if start == 0:
                w[0] = h / 2.0
            if start + len(s) == n + 1:
                w[-1] = h / 2.0
            phase = np.exp(1j * np.multiply.outer(s, V.spectrum.frequencies))
            # entry (i, j) of V_s carries the phase of its own bin
            yield s, w, sample_kernel(k, s), phase, phase[:, V.labels] * V.source

    return h, chunks()


def triangle_convolution(
    V: SpectralOperator,
    phase: np.ndarray,
    g: np.ndarray,
    V_s: np.ndarray,
    h: float,
    carry: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid of C(s) = int_0^s g(s - u) V_u du for one chunk of the grid.

    Entry (i, j) of V_u is exp(i w u) V_ij, with w the frequency of the
    entry's bin, so on the grid s_k = h k

        C(s_k)_ij = exp(i w s_k) V_ij * h sum'_{p <= k} g(s_p) exp(-i w s_p),

    where sum' halves the terms p = 0 and p = k: one running trapezoid of
    g(tau) exp(-i w tau) per bin, in O(bins) work per sample and with no
    convolution.  phase, g and V_s are one chunk of sampled_window; carry
    is the running sum returned for the previous chunk, or None when this
    chunk starts the window at s = 0.  Returns the chunk's C, shape
    (chunk, N, N) in the energy basis, and the carry for the next chunk.
    """
    F = g[:, None] * phase.conj()
    if carry is None:
        carry = np.full(F.shape[1], -0.5 * g[0])
    running = carry + np.cumsum(F, axis=0)
    T = h * (running - 0.5 * F)
    return V_s * T[:, V.labels], running[-1]


def _batched_map_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix of X -> sum_s A_s @ X @ B_s on column-stacked X.

    That is sum_s B_s^T kron A_s, formed as one matrix product over the
    sample axis: entry [(l, j), (i, k)] of the product is
    sum_s B_s[l, j] A_s[i, k], reordered to the row (j, i), column (l, k).
    """
    S, N = A.shape[0], A.shape[-1]
    prod = B.reshape(S, N * N).T @ A.reshape(S, N * N)
    return prod.reshape(N, N, N, N).transpose(1, 2, 0, 3).reshape(N * N, N * N)


def pre_lindblad_generator(
    V: SpectralOperator, k: CorrelationKernel, delta: float, dt: float
) -> SuperOperator:
    """Finite-window precursor of the dissipator.

    Averages the second-order map over a window of length delta:

        (1/delta) int_0^delta ds int_0^s du
            [ g(s-u) (V_u rho V_s - V_s V_u rho)
              + conj(g(s-u)) (V_s rho V_u - rho V_u V_s) ]

    with V_t the interaction-picture coupling.  The inner integral is the
    per-bin running trapezoid of triangle_convolution, the outer a
    trapezoid over the window; as the window grows this map approaches the
    secular dissipator like 1/delta.  The window is walked in the chunks
    of sampled_window, whose four terms per sample are written in place
    into two (chunk, 4, N, N) buffers, so besides the N^2 x N^2 result only
    O(chunk N^2) memory is held, whatever delta is.
    """
    h, chunks = sampled_window(V, k, delta, dt)
    U = V.eig.basis
    Uh = U.conj().T
    N = V.eig.dimension
    ident = np.eye(N, dtype=complex)
    M = np.zeros((N * N, N * N), dtype=complex)
    A = B = None
    carry = carry_bar = None
    for s, w, g, phase, V_en in chunks:
        S = len(s)
        if A is None:
            # per sample, in the site basis, A holds (wC, -V_t wC, V_t, -1)
            # and B (V_t, 1, wCbar, wCbar V_t): the four terms sit side by
            # side on the summed axis, so their nearly cancelling products
            # are added next to each other, not as four separately rounded
            # sums
            A = np.empty((S, 4, N, N), dtype=complex)
            B = np.empty((S, 4, N, N), dtype=complex)
            A[:, 3] = -ident
            B[:, 1] = ident
        a, b = A[:S], B[:S]
        w = (w / delta)[:, None, None]
        np.matmul(U @ V_en, Uh, out=a[:, 2])
        b[:, 0] = a[:, 2]
        C, carry = triangle_convolution(V, phase, g, V_en, h, carry)
        np.matmul(U @ (w * C), Uh, out=a[:, 0])
        del C
        Cbar, carry_bar = triangle_convolution(V, phase, np.conj(g), V_en, h, carry_bar)
        np.matmul(U @ (w * Cbar), Uh, out=b[:, 2])
        del Cbar
        np.matmul(a[:, 2], a[:, 0], out=a[:, 1])
        np.negative(a[:, 1], out=a[:, 1])
        np.matmul(b[:, 2], b[:, 0], out=b[:, 3])
        M += _batched_map_sum(a.reshape(-1, N, N), b.reshape(-1, N, N))
        # nothing of this chunk may outlive it while the next one is drawn
        del s, w, g, phase, V_en, a, b
    return SuperOperator(N, M)
