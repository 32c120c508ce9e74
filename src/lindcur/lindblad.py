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
from .spectral import BohrSpectrum, SpectralOperator, interaction_picture_batch

logger = logging.getLogger(__name__)

STABILITY_BOUND = 0.1
POSITIVITY_FLOOR = -1e-6
POSITIVITY_CHUNK = 64
KERNEL_CUTOFF = 1e-10
CHUNK_BYTES = 1 << 20  # one (chunk, N, N) complex stack of a streamed window


@dataclass(frozen=True)
class LindbladGenerator:
    """Coherent and dissipative parts of the master-equation generator."""

    dimension: int
    hamiltonian_part: SuperOperator
    dissipator: SuperOperator
    frequencies_used: BohrSpectrum
    gplus_used: HalfFourierTable
    dissipator_adjoint: SuperOperator = field(repr=False)

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
    K = np.einsum("k,kij,klj->il", rates, Vs, Vs.conj())
    # entry [a, c, b, d] is the coefficient of rho[d, b] in out[c, a]
    jump = np.einsum(
        "k,kba,kdc->acbd", 2.0 * rates.real, Vs, Vs.conj(), optimize=True
    ).reshape(N * N, N * N)
    diss = jump - kron_map(K, ident) - kron_map(ident, K.conj().T)
    dissipator = SuperOperator(N, diss)
    return LindbladGenerator(
        dimension=N,
        hamiltonian_part=SuperOperator(N, ham),
        dissipator=dissipator,
        frequencies_used=spectrum,
        gplus_used=gplus,
        dissipator_adjoint=superop_adjoint(dissipator),
    )


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
    """RK4's stability polynomial I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.

    Built in Horner form, I + hM(I + hM/2(I + hM/3(I + hM/4))), with three
    products.  M is overwritten by hM; besides it, two N^2 x N^2 buffers
    are held during the build, and one of them is returned.
    """
    M *= h
    diag = np.diag_indices_from(M)
    P = M / 4.0
    P[diag] += 1.0
    spare = np.empty_like(P)
    for k in (3.0, 2.0, 1.0):
        np.matmul(M, P, out=spare)
        spare /= k
        spare[diag] += 1.0
        P, spare = spare, P
    return P


def _guard_positivity(chunk: list, first: int, h: float) -> None:
    """Raise PositivityLost for the earliest chunk[i], the stored state
    first + i, whose lowest eigenvalue is below POSITIVITY_FLOOR."""
    lows = np.linalg.eigvalsh(np.array(chunk)).min(axis=1)
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

        P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,

    and P is formed once: each step is then one mat-vec instead of four.
    The truncation error and the stability bound are RK4's; the states
    differ from a four-stage loop only by rounding.  Building P takes
    three N^2 x N^2 matrix products and holds M = G.full_matrix() plus
    two more N^2 x N^2 complex buffers; only P outlives the build.  Each
    step saves three mat-vecs, so P pays for itself after about as many
    steps as one product costs mat-vecs: about 100-120 at N = 20 and
    about 240-270 at N = 40 (one BLAS thread).

    Stores the state at every step.  Each stored state is re-Hermitized and
    trace-renormalized; the applied correction magnitudes are recorded in
    the trajectory so drift never disappears silently.  Positivity is
    checked on the stored states in chunks of POSITIVITY_CHUNK with one
    batched eigvalsh, so at most that many steps are taken past a state
    that has lost it.

    Raises ValueError for dt <= 0 or t_final < 0 (before any matrix is
    built), StepTooLarge when dt violates the stability bound, and
    PositivityLost for the first state with an eigenvalue below
    POSITIVITY_FLOOR.
    """
    rho0 = validate_density(rho0, G.dimension)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    M = G.full_matrix()
    norm = float(np.linalg.norm(M, np.inf))
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
    P = _rk4_step_matrix(M, h)
    del M
    states = [rho0.copy()]
    herm_defects = [0.0]
    trace_defects = [0.0]
    checked = 1
    r = vec(rho0)
    for step in range(1, n_steps + 1):
        rho = unvec(P @ r, G.dimension)
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        rho = (rho + rho.conj().T) / 2.0
        tr = float(np.trace(rho).real)
        trace_defects.append(abs(tr - 1.0))
        herm_defects.append(herm)
        rho = rho / tr
        states.append(rho)
        if step - checked + 1 == POSITIVITY_CHUNK or step == n_steps:
            _guard_positivity(states[checked:], checked, h)
            checked = step + 1
        r = vec(rho)
    times = h * np.arange(n_steps + 1)
    logger.debug(
        "evolve: %d steps, max herm defect %.3e, max trace defect %.3e",
        n_steps,
        max(herm_defects),
        max(trace_defects),
    )
    return Trajectory(
        times=times,
        states=states,
        herm_defects=np.array(herm_defects),
        trace_defects=np.array(trace_defects),
    )


def steady_state(G: LindbladGenerator) -> np.ndarray:
    """Stationary state from the kernel of the full generator matrix.

    The kernel must be one-dimensional (singular values <= 1e-10 counted);
    otherwise DegenerateKernel is raised.  The kernel vector is Hermitized
    and trace-normalized, and its residual and positivity are verified.
    """
    M = G.full_matrix()
    try:
        _, svals, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    n_kernel = int(np.sum(svals <= KERNEL_CUTOFF))
    if n_kernel >= 2:
        raise DegenerateKernel(
            f"{n_kernel} singular values below {KERNEL_CUTOFF}; "
            "the stationary state is not unique"
        )
    if n_kernel == 0:
        raise DegenerateKernel(
            f"smallest singular value {svals[-1]:.3e} is not numerically zero"
        )
    rho = unvec(vh[-1].conj(), G.dimension)
    rho = (rho + rho.conj().T) / 2.0
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-8:
        raise DegenerateKernel("kernel vector is traceless; no stationary state")
    rho = rho / tr.real if abs(tr.imag) < abs(tr.real) else rho / tr
    rho = np.asarray(rho, dtype=complex)
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
            yield s, w, sample_kernel(k, s), phase, interaction_picture_batch(V, s)

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
    of sampled_window, so besides the N^2 x N^2 result only O(chunk N^2)
    memory is held, whatever delta is.
    """
    h, chunks = sampled_window(V, k, delta, dt)
    U = V.eig.basis
    N = V.eig.dimension
    ident = np.eye(N, dtype=complex)
    M = np.zeros((N * N, N * N), dtype=complex)
    carry = carry_bar = None
    for _, w, g, phase, V_en in chunks:
        C, carry = triangle_convolution(V, phase, g, V_en, h, carry)
        Cbar, carry_bar = triangle_convolution(V, phase, np.conj(g), V_en, h, carry_bar)
        w = (w / delta)[:, None, None]
        V_t, wC, wCbar = (U @ X @ U.conj().T for X in (V_en, w * C, w * Cbar))
        eye = np.broadcast_to(ident, V_t.shape)
        # the four terms of a sample sit side by side on the summed axis, so
        # their nearly cancelling products are added next to each other, not
        # as four separately rounded sums
        A = np.stack([wC, -(V_t @ wC), V_t, -eye], axis=1)
        B = np.stack([V_t, eye, wCbar, wCbar @ V_t], axis=1)
        M += _batched_map_sum(A.reshape(-1, N, N), B.reshape(-1, N, N))
    return SuperOperator(N, M)
