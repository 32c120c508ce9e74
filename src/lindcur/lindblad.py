"""The secular generator: assembly, evolution, steady states, and the
finite-window precursor map used as a convergence oracle.

For each bin frequency w with coupling component V_w the dissipator adds

    g_w (V_w^dag rho V_w - V_w V_w^dag rho)
    + conj(g_w) (V_w^dag rho V_w - rho V_w V_w^dag)

with g_w = gplus(w).  Summed over bins this is the standard form

    sum_w gamma_w V_w^dag rho V_w - K rho - rho K^dag,
    gamma_w = 2 Re g_w,   K = sum_w g_w V_w V_w^dag,

which is block-diagonal in the energy basis; build_generator assembles
only its blocks.  Trace preservation, Hermiticity preservation, and
unitality of the adjoint are exact consequences of this form and are
enforced as tested invariants rather than assumptions.
"""
from __future__ import annotations

import logging
import math
import operator
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
)
from .linalg import EigenSystem, SuperOperator
from .reservoir import (
    CorrelationKernel,
    HalfFourierTable,
    WhiteNoise,
    memory_time,
    resolution_bound,
    sample_kernel,
)
from .spectral import SpectralOperator

logger = logging.getLogger(__name__)

EXPM_DEGREE = 14
POSITIVITY_FLOOR = -1e-6
POSITIVITY_CHUNK = 64
KERNEL_CUTOFF = 1e-10
# the working set of one chunk of every streamed loop: a finite window's
# samples (sampled_window), evolve's power tables (which the stepper of
# CheckpointedStates keeps) and continuity_report's pieces of states
CHUNK_BYTES = 1 << 20
WINDOW_FLOOR = 128  # samples per chunk of a finite window, at least
# working bytes per entry of a piece of a finite window's closed-form tail
TAIL_BYTES = 128


@dataclass(frozen=True)
class LindbladGenerator:
    """The master-equation generator as its blocks in the energy basis.

    In the energy basis of eig the generator is block-diagonal over groups
    of Bohr bins: block_order lists the flat energy-basis positions
    i * N + j in block order, and blocks holds the dissipator's blocks as
    (count, m, m) stacks, one per block size m in ascending order, that
    take consecutive runs of block_order.  Entry [b, r, c] of a stack is
    the coefficient of the state's entry at the block's c-th position in
    the image's entry at its r-th position.  These three fields are all it
    holds; dimension is eig's.  _block_runs adds the coherent part.
    full_matrix() and the three SuperOperator properties are dense
    site-basis views on column-stacked operators, formed on each access;
    of the library only verify's pre-Lindblad checks read one
    (dissipator.matrix, the reference of cli._prelindblad_checks).
    """

    eig: EigenSystem = field(repr=False)
    block_order: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.eig.dimension

    def full_matrix(self) -> np.ndarray:
        return _dense(self.apply_full, self.dimension).matrix

    @property
    def hamiltonian_part(self) -> SuperOperator:
        H = self.eig.matrix()
        return _dense(lambda X: -1j * (H @ X - X @ H), self.dimension)

    @property
    def dissipator(self) -> SuperOperator:
        # the adjoint under tr(A . S(B)), no conjugation: T S^T T with T the
        # transpose permutation, an index permutation of the (N, N, N, N) view
        N = self.dimension
        adj = self.dissipator_adjoint.matrix.reshape(N, N, N, N)
        return SuperOperator(N, adj.transpose(3, 2, 1, 0).reshape(N * N, N * N))

    @property
    def dissipator_adjoint(self) -> SuperOperator:
        return _dense(lambda A: apply_adjoint(self, A), self.dimension)

    def apply_full(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for the given state, or for each state of a stack."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.dimension, self.dimension):
            raise DimensionMismatch(
                f"state shape {rho.shape} vs dimension {self.dimension}"
            )
        eig = self.eig
        return eig.to_site_basis(_block_action(self, eig.to_energy_basis(rho)))


class CheckpointedStates:
    """A read-only sequence of evolve's stored states, recomputed on read
    from checkpoints.

    It keeps the Hermitized initial state, the block-order energy-basis
    vector that starts every stride-th chunk of evolve's steps, stride =
    max(1, POSITIVITY_CHUNK // c), and a read-only _Stepper: the power
    tables, the gather maps, U and one (c, N, N) buffer.  Chunk k is
    recomputed by stepping forward from the checkpoint before it with
    _Stepper.step, at most stride - 1 chunks without rotating them, and
    rotating chunk k with _Stepper.rotate: the functions that evolve runs,
    on the same inputs, so every state reads back as the consumer gets it,
    bit for bit.  The last chunk produced and the vector that starts the
    next one are cached, so iteration and ascending pieces compute each
    chunk once.

    An int index, negative included, gives a new (N, N) complex array, a
    slice, with or without a step, a new (k, N, N) one, iteration new
    states, and np.asarray the whole (T, N, N) stack.  Empty (length 0)
    when evolve streamed its states to a consumer.
    """

    def __init__(self, rho0: np.ndarray, length: int, stepper=None):
        self._rho0 = rho0.copy()
        self._rho0.flags.writeable = False
        self._length = length
        self._stepper = stepper
        self._chunk_length = 1 if stepper is None else stepper.length
        self.stride = max(1, POSITIVITY_CHUNK // self._chunk_length)
        self._n_chunks = -(-(length - 1) // self._chunk_length) if length else 0
        self._checkpoints = np.empty(
            (-(-self._n_chunks // self.stride), rho0.size), dtype=complex
        )
        self._cached = (None, None)  # (k, site-basis states of chunk k)
        self._next = (None, None)  # (k, the vector that starts chunk k)

    def _keep(self, k: int, x: np.ndarray) -> None:
        """Record x as the start of chunk k if k is a checkpoint's chunk."""
        if k % self.stride == 0:
            self._checkpoints[k // self.stride] = x

    def _freeze(self) -> None:
        self._checkpoints.flags.writeable = False

    def __len__(self) -> int:
        return self._length

    def _size(self, k: int) -> int:
        return min(self._chunk_length, self._length - 1 - k * self._chunk_length)

    def _chunk(self, k: int) -> np.ndarray:
        """The site-basis states of chunk k, states 1 + k c onwards; the
        array is never written again, so a caller may hold it."""
        cached_k, states = self._cached
        if cached_k == k:
            return states
        self._cached = (None, None)
        start = k - k % self.stride
        x = self._checkpoints[start // self.stride]
        next_k, next_x = self._next
        if next_k is not None and start <= next_k <= k:
            start, x = next_k, next_x
        for j in range(start, k):
            x = self._stepper.step(x, self._size(j))[1]
        energy, x = self._stepper.step(x, self._size(k))[:2]
        states = self._stepper.rotate(energy)
        self._cached = (k, states)
        self._next = (k + 1, x)
        return states

    def _gather(self, index: np.ndarray) -> np.ndarray:
        N = self._rho0.shape[0]
        out = np.empty((len(index), N, N), dtype=complex)
        c = self._chunk_length
        chunk_of = (index - 1) // c  # -1 for the initial state
        for k in np.unique(chunk_of):
            at = chunk_of == k
            out[at] = self._rho0 if k < 0 else self._chunk(int(k))[(index[at] - 1) % c]
        return out

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._gather(np.arange(self._length)[key])
        i = operator.index(key)
        if not -self._length <= i < self._length:
            raise IndexError(f"state {i} of a trajectory of {self._length}")
        return self._gather(np.array([i % self._length]))[0]

    def __iter__(self):
        if self._length:
            yield self._rho0.copy()
        for k in range(self._n_chunks):
            for state in self._chunk(k):
                yield state.copy()

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the stored states cannot be read without a copy")
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)


@dataclass(frozen=True)
class Trajectory:
    """States at every integrator step (CheckpointedStates, empty when
    evolve streamed them to a consumer), with per-step correction logs."""

    times: np.ndarray
    states: CheckpointedStates
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
    """Assemble the generator's energy-basis blocks (_bohr_blocks) from the
    coupling components and bath table, with no N^2 x N^2 matrix.

    Raises MissingFrequency when the table lacks a bin of V's spectrum and
    PositivityViolation when any damping rate 2 Re gplus is negative beyond
    positivity_tol.
    """
    spectrum = V.spectrum
    rates = gplus.value_at(spectrum.frequencies, spectrum.bin_tolerance)
    bad = spectrum.frequencies[2.0 * rates.real < -positivity_tol]
    if len(bad):
        raise PositivityViolation(
            f"negative damping rate at frequencies {bad.tolist()}"
        )
    # K = sum_w g_w V_w V_w^dag; in the energy basis only entries (i, m)
    # and (k, m) of one bin meet: K_ik = sum_m g V_im conj(V_km) over
    # labels[i, m] == labels[k, m]
    same_bin = V.labels[:, None, :] == V.labels[None, :, :]
    K = np.einsum(
        "ikm,im,km->ik", same_bin, rates[V.labels] * V.source, V.source.conj()
    )
    block_order, blocks = _bohr_blocks(V, rates, K)
    return LindbladGenerator(eig=H, block_order=block_order, blocks=blocks)


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


def _bohr_blocks(V: SpectralOperator, rates: np.ndarray, K: np.ndarray):
    """The dissipator in the energy basis as (block_order, blocks).

    In the energy basis the secular generator maps rho_kl to rho_ij through

        jump term     2 Re g_b conj(V_ki) V_lj,  labels[k, i] == labels[l, j] == b
        K rho         -K_ik when l == j
        rho K^dag     -conj(K_jl) when k == i
        Hamiltonian   -i (E_i - E_j) when (k, l) == (i, j), added by _block_runs

    with g_b = rates[b] and K, in the energy basis, nonzero only where
    labels[i, m] == labels[k, m] for some m.
    The blocks start as the groups of pairs with one bin label.  Groups are
    merged wherever one of these terms can connect them: a jump-term
    coupling, or an off-diagonal entry of K's pattern.  For a tolerance
    wide enough to bin distinct gaps together, label groups alone are not
    closed under the generator, and the merge keeps the blocks exact.
    Every step is vectorised over pairs and label groups.
    """
    N = len(K)
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
        blocks.append(B)
        start = stop
    return block_order, tuple(blocks)


def _block_runs(G: LindbladGenerator, adjoint: bool = False):
    """(part, B) per stack of G.blocks: part its slice of G.block_order, B a
    copy with the coherent -i (E_i - E_j) added on the diagonal, or with
    adjoint set the stack, which holds the dissipator alone, transposed."""
    i, j = np.divmod(G.block_order, G.dimension)
    coherent = 1j * (G.eig.energies[i] - G.eig.energies[j])
    start = 0
    for D in G.blocks:
        count, m = D.shape[:2]
        part = slice(start, start + count * m)
        if adjoint:
            yield part, D.transpose(0, 2, 1)
        else:
            B = D.copy()
            B[:, range(m), range(m)] -= coherent[part].reshape(count, m)
            yield part, B
        start = part.stop


def _block_action(G: LindbladGenerator, X: np.ndarray, adjoint: bool = False):
    """The generator's image of each energy-basis matrix of the stack X, or,
    with adjoint set, the image T D^T T under the dissipator's adjoint, T the
    mirror (i, j) -> (j, i): D alone, since cancelling the coherent part
    loses precision on weak baths.  No image depends on the rest of X."""
    N = G.dimension
    order = G.block_order
    if adjoint:
        order = order % N * N + order // N
    x = X.reshape(-1, N * N)[:, order]
    y = np.empty_like(x)
    for part, B in _block_runs(G, adjoint):
        if B.shape[1] == 1:
            y[:, part] = B.ravel() * x[:, part]
        else:
            xp = x[:, part].reshape(len(x), *B.shape[:2], 1)
            y[:, part] = (B @ xp).reshape(len(x), -1)
    return y[:, np.argsort(order)].reshape(X.shape)


def apply_adjoint(G: LindbladGenerator, A: np.ndarray) -> np.ndarray:
    """Image of an observable (or a stack of them) under the dissipator's adjoint.

    Defined through the pairing tr(A . dissipator(rho)) =
    tr(apply_adjoint(A) . rho); the coherent part is deliberately not
    included (its contribution to observables is carried by the current
    operators).
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (G.dimension, G.dimension):
        raise DimensionMismatch(f"operand {A.shape} vs dimension {G.dimension}")
    eig = G.eig
    return eig.to_site_basis(_block_action(G, eig.to_energy_basis(A), adjoint=True))


def _dense(action, N: int) -> SuperOperator:
    """The linear map action of (..., N, N) stacks as an N^2 x N^2 matrix on
    column-stacked operators: its images of the matrix units."""
    units = np.eye(N * N, dtype=complex).reshape(N * N, N, N).transpose(0, 2, 1)
    return SuperOperator(N, action(units).transpose(0, 2, 1).reshape(N * N, -1).T)


def _expm(M: np.ndarray, h: float) -> np.ndarray:
    """exp(hM) of each square matrix in the stack M, shape (..., m, m).

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)): A = hM / 2^s, with the one s of the stack that takes the
    largest 1-norm of A to at most 1/2, then the degree-EXPM_DEGREE Taylor
    polynomial of A in Horner form, I + A(I + A/2(I + ... (I + A/14))),
    squared s times.  The Taylor remainder is about 0.5^15 / 15! = 2.3e-17
    in norm, under the rounding of one product.  M is left as it is.
    """
    A = h * M
    norm = float(np.max(np.abs(A).sum(axis=-2), initial=0.0))
    s = max(0, math.frexp(2.0 * norm)[1])
    A /= 2.0**s
    diag = np.arange(A.shape[-1])
    P = A / EXPM_DEGREE
    P[..., diag, diag] += 1.0
    spare = np.empty_like(P)
    for k in range(EXPM_DEGREE - 1, 0, -1):
        np.matmul(A, P, out=spare)
        spare /= k
        spare[..., diag, diag] += 1.0
        P, spare = spare, P
    for _ in range(s):
        np.matmul(P, P, out=spare)
        P, spare = spare, P
    return P


def _pieces(size: int, N: int) -> list:
    """Slices that cover range(size) with pieces of 4096 // N^2 states, at
    least one: per-state reductions over a chunk take one piece at a time,
    so their temporaries stay small beside the chunk, and a chunk takes one
    piece up to N = 8."""
    step = max(1, 4096 // (N * N))
    return [slice(a, a + step) for a in range(0, size, step)]


def _guard_positivity(chunk: np.ndarray, first: int, h: float) -> None:
    """Raise PositivityLost for the earliest chunk[i], the stored state
    first + i, whose lowest eigenvalue is below POSITIVITY_FLOOR.

    One batched Cholesky factorisation of piece - POSITIVITY_FLOOR I
    certifies every state of a piece (_pieces) at once; eigvalsh runs only
    for a piece that it rejects, and decides which state, if any, is bad.
    chunk is left as it is.
    """
    diag = np.arange(chunk.shape[-1])
    for part in _pieces(len(chunk), chunk.shape[-1]):
        shifted = chunk[part].copy()
        shifted[:, diag, diag] -= POSITIVITY_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lows = np.linalg.eigvalsh(chunk[part]).min(axis=1)
            bad = np.flatnonzero(lows < POSITIVITY_FLOOR)
            if len(bad):
                i = int(bad[0])
                raise PositivityLost(
                    f"eigenvalue {lows[i]:.3e} at t={h * (first + part.start + i):.6g}"
                ) from None


class _Stepper:
    """evolve's chunk routine for one generator and step h, split in two:
    step, from the vector that starts a chunk to its corrected
    energy-basis states, and rotate, from those to the site basis.

    length is the chunk length c = min(POSITIVITY_CHUNK, CHUNK_BYTES //
    (16 sum of m^2), n_steps) over the blocks m x m, at least 1.  It holds
    read-only copies of all it reads: the power tables P, P^2, ..., P^c of
    each block, P = exp(hB), at most CHUNK_BYTES; the gather maps of the
    mirror (i, j) -> (j, i), the diagonal and the energy basis; and U.  It
    also holds one (c, N, N) complex buffer, in which step leaves the
    chunk's energy-basis states.
    """

    def __init__(self, G: LindbladGenerator, h: float, n_steps: int):
        N = self.dimension = G.dimension
        order = G.block_order
        where = np.empty_like(order)
        where[order] = np.arange(N * N)
        self.mirror = where[(order % N) * N + order // N]
        self.diagonal = where[:: N + 1]
        self.where = where
        entries = sum(B.size for B in G.blocks)
        c = self.length = min(
            POSITIVITY_CHUNK, max(1, CHUNK_BYTES // (16 * entries)), n_steps
        )
        self.tables = []
        for part, B in _block_runs(G):
            P = _expm(B, h)  # before the table, so their peaks do not add up
            table = np.empty((c, *P.shape), dtype=complex)
            table[0] = P
            for k in range(1, c):
                np.matmul(table[k - 1], P, out=table[k])
            self.tables.append((part, table))
        self.basis = G.eig.basis.copy()
        self.basis_adjoint = self.basis.conj().T
        for a in (self.mirror, self.diagonal, where, self.basis, self.basis_adjoint):
            a.flags.writeable = False
        for _, table in self.tables:
            table.flags.writeable = False
        self.buffer = np.empty((c, N * N), dtype=complex)

    def step(self, x: np.ndarray, size: int, defects: bool = False):
        """The size states that follow the block-order energy-basis state x.

        A chunk is one batched product of the table with x, per block size
        (an elementwise product for 1 x 1 blocks).  Every state is then
        re-Hermitized through a gather of each entry's mirror and
        trace-renormalized, all at once.  Returns (energy, x, herm, trace):
        the corrected states in the energy basis, a (size, N, N) view of
        the buffer; the block-order vector of the last one, which starts
        the next chunk; and, with defects set, the two correction
        magnitudes of each state (the Hermiticity defect formed a piece of
        states at a time), else None for both.
        """
        N = self.dimension
        raw = np.empty((size, N * N), dtype=complex)
        for part, table in self.tables:
            count, m = table.shape[1:3]
            if m == 1:  # 1 x 1 blocks scale their entries, a piece at a time
                # as numpy buffers a strided product whole
                powers = table[:size].reshape(size, count)
                for rows in _pieces(size, N):
                    np.multiply(powers[rows], x[part], out=raw[rows, part])
            else:
                y = table[:size] @ x[part].reshape(count, m, 1)
                raw[:, part] = y.reshape(size, -1)
        # twice the Hermitian part, then one division for both the halving
        # and the trace; dividing the real view by the real trace rounds as
        # a complex division by it does
        mirrored = np.take(raw, self.mirror, axis=1, out=self.buffer[:size], mode="clip")
        np.conjugate(mirrored, out=mirrored)
        herm = trace = None
        if defects:
            herm = np.empty(size)
            for part in _pieces(size, N):
                np.max(np.abs(raw[part] - mirrored[part]), axis=1, out=herm[part])
        done = np.add(raw, mirrored, out=raw)
        traces = done[:, self.diagonal].real.sum(axis=1)
        np.divide(done.view(float), traces[:, None], out=done.view(float))
        x = done[-1].copy()
        energy = np.take(done, self.where, axis=1, out=mirrored, mode="clip")
        if defects:
            trace = np.abs(traces / 2.0 - 1.0)
        return energy.reshape(size, N, N), x, herm, trace

    def rotate(self, energy: np.ndarray) -> np.ndarray:
        """The site-basis states (S + S^dag)/2, S = U E U^dag, of the
        (k, N, N) energy-basis stack E, as a new array, Hermitian bit for
        bit; E is overwritten."""
        out = np.matmul(self.basis, energy)
        site = np.matmul(out, self.basis_adjoint, out=energy)
        np.copyto(out, site.transpose(0, 2, 1))
        np.conjugate(out, out=out)
        out += site
        out /= 2.0
        return out


def evolve(
    G: LindbladGenerator,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    consumer=None,
) -> Trajectory:
    """Exact fixed-step propagation of the master equation.

    The generator is linear, so the state after k steps of size h is the
    product with exp(hM)^k.  The exponential of a block-diagonal matrix is
    block-diagonal, so P = exp(hB) is formed once per block (_block_runs,
    _expm), and the state is kept in the energy basis, in block order.
    The steps are taken in chunks of c states (_Stepper): the table P,
    P^2, ..., P^c is formed once per block by repeated products, and a
    chunk is one batched product of the table with the state that starts
    it, re-Hermitized and trace-renormalized; the next chunk starts from
    the last corrected state.  There is no truncation error and no
    stability bound: dt only sets the spacing of the stored states.

    The initial state is replaced by its Hermitian part (rho0 + rho0^dag)/2
    once, after validation, which changes no bit of an exactly Hermitian
    rho0.  The applied correction magnitudes are recorded in the trajectory
    so drift never disappears silently (the Hermiticity correction is
    measured in the energy basis).  After each chunk positivity is
    certified (_guard_positivity), so at most c steps are taken past a
    state that has lost it.

    With consumer set, consumer(times, states) is called with each chunk in
    turn, first the (1, N, N) initial state, then every (k, N, N) new
    stack of certified site-basis states, each rotated and Hermitized
    there as (S + S^dag)/2, which is Hermitian bit for bit, with its (k,)
    times; the trajectory comes back with its times and correction logs and
    no states.  Besides the power tables, at most CHUNK_BYTES, memory is
    then about two (c, N, N) complex stacks: the buffer and one new stack.

    Without it, no state is rotated and none is stored: the trajectory's
    states are CheckpointedStates, which keeps the start of every stride-th
    chunk, stride = max(1, POSITIVITY_CHUNK // c), one vector per 33 to 64
    states, and the _Stepper, and recomputes states on read, bit for bit
    the consumer's.  That is 16 N^2 bytes per stride c states, besides the
    tables and the buffer.

    Raises ValueError for dt <= 0 or t_final < 0 (before any matrix is
    built) and PositivityLost for the first state with an eigenvalue below
    POSITIVITY_FLOOR.
    """
    rho0 = validate_density(rho0, G.dimension)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    rho0 = (rho0 + rho0.conj().T) / 2.0
    n_steps = max(1, math.ceil(t_final / dt - 1e-12)) if t_final > 0 else 0
    h = t_final / max(n_steps, 1)
    times = h * np.arange(n_steps + 1)
    if consumer is not None:
        consumer(times[:1], rho0.copy()[None])
    stepper = _Stepper(G, h, n_steps) if n_steps else None
    if consumer is None:
        states = CheckpointedStates(rho0, n_steps + 1, stepper)
    else:
        states = CheckpointedStates(rho0, 0)
    herm_defects = [np.zeros(1)]
    trace_defects = [np.zeros(1)]
    if n_steps:
        c = stepper.length
        x = G.eig.to_energy_basis(rho0).ravel()[G.block_order]
        for k, first in enumerate(range(1, n_steps + 1, c)):
            size = min(c, n_steps + 1 - first)
            if consumer is None:
                states._keep(k, x)
            energy, x, herm, trace = stepper.step(x, size, defects=True)
            herm_defects.append(herm)
            trace_defects.append(trace)
            _guard_positivity(energy, first, h)
            if consumer is not None:
                consumer(times[first : first + size], stepper.rotate(energy))
    states._freeze()
    herm_defects = np.concatenate(herm_defects)
    trace_defects = np.concatenate(trace_defects)
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
    trace-normalized; its positivity and its residual are verified.  The
    rotation to the energy basis is unitary, so the residual ||L rho|| is
    taken over the blocks, and the bound 1e-10 ||L||_F from the singular
    values.
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
    residual = float(np.linalg.norm(_block_action(G, G.eig.to_energy_basis(rho))))
    bound = 1e-10 * float(np.linalg.norm(svals))
    if residual > bound:
        raise NoConvergence(
            f"stationary residual {residual:.3e} exceeds {bound:.3e}"
        )
    low = float(np.min(np.linalg.eigvalsh(rho)))
    if low < -1e-9:
        raise PositivityLost(f"stationary state eigenvalue {low:.3e}")
    return rho


def _frame_energies(V: SpectralOperator) -> np.ndarray:
    """Bin-centre level energies eps_i = mean_j w[labels[i, j]], shape (N,).

    eps_i - eps_j is the frequency of entry (i, j)'s bin wherever the bins
    are additive, to rounding; it is exactly 0 on the diagonal and for a
    one-bin spectrum.  Each entry's bin centre lies within bin_tolerance of
    its gap (bohr_frequencies), so where bins are not additive eps_i - eps_j
    still lies within 3 bin_tolerance of the entry's bin frequency.
    """
    return np.mean(V.spectrum.frequencies[V.labels], axis=1)


def window_chunk(sample_bytes: int) -> int:
    """Samples per chunk of a streamed window that holds sample_bytes per
    sample: as many as fit in CHUNK_BYTES, but at least WINDOW_FLOOR, so
    that the fixed cost of a chunk's few dozen numpy calls stays small
    beside its arithmetic at large N."""
    return max(WINDOW_FLOOR, CHUNK_BYTES // sample_bytes)


def sampled_window(
    V: SpectralOperator, k: CorrelationKernel, t, dt: float, stacks: int
):
    """The grid of the longest of the windows t, streamed in chunks with its
    phases up to the kernel's memory time.

    t is one window length or a sorted 1-D array of them.  The grid has
    n = max(2, ceil(t_max/dt)) steps h = t_max/n over [0, t_max].  Returns
    (h, ends, n_star, chunks): ends[q] = max(1, rint(t_q/h)) is the grid
    index at which window q ends, n_star = min(n, floor(s*/h) + 1) with s*
    the kernel's memory_time (raised by one where s*/h rounds down onto an
    integer), and chunks yields (s, g, phase, u) for consecutive runs of
    the grid points s_k = h k, k <= n_star, with g the kernel,
    phase = exp(i w s) for every bin frequency w, shape (bins, chunk), and
    u = exp(i eps s) for the frame energies eps of _frame_energies, shape
    (N, chunk).

    From s_{n_star} on g reads exactly 0 or less than 2^-53 |g(0)|, so the
    inner integral of triangle_convolution stops changing there and each
    quadrature's integrand is a sum of pure exponentials exp(i Omega s) in
    the frame: past n_star the quadratures sum their trapezoid in closed
    form with tail_weights instead of drawing samples.  A pass therefore
    draws at most floor(s*/h) + 2 samples, whatever the window is.

    u is the rotating frame of the interaction picture: the energy-basis
    coupling at s is V_s = diag(u) V diag(conj u), entry (i, j) carrying
    exp(i (eps_i - eps_j) s), which is the phase of the entry's bin to
    rounding where bins are additive and is off by at most
    3 bin_tolerance s otherwise.  Products with V_s are then products with
    the constant V between elementwise phases.

    The phases are stepped: a table exp(i x h k), k < chunk, of every
    frequency x is built once per call, and a chunk starting at s_0 is that
    table times exp(i x s_0), one exp per frequency per chunk, written into
    one buffer that every chunk reuses: a chunk's phase and u are
    overwritten when the next chunk is drawn.  A zero frequency's phase is
    exactly 1.

    stacks is the number of (N, N) complex arrays per sample that the
    caller holds while it works on a chunk.  With the step table and the
    phases (bins + N each), the conjugate of u that the quadratures take
    (N) and s, g and their kin (4), that is
    16 (stacks N^2 + 2 (bins + N) + N + 4) bytes per sample.  The walk is
    cut into as few chunks as window_chunk of that many samples allows,
    all of one length but the last, which may be shorter (the first chunk
    is the longest): the whole working set of a chunk fits in CHUNK_BYTES,
    down to WINDOW_FLOOR samples, whatever the window is, and a walk a
    little longer than one chunk takes buffers of about half a chunk.
    The one sampled pipeline of both finite-window quadratures.

    Raises, before any sample is taken, PointwiseUndefined, ValueError (t
    not a positive number or a sorted 1-D array of them, or dt not
    positive) or StepTooCoarse (dt above resolution_bound).
    """
    if isinstance(k, WhiteNoise):
        raise PointwiseUndefined("finite-window quadrature needs a pointwise kernel")
    lengths = np.atleast_1d(np.asarray(t, dtype=float))
    if (
        lengths.ndim != 1
        or len(lengths) == 0
        or lengths[0] <= 0
        or np.any(np.diff(lengths) < 0)
    ):
        raise ValueError(
            "the window length must be a positive number or a sorted 1-D array of them"
        )
    if dt <= 0:
        raise ValueError("dt must be positive")
    bound = resolution_bound(k, V.spectrum)
    if dt > bound:
        raise StepTooCoarse(f"dt={dt:.3e} exceeds the resolution bound {bound:.3e}")
    n = max(2, math.ceil(lengths[-1] / dt))
    h = lengths[-1] / n
    ends = np.maximum(np.rint(lengths / h).astype(int), 1)
    memory = memory_time(k)
    n_star = math.floor(memory / h) + 1
    if h * n_star <= memory:  # s_k = h k, as the chunks compute it
        n_star += 1
    n_star = min(n, n_star)
    N = V.eig.dimension
    rates = np.concatenate([V.spectrum.frequencies, _frame_energies(V)])
    largest = window_chunk(16 * (stacks * N * N + 2 * len(rates) + N + 4))
    # as few chunks as the largest allows, of equal length
    size = -(-(n_star + 1) // -(-(n_star + 1) // largest))
    steps = np.multiply.outer(rates, h * np.arange(size)) * 1j
    np.exp(steps, out=steps)
    buffer = np.empty(steps.size, dtype=complex)
    bins = len(V.spectrum)

    def chunks():
        for start in range(0, n_star + 1, size):
            s = h * np.arange(start, min(start + size, n_star + 1))
            phases = buffer[: len(rates) * len(s)].reshape(len(rates), len(s))
            # the first phases are spread over the chunk before the product,
            # which then takes no broadcast operand (numpy's buffered loop
            # would copy one); a last, shorter chunk takes the table row by
            # row, as a strided view of it would be buffered too
            phases[...] = np.exp(1j * s[0] * rates)[:, None]
            if len(s) == size:
                np.multiply(steps, phases, out=phases)
            else:
                for step, row in zip(steps, phases):
                    np.multiply(step[: len(s)], row, out=row)
            yield s, sample_kernel(k, s), phases[:bins], phases[bins:]

    return h, ends, n_star, chunks()


def endpoint_factor(theta, h: float) -> np.ndarray:
    """h (1 + exp(i theta)) / (2 (exp(i theta) - 1)) = -(i h / 2) cot(theta / 2)
    for each phase step theta, and 0 where theta is 0.

    Where theta != 0 the trapezoid weights of exp(i Omega s) over the grid
    points a..b are this factor times exp(i Omega s_b) - exp(i Omega s_a),
    with theta = Omega h (tail_weights).  Both parts of the cotangent come
    from one complex exp, which keeps sin(theta / 2) accurate for small
    theta."""
    theta = np.asarray(theta, dtype=float)
    half = np.exp(0.5j * theta)
    return -0.5j * h * half.real / np.where(theta == 0.0, np.inf, half.imag)


def tail_weights(omega, h: float, first: int, steps) -> np.ndarray:
    """The trapezoid weights h sum'_{k=first}^{first+m} exp(i omega h k) on
    the grid s_k = h k, sum' halving both end terms, for every frequency of
    omega and count m of steps (broadcast against each other).

    The sum is geometric: h exp(i omega s_first) G(omega h, m) with

        G(theta, m) = (1 + e^{i theta}) / 2 (e^{i theta m} - 1) / (e^{i theta} - 1),

    and G(0, m) = m.  With e^{i theta m} - 1 = 2i sin(theta m / 2)
    e^{i theta m / 2}, the sine taken from a complex exp, the form stays
    accurate where theta m is small.  It is the grid sum a walk over the
    samples takes, in closed form, so the two differ by rounding.  Both
    finite-window quadratures sum their integrand past the kernel's memory
    with it (sampled_window).
    """
    omega = np.asarray(omega, dtype=float)
    theta = omega * h
    turn = np.exp(0.5j * theta * steps)
    weights = np.exp(1j * (h * first) * omega) * turn
    weights *= 2j * turn.imag * endpoint_factor(theta, h)
    return np.where(theta == 0.0, h * np.asarray(steps, dtype=float), weights)


def triangle_convolution(
    V: SpectralOperator,
    phase: np.ndarray,
    g: np.ndarray,
    h: float,
    carry: np.ndarray | None,
    out: np.ndarray,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid of C(s) = int_0^s g(s - u) V_u du for one chunk, less its
    outer phase.

    Entry (i, j) of V_u is exp(i w u) V_ij, with w the frequency of the
    entry's bin, so on the grid s_k = h k

        C(s_k)_ij = exp(i w s_k) R(s_k)_ij,
        R(s_k)_ij = V_ij * h sum'_{p <= k} g(s_p) exp(-i w s_p),

    where sum' halves the terms p = 0 and p = k: one running trapezoid of
    g(tau) exp(-i w tau) per bin, in O(bins) work per sample and with no
    convolution.  phase and g are one chunk of sampled_window; carry is the
    running sum returned for the previous chunk, or None when this chunk
    starts the window at s = 0.  Returns the chunk's R, shape (N, N, chunk)
    in the energy basis, and the carry for the next chunk.  The quadratures
    put the outer phase on in sampled_window's rotating frame,
    C(s) = diag(u) R(s) diag(conj u).

    out and work are flat complex buffers of at least N^2 and 2 N^2 chunk
    entries, allocated once per window by the caller.  R is returned as a
    view of out, the per-bin terms are formed in out before R is gathered
    over them, and work holds the running sums and the broadcast copies,
    so a chunk allocates only its (bins,) carry.  Every factor that varies
    along one axis only is broadcast-copied into work before its product:
    numpy's buffered loop would copy a broadcast operand of a small
    product, beyond the caller's working set.
    """
    N = V.eig.dimension
    bins, S = phase.shape
    F = out[: bins * S].reshape(bins, S)
    running = work[: bins * S].reshape(bins, S)
    spread = work[bins * S : 2 * bins * S].reshape(bins, S)
    np.conjugate(phase, out=F)
    spread[...] = g
    F *= spread
    if carry is None:
        carry = np.full(bins, -0.5 * g[0])
    np.cumsum(F, axis=1, out=running)
    spread[...] = carry[:, None]
    running += spread
    carry = running[:, -1].copy()
    F *= 0.5
    running -= F
    running *= h
    R = out[: N * N * S].reshape(N, N, S)
    # the labels are bin indices, so "clip" never clips; unlike "raise" it
    # gathers straight into out, without a buffer of R's size
    np.take(running, V.labels.ravel(), axis=0, out=R.reshape(N * N, S), mode="clip")
    spread = work[: N * N * S].reshape(N, N, S)
    spread[...] = V.source[:, :, None]
    R *= spread
    return R, carry


def _map_sum(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over samples and terms of B[l, j] A[i, k], for (N, N, S, 4) stacks.

    One matrix product over the summed axis, into out; entry
    [(l, j), (i, k)] of the result, reordered to the row (j, i) and the
    column (l, k), is the matrix of X -> sum A X B on column-stacked X.
    A run of samples of a chunk's buffers is a strided view, not a copy.
    """
    N = A.shape[0]
    return np.matmul(B.reshape(N * N, -1), A.reshape(N * N, -1).T, out=out)


def pre_lindblad_generator(V: SpectralOperator, k: CorrelationKernel, delta, dt: float):
    """Finite-window precursor of the dissipator.

    Averages the second-order map over a window of length delta:

        (1/delta) int_0^delta ds int_0^s du
            [ g(s-u) (V_u rho V_s - V_s V_u rho)
              + conj(g(s-u)) (V_s rho V_u - rho V_u V_s) ]

    with V_t the interaction-picture coupling.  The inner integral is the
    per-bin running trapezoid of triangle_convolution, the outer a
    trapezoid over the window; as the window grows this map approaches the
    secular dissipator like 1/delta.

    The map is accumulated in the energy basis, in sampled_window's
    rotating frame: with Phi_ij = u_i conj(u_j) (exactly 1 where
    eps_i = eps_j) every factor of the four terms is Phi times C, V, V C or
    C V, so the only products are with the constant V.  The window is
    split at sampled_window's n_star, the kernel's memory time.  Up to it
    the terms of each sample are written in place into two (N, N, chunk, 4)
    buffers, side by side on the summed axis, so their nearly cancelling
    products are added next to each other (_map_head).  From it on C and
    its conjugate counterpart are constants R and Rbar in the frame, so
    entry [(l, j), (i, k)] of the map is entry [(l, j), (i, k)] of one
    unit-weight sample of (R, -V R, V, -1) and (V, 1, Rbar, Rbar V) times
    the phase sum at w_lj + w_ik, w_ab = eps_a - eps_b, which tail_weights
    gives in closed form: a window costs about s*/dt samples, and past
    them O(N^4), whatever its length.  The result is rotated to the site
    basis once, with kron(conj U, U).

    A chunk holds 11 (N, N) stacks per sample: the two term buffers, R, its
    product with V and Phi, all allocated once per call at the first
    chunk's size and filled in place (the product with V also takes the
    broadcast copies that keep every product free of broadcast operands,
    and the second term buffer is the convolutions' work); with
    sampled_window's phases that fits CHUNK_BYTES (window_chunk).  The
    closed-form sum takes rows of the map in pieces of CHUNK_BYTES once
    the walk's buffers are released.  Besides them only the (T, N^2, N^2)
    result and two N^2 x N^2 sums are held, whatever delta is.

    delta is one window length or a sorted 1-D array of them.  The
    integrand does not depend on the window length, so the longest window
    is walked once and each window is read off the running sum at the grid
    point nearest its length, divided by the length it integrates.  For a
    scalar delta returns one site-basis N^2 x N^2 matrix on column-stacked
    operators; for an array returns (lengths, maps): the window lengths
    used, shape (T,), and such matrices, shape (T, N^2, N^2).  The input
    checks of sampled_window apply.
    """
    h, ends, n_star, chunks = sampled_window(V, k, delta, dt, 11)
    N = V.eig.dimension
    eps = _frame_energies(V)
    snapshots, R, Rbar = _map_head(V, eps, h, np.minimum(ends, n_star), chunks)
    late = np.flatnonzero(ends > n_star)
    if len(late):
        a = np.stack([R, -V.source @ R, V.source, -np.eye(N)], axis=-1)
        b = np.stack([V.source, np.eye(N), Rbar, Rbar @ V.source], axis=-1)
        unit = _map_sum(a[:, :, None], b[:, :, None], np.empty((N * N, N * N), complex))
        omega = (eps[:, None] - eps[None, :]).ravel()
        rows = max(1, CHUNK_BYTES // (TAIL_BYTES * N * N))
        for r in range(0, N * N, rows):
            part = slice(r, r + rows)
            for q in late:
                weights = tail_weights(
                    omega[part, None] + omega, h, n_star, ends[q] - n_star
                )
                weights *= unit[part]
                snapshots[q, part] += weights
    lengths = h * ends
    K = np.kron(V.eig.basis.conj(), V.eig.basis)
    # each raw is a copy (the transpose does not reshape as a view), so the
    # site-basis map is written back over its own snapshot
    for q, raw in enumerate(snapshots):
        raw = raw.reshape(N, N, N, N).transpose(1, 2, 0, 3).reshape(N * N, N * N)
        snapshots[q] = K @ (raw / lengths[q]) @ K.conj().T
    if np.ndim(delta) == 0:
        return snapshots[0]
    return lengths, snapshots


def _map_head(V: SpectralOperator, eps: np.ndarray, h: float, walked, chunks):
    """The map's running sum over the walked samples, read off at each
    grid index of walked with that sample at half weight, in the energy
    basis with rows (l, j) and columns (i, k): shape (T, N^2, N^2).  Also
    returns R and Rbar, the two convolutions at the last sample."""
    N = V.eig.dimension
    src = V.source
    same = eps[:, None] == eps[None, :]
    ident = np.eye(N, dtype=complex)[:, :, None]
    M = np.zeros((N * N, N * N), dtype=complex)  # rows (l, j), columns (i, k)
    product = np.empty_like(M)
    snapshots = np.empty((len(walked), N * N, N * N), dtype=complex)
    A = None
    carry = carry_bar = None
    start = 0
    for s, g, phase, u in chunks:
        S = len(s)
        if A is None:  # the first chunk is the longest
            A, B = (np.empty(N * N * S * 4, dtype=complex) for _ in range(2))
            R_buf, tmp_buf, phi_buf = (
                np.empty(N * N * S, dtype=complex) for _ in range(3)
            )
            weights = np.full(S, h)
        # per sample, A holds (wC, -V_s wC, V_s, -1) and B (V_s, 1, wCbar,
        # wCbar V_s), each Phi times a product with the constant V; B is
        # the work buffer of both convolutions, so it is filled after them
        a = A[: N * N * S * 4].reshape(N, N, S, 4)
        b = B[: N * N * S * 4].reshape(N, N, S, 4)
        tmp = tmp_buf[: N * N * S].reshape(N, N, S)
        phi = phi_buf[: N * N * S].reshape(N, N, S)
        w = weights[:S]
        w[0] = h / 2.0 if start == 0 else h
        # as in triangle_convolution, a factor that varies along some axes
        # only is copied into tmp before its product
        phi[...] = u[:, None, :]
        tmp[...] = u.conj()[None, :, :]
        phi *= tmp
        phi[same] = 1.0
        R, carry = triangle_convolution(V, phase, g, h, carry, R_buf, B)
        R_last = R[:, :, -1].copy()
        tmp[...] = w
        R *= tmp
        np.multiply(phi, R, out=a[..., 0])
        np.matmul(src, R.reshape(N, -1), out=tmp.reshape(N, -1))
        np.multiply(phi, tmp, out=a[..., 1])
        np.negative(a[..., 1], out=a[..., 1])
        tmp[...] = src[:, :, None]
        np.multiply(phi, tmp, out=a[..., 2])
        a[..., 3] = -ident
        R, carry_bar = triangle_convolution(
            V, phase, np.conj(g), h, carry_bar, R_buf, B
        )
        Rbar_last = R[:, :, -1].copy()
        tmp[...] = w
        R *= tmp
        b[..., 0] = a[..., 2]
        b[..., 1] = ident
        np.multiply(phi, R, out=b[..., 2])
        np.matmul(src.T, R, out=tmp)
        np.multiply(phi, tmp, out=b[..., 3])
        lo = 0
        here_ends = walked[(walked >= start) & (walked < start + S)]
        for end in sorted(set(here_ends.tolist())):
            # the window ending at this sample takes it with half its weight
            here = end - start
            M += _map_sum(a[:, :, lo:here], b[:, :, lo:here], product)
            last = _map_sum(a[:, :, here : here + 1], b[:, :, here : here + 1], product)
            snapshots[walked == end] = M + 0.5 * last
            M += last
            lo = here + 1
        M += _map_sum(a[:, :, lo:], b[:, :, lo:], product)
        start += S
    return snapshots, R_last, Rbar_last
