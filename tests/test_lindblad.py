import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lindcur import (
    BohrSpectrum,
    ChainSpec,
    DegenerateKernel,
    EigenSystem,
    Exponential,
    HalfFourierTable,
    MissingFrequency,
    NoConvergence,
    PointwiseUndefined,
    PositivityLost,
    PositivityViolation,
    SpectralOperator,
    StepTooCoarse,
    WhiteNoise,
    apply_adjoint,
    bohr_frequencies,
    build_chain,
    build_generator,
    decompose,
    default_freq_tol,
    evolve,
    gplus_table,
    hermitian_eigensystem,
    pre_lindblad_generator,
    steady_state,
)
from lindcur import lindblad
from lindcur.lindblad import KERNEL_CUTOFF, _block_runs
from lindcur.reservoir import resolution_bound

from conftest import (
    chain_models,
    components,
    dense_generator,
    make_bundle,
    random_density,
    random_hermitian,
    superop_from_action,
)


def _two_level_flat(gamma=0.3, omega0=10.0):
    """H diagonal in the site basis, transverse coupling, flat noise: the
    inputs (V, gplus, eig) of build_generator."""
    eig = EigenSystem(
        energies=np.array([0.0, omega0]), basis=np.eye(2, dtype=complex)
    )
    spectrum = bohr_frequencies(eig, default_freq_tol(eig))
    gplus = gplus_table(WhiteNoise(gamma), spectrum)
    V = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), eig, spectrum)
    return V, gplus, eig


def _dephasing(gamma=0.25, omega0=10.0):
    eig = EigenSystem(
        energies=np.array([0.0, omega0]), basis=np.eye(2, dtype=complex)
    )
    spectrum = bohr_frequencies(eig, default_freq_tol(eig))
    gplus = gplus_table(WhiteNoise(gamma), spectrum)
    V = decompose(np.diag([1.0, -1.0]), eig, spectrum)
    return build_generator(V, gplus, eig)


def test_flat_noise_rate_equation():
    """Populations obey dp2/dt = gamma (p1 - p2) for the transverse model."""
    gamma = 0.3
    G = build_generator(*_two_level_flat(gamma=gamma))
    for p1, p2 in ((1.0, 0.0), (0.25, 0.75), (0.5, 0.5)):
        drho = G.apply_full(np.diag([p1, p2]).astype(complex))
        np.testing.assert_allclose(
            np.real(np.diag(drho)), [gamma * (p2 - p1), gamma * (p1 - p2)], atol=1e-14
        )


def _per_bin_dissipator(V, gplus, eig):
    """The module docstring's per-bin sum, assembled from its action."""
    U = eig.basis
    tol = V.spectrum.bin_tolerance
    terms = [
        (gplus.value_at(w, tol), U @ Vw @ U.conj().T)
        for w, Vw in zip(V.spectrum.frequencies, components(V))
    ]

    def action(rho):
        out = np.zeros_like(rho)
        for g, Vw in terms:
            Vd = Vw.conj().T
            out += g * (Vd @ rho @ Vw - Vw @ Vd @ rho)
            out += np.conj(g) * (Vd @ rho @ Vw - rho @ Vw @ Vd)
        return out

    return superop_from_action(action, eig.dimension).matrix


@pytest.mark.parametrize("model", ["asym4", "ref4", "white_two_level"])
def test_closed_form_matches_per_bin_sum(request, model):
    if model == "white_two_level":
        bundle = make_bundle(2, [1.0, -1.0], hopping=5.0, kernel=WhiteNoise(0.3))
    else:
        bundle = request.getfixturevalue(model)
    reference = _per_bin_dissipator(bundle.engine.coupling, bundle.gplus, bundle.eig)
    diss = bundle.generator.dissipator.matrix
    assert np.max(np.abs(diss - reference)) <= 1e-13 * np.max(np.abs(reference))


ONE_BIN = {
    "hopping_1e-12": dict(hopping=1e-12),
    "freq_tol_50": dict(potential=[0.3, -0.1, 0.2, 0.0], freq_tol=50.0),
}


@pytest.mark.parametrize("case", sorted(ONE_BIN))
def test_one_bin_spectrum(case):
    """Every gap under the bin tolerance: one bin holds all N^2 entries, no
    quadruple resonates, and the dissipator is the single-bin sum."""
    bundle = make_bundle(4, [0.7, -1.1, 0.4, 0.9], **ONE_BIN[case])
    V = bundle.engine.coupling
    assert len(bundle.spectrum) == 1
    np.testing.assert_array_equal(V.labels, np.zeros((4, 4), dtype=int))
    np.testing.assert_array_equal(components(V)[0], V.source)
    assert bundle.engine.first_index.shape == bundle.engine.second_index.shape == (0, 4)
    assert not np.any(bundle.engine.observables)
    reference = _per_bin_dissipator(V, bundle.gplus, bundle.eig)
    diss = bundle.generator.dissipator.matrix
    assert np.max(np.abs(diss - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert [B.shape for B in bundle.generator.blocks] == [(1, 16, 16)]
    if case == "hopping_1e-12":
        with pytest.raises(DegenerateKernel):
            steady_state(bundle.generator)


def _non_closed():
    """A tolerance wide enough to bin distinct gaps together.

    bohr_frequencies accepts it and gives three bins, but the generator
    couples pairs of different bins: grouping pairs by bin label alone does
    not give closed blocks.
    """
    eig = EigenSystem(
        energies=np.array([-0.9297, -0.75, -0.6817, -0.5686]),
        basis=np.eye(4, dtype=complex),
    )
    spectrum = bohr_frequencies(eig, 0.2821)
    A = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4))
    V = decompose((A + A.T) / 2.0, eig, spectrum)
    return V, gplus_table(WhiteNoise(0.3), spectrum), eig


def _inputs(bundle):
    """The inputs (V, gplus, eig) of a bundle's generator."""
    return bundle.engine.coupling, bundle.gplus, bundle.eig


def _uniform6():
    """Zero potential: mirrored levels give degenerate gaps, so bins hold
    several coherences and the blocks are larger than one."""
    return _inputs(make_bundle(6, [0.7, -1.1, 0.4, 0.9, 0.3, -0.6]))


def _random8():
    chain = np.random.default_rng(8)
    bundle = make_bundle(
        8, chain.uniform(-1.0, 1.0, 8), potential=chain.normal(0.0, 0.3, 8)
    )
    return _inputs(bundle)


# each model gives the inputs (V, gplus, eig) of build_generator
MODELS = {
    "asym4": lambda request: _inputs(request.getfixturevalue("asym4")),
    "ref4": lambda request: _inputs(request.getfixturevalue("ref4")),
    "two_level_flat": lambda request: _two_level_flat(),
    "random8": lambda request: _random8(),
    "uniform6": lambda request: _uniform6(),
    "non_closed": lambda request: _non_closed(),
    "silent": lambda request: _inputs(make_bundle(3, np.zeros(3))),
    **{
        f"one_bin_{case}": lambda request, case=case: _inputs(
            make_bundle(4, [0.7, -1.1, 0.4, 0.9], **ONE_BIN[case])
        )
        for case in ONE_BIN
    },
}


def _with_reference(inputs):
    """The generator built from inputs, and the dense matrix of the same
    generator from the test reference dense_generator."""
    ham, diss = dense_generator(*inputs)
    return build_generator(*inputs), ham.matrix + diss.matrix


def _energy_basis_matrix(M, eig):
    """The dense site-basis matrix M rotated into the energy basis, on the
    row-major flat positions i N + j of the state."""
    N = eig.dimension
    U = eig.basis
    # column-stacked: vec(U^dag X U) = (U^T kron U^dag) vec(X)
    T = np.kron(U.T, U.conj().T)
    M = T @ M @ T.conj().T
    stacked = np.arange(N * N).reshape(N, N).T.ravel()
    return M[np.ix_(stacked, stacked)]


def _block_matrix(G):
    """The N^2 x N^2 matrix of the generator's blocks, the dissipator's
    plus the coherent diagonal, zero outside the blocks."""
    N = G.dimension
    out = np.zeros((N * N, N * N), dtype=complex)
    for part, B in _block_runs(G):
        pos = G.block_order[part].reshape(B.shape[:2])
        out[pos[:, :, None], pos[:, None, :]] = B
    assert part.stop == N * N
    return out


def _assert_blocks_match_dense(inputs):
    G, M = _with_reference(inputs)
    N = G.dimension
    np.testing.assert_array_equal(np.sort(G.block_order), np.arange(N * N))
    sizes = [B.shape[1] for B in G.blocks]
    assert sizes == sorted(set(sizes))
    want = _energy_basis_matrix(M, G.eig)
    assert np.max(np.abs(_block_matrix(G) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_blocks_equal_the_rotated_dense_generator(request, model):
    _assert_blocks_match_dense(MODELS[model](request))


def test_label_groups_alone_are_not_closed():
    inputs = _non_closed()
    G, M = _with_reference(inputs)
    spectrum = inputs[0].spectrum
    assert len(spectrum) == 3
    M = _energy_basis_matrix(M, G.eig)
    w = G.eig.energies
    labels = spectrum.nearest(w[:, None] - w[None, :]).ravel()
    across = labels[:, None] != labels[None, :]
    assert np.max(np.abs(M[across])) > 0.1 * np.max(np.abs(M))
    assert [B.shape for B in G.blocks] == [(1, 16, 16)]


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(chain_models(hoppings=st.sampled_from([1.0, 1e-3, 1e-6, 1e-12])))
def test_blocks_equal_the_rotated_dense_generator_on_generated_chains(bundle):
    _assert_blocks_match_dense(_inputs(bundle))


@st.composite
def label_maps(draw):
    """Any label map, not only the nearest-bin one: the blocks must be exact
    whichever pairs share a bin."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = draw(st.integers(1, n * n))
    eig = EigenSystem(
        energies=np.sort(rng.uniform(-1.0, 1.0, n)), basis=np.eye(n, dtype=complex)
    )
    spectrum = BohrSpectrum(frequencies=np.arange(bins, dtype=float), bin_tolerance=0.1)
    source = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    V = SpectralOperator(source, rng.integers(0, bins, (n, n)), spectrum, eig)
    table = HalfFourierTable(
        frequencies=spectrum.frequencies,
        values=rng.uniform(0.1, 1.0, bins) + 1j * rng.normal(size=bins),
    )
    return V, table, eig


@settings(max_examples=60, derandomize=True, deadline=None)
@given(label_maps())
def test_blocks_are_exact_for_any_label_map(inputs):
    _assert_blocks_match_dense(inputs)


def test_identity_coupling_gives_zero_dissipator(ref4):
    V = decompose(np.eye(4, dtype=complex), ref4.eig, ref4.spectrum)
    G = build_generator(V, ref4.gplus, ref4.eig)
    assert np.max(np.abs(G.dissipator.matrix)) <= 1e-15


def test_zero_bath_table_gives_zero_dissipator(ref4):
    silent = HalfFourierTable(
        frequencies=ref4.spectrum.frequencies.copy(),
        values=np.zeros(len(ref4.spectrum), dtype=complex),
    )
    V = decompose(ref4.ops.v, ref4.eig, ref4.spectrum)
    G = build_generator(V, silent, ref4.eig)
    assert not np.any(G.dissipator.matrix)


def test_generator_structural_invariants(ref4, rng):
    M = ref4.generator.full_matrix()
    for _ in range(20):
        rho = random_density(rng, 4)
        image = ref4.generator.apply_full(rho)
        assert abs(np.trace(image)) <= 1e-12
        np.testing.assert_allclose(image, image.conj().T, atol=1e-12)
    herm = random_hermitian(rng, 4)
    image = ref4.generator.apply_full(herm)
    np.testing.assert_allclose(image, image.conj().T, atol=1e-11)
    assert M.shape == (16, 16)


def test_build_generator_forms_no_dense_matrix():
    """The random chain of the ROADMAP Baseline at N = 48: the blocks take
    O(N^3) memory, where one dense N^2 x N^2 complex matrix is 85 MB."""
    N = 48
    rng = np.random.default_rng(N)
    potential = 0.3 * rng.normal(size=N)
    ops = build_chain(ChainSpec(N, 1.0, potential, rng.uniform(-1.0, 1.0, N)))
    eig = hermitian_eigensystem(ops.h)
    spectrum = bohr_frequencies(eig, default_freq_tol(eig))
    gplus = gplus_table(Exponential(gamma=0.1, kappa=5.0, omega=0.0), spectrum)
    V = decompose(ops.v, eig, spectrum)
    tracemalloc.start()
    try:
        build_generator(V, gplus, eig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_missing_bin_raises(ref4):
    sparse = HalfFourierTable(
        frequencies=np.array([0.0]), values=np.array([1.0 + 0.0j])
    )
    V = decompose(ref4.ops.v, ref4.eig, ref4.spectrum)
    with pytest.raises(MissingFrequency):
        build_generator(V, sparse, ref4.eig)


def test_negative_rate_raises(ref4):
    hostile = HalfFourierTable(
        frequencies=ref4.spectrum.frequencies.copy(),
        values=np.full(len(ref4.spectrum), -1e-3 + 0.0j),
    )
    V = decompose(ref4.ops.v, ref4.eig, ref4.spectrum)
    with pytest.raises(PositivityViolation):
        build_generator(V, hostile, ref4.eig)


def test_adjoint_annihilates_identity(ref4):
    np.testing.assert_allclose(
        apply_adjoint(ref4.generator, np.eye(4, dtype=complex)),
        np.zeros((4, 4)),
        atol=1e-12,
    )


def test_adjoint_trace_pairing(ref4, rng):
    D = ref4.generator.dissipator
    for _ in range(10):
        A = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        image = (D.matrix @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
        lhs = np.trace(A @ image)
        rhs = np.trace(apply_adjoint(ref4.generator, A) @ rho)
        assert abs(lhs - rhs) <= 1e-11


def test_adjoint_of_zero_dissipator(rng):
    bundle = make_bundle(3, np.zeros(3))
    A = random_hermitian(rng, 3)
    assert not np.any(apply_adjoint(bundle.generator, A))


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(chain_models(), st.sampled_from([1.0, 1e-2]))
def test_adjoint_keeps_its_precision_on_weak_baths(bundle, scale):
    """The blocks hold the dissipator alone, so its adjoint never cancels
    the coherent part: on a weak bath that part is far larger than the
    dissipator, and its rounding would swamp the image."""
    coupling = bundle.engine.coupling
    V = dataclasses.replace(coupling, source=scale * coupling.source)
    inputs = (V, bundle.gplus, bundle.eig)
    G = build_generator(*inputs)
    N = G.dimension
    # the adjoint under tr(A . S(B)) is an index transpose of the dense matrix
    diss = dense_generator(*inputs)[1].matrix.reshape(N, N, N, N)
    reference = diss.transpose(3, 2, 1, 0).reshape(N * N, N * N)
    for A in [*bundle.ops.n_ops, random_hermitian(np.random.default_rng(N), N)]:
        want = (reference @ A.reshape(-1, order="F")).reshape(N, N, order="F")
        assert np.max(np.abs(apply_adjoint(G, A) - want)) <= 1e-12 * np.max(np.abs(want))


def test_dephasing_adjoint_damps_only_coherences():
    G = _dephasing(gamma=0.25)
    for r in range(2):
        n = np.zeros((2, 2), dtype=complex)
        n[r, r] = 1.0
        image = apply_adjoint(G, n)
        np.testing.assert_allclose(np.diag(image), 0.0, atol=1e-14)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    image = apply_adjoint(G, X)
    np.testing.assert_allclose(np.diag(image), 0.0, atol=1e-14)
    np.testing.assert_allclose(image, -2.0 * 0.25 * X, atol=1e-14)


def test_evolve_matches_closed_form_relaxation():
    gamma = 0.3
    G = build_generator(*_two_level_flat(gamma=gamma))
    traj = evolve(G, np.diag([1.0, 0.0]).astype(complex), 6.0, 0.004)
    p1 = np.array([rho[0, 0].real for rho in traj.states])
    expected = 0.5 * (1.0 + np.exp(-2.0 * gamma * traj.times))
    np.testing.assert_allclose(p1, expected, atol=1e-8)
    assert np.all(np.diff(p1) <= 0.0)
    np.testing.assert_allclose(p1[-1], 0.5, atol=2e-2)


def test_evolve_keeps_states_valid():
    G = build_generator(*_two_level_flat())
    traj = evolve(G, np.diag([1.0, 0.0]).astype(complex), 2.0, 0.004)
    assert np.max(traj.herm_defects) <= 1e-10
    assert np.max(traj.trace_defects) <= 1e-10
    for rho in traj.states[:: len(traj.states) // 7]:
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_evolve_zero_time_returns_initial_state(ref4):
    rho0 = np.eye(4, dtype=complex) / 4.0
    traj = evolve(ref4.generator, rho0, 0.0, 0.01)
    assert len(traj.states) == 1
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states[0], rho0)


@pytest.mark.parametrize("t_final", [0.0, 1.5])
def test_evolve_consumer_gets_the_stored_states(ref4, t_final):
    """The consumer's chunks, concatenated, are the states evolve stores
    without it, bit for bit; 150 steps end in a partial chunk of 64."""
    rho0 = _site_state(4)
    stored = evolve(ref4.generator, rho0, t_final, 0.01)
    chunks = []
    streamed = evolve(
        ref4.generator, rho0, t_final, 0.01, lambda t, s: chunks.append((t, s))
    )
    assert len(streamed.states) == 0
    for field in ("times", "herm_defects", "trace_defects"):
        np.testing.assert_array_equal(getattr(streamed, field), getattr(stored, field))
    assert [len(t) for t, _ in chunks] == [len(s) for _, s in chunks]
    np.testing.assert_array_equal(np.concatenate([t for t, _ in chunks]), stored.times)
    np.testing.assert_array_equal(
        np.concatenate([s for _, s in chunks]), np.array(stored.states)
    )
    assert len(chunks[0][1]) == 1


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _seven_state_chunks(monkeypatch, G):
    """Set CHUNK_BYTES so that evolve takes chunks of c = 7 states, which
    puts a checkpoint every POSITIVITY_CHUNK // 7 = 9 chunks."""
    entries = sum(B.size for B in G.blocks)
    monkeypatch.setattr(lindblad, "CHUNK_BYTES", 7 * 16 * entries)


def _stored_and_streamed(G, rho0, t_final, dt):
    stored = evolve(G, rho0, t_final, dt)
    chunks = []
    evolve(G, rho0, t_final, dt, lambda t, s: chunks.append(s))
    return stored.states, np.concatenate(chunks)


@pytest.mark.parametrize("n_steps", [63, 64, 65, 129])
@pytest.mark.parametrize("model", ["ref4", "uniform6", "random8"])
def test_stored_states_read_back_as_the_streamed_ones(
    request, monkeypatch, model, n_steps
):
    """Every way of reading the checkpointed store gives the consumer's
    complex states bit for bit: int and negative indices, plain and
    stepped slices, iteration and np.asarray.  Chunks hold 7 states, so
    the 63 to 129 steps take 9 to 19 chunks and one to three checkpoints."""
    G = build_generator(*MODELS[model](request))
    _seven_state_chunks(monkeypatch, G)
    rho0 = random_density(np.random.default_rng(n_steps), G.dimension)
    states, want = _stored_and_streamed(G, rho0, 0.25 * n_steps, 0.25)
    assert states.stride == 9
    assert len(states) == len(want) == n_steps + 1
    for i in (0, 1, n_steps // 2, n_steps, -1, -n_steps - 1):
        _assert_same_bits(states[i], want[i])
    _assert_same_bits(states[np.int64(3)], want[3])
    for part in (slice(None), slice(5, 40), slice(None, None, 7), slice(-9, None, 2)):
        _assert_same_bits(states[part], want[part])
    for i in (n_steps + 1, -n_steps - 2):
        with pytest.raises(IndexError):
            states[i]
    _assert_same_bits(np.array(list(states)), want)
    _assert_same_bits(np.asarray(states), want)
    with pytest.raises(ValueError):
        np.asarray(states, copy=False)


def test_stored_states_read_back_in_any_order(request, monkeypatch):
    """Reads in random order, in reverse, by negative-step slices, after a
    partial iteration and from two interleaved iterators all recompute the
    consumer's states bit for bit, from checkpoints 9 chunks of 7 states
    apart, and every read is a new array."""
    G = build_generator(*MODELS["random8"](request))
    _seven_state_chunks(monkeypatch, G)
    rho0 = random_density(np.random.default_rng(5), G.dimension)
    states, want = _stored_and_streamed(G, rho0, 0.25 * 200, 0.25)
    rng = np.random.default_rng(0)
    for i in rng.permutation(len(want)):
        _assert_same_bits(states[int(i)], want[i])
    for i in range(len(want) - 1, -1, -1):
        _assert_same_bits(states[i], want[i])
    for part in (slice(None, None, -1), slice(150, 3, -13), slice(-1, -80, -2)):
        _assert_same_bits(states[part], want[part])
    partial = iter(states)
    for i in range(100):
        _assert_same_bits(next(partial), want[i])
    _assert_same_bits(states[170], want[170])
    _assert_same_bits(states[30:120], want[30:120])
    _assert_same_bits(np.array(list(partial)), want[100:])
    ahead, behind = iter(states), iter(states)
    for _ in range(80):
        next(ahead)
    for i in range(80, len(want)):
        _assert_same_bits(next(ahead), want[i])
        _assert_same_bits(next(behind), want[i - 80])
    first = states[7]
    first[...] = 0.0
    _assert_same_bits(states[7], want[7])
    for rho in states[5:9]:
        rho[...] = 0.0
    _assert_same_bits(states[5:9], want[5:9])


def test_evolve_takes_the_hermitian_part_of_rho0(ref4):
    """A state Hermitian only within validate_density's 1e-10 starts both
    paths as its Hermitian part, which the store keeps exactly."""
    rng = np.random.default_rng(11)
    rho0 = random_density(rng, 4) + 1e-11j * random_hermitian(rng, 4)
    hermitian = (rho0 + rho0.conj().T) / 2.0
    assert np.max(np.abs(rho0 - hermitian)) > 0.0
    stored = evolve(ref4.generator, rho0, 1.5, 0.01)
    chunks = []
    evolve(ref4.generator, rho0, 1.5, 0.01, lambda t, s: chunks.append(s))
    _assert_same_bits(stored.states[0], hermitian)
    _assert_same_bits(chunks[0][0], hermitian)
    _assert_same_bits(np.asarray(stored.states), np.concatenate(chunks))


def _held_and_peak(fn):
    """Bytes that fn's result holds, and fn's peak, under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held, peak


def _random_chain(N):
    rng = np.random.default_rng(N)
    return make_bundle(N, rng.uniform(-1.0, 1.0, N), potential=rng.normal(0.0, 0.3, N))


def test_stored_evolve_peaks_at_one_chunk_and_its_checkpoints():
    """2 000 stored steps at N = 8, c = 64 states a chunk and a checkpoint
    for each: the peak is the power tables, four (c, N, N) complex stacks
    of one chunk's working set, the checkpoints and the (T,) times and
    correction logs, gathered and concatenated.  No state is stored."""
    N, T = 8, 2000
    coupling = np.random.default_rng(N).uniform(-1.0, 1.0, N)
    G = make_bundle(N, coupling).generator
    entries = sum(B.size for B in G.blocks)
    _, peak = _held_and_peak(lambda: evolve(G, _site_state(N), T * 0.01, 0.01))
    tables = 16 * 64 * entries
    stack = 16 * 64 * N * N
    checkpoints = 16 * N * N * math.ceil(T / 64)
    assert peak <= tables + 4 * stack + checkpoints + 5 * 8 * (T + 1)


@pytest.mark.parametrize(("T", "limit"), [(10, 0.3e6), (3000, 2.5e6)])
def test_stored_evolve_holds_tables_buffer_and_checkpoints(T, limit):
    """After a stored evolve at N = 20 returns, the trajectory holds its
    power tables and buffer, both sized for min(64, T) states, a checkpoint
    per 64 states, U, rho0 and the (T,) times and logs: 0.2 MB for 10
    steps, and 1.6 MB for 3 000, where 3 001 states would take 19.2 MB."""
    N = 20
    G = _random_chain(N).generator
    held, _ = _held_and_peak(lambda: evolve(G, _site_state(N), T * 0.015, 0.015))
    assert held <= limit


def test_streamed_evolve_holds_one_chunk_at_a_time():
    """A streamed evolve at N = 20 (c = 64 states a chunk) peaks within its
    power tables plus two and a half (c, N, N) complex stacks: the buffer
    reused from chunk to chunk and one new stack, which holds the products
    with the tables and then the consumer's states.  The Hermiticity
    defect, the 1 x 1 blocks' products and the positivity certificate are
    formed a few states at a time, so nothing of a chunk is held while the
    next is stepped."""
    N = 20
    G = _random_chain(N).generator
    entries = sum(B.size for B in G.blocks)
    c = min(lindblad.POSITIVITY_CHUNK, max(1, lindblad.CHUNK_BYTES // (16 * entries)))
    assert c == 64
    T = 4 * c + 7  # four whole chunks and a short one
    tracemalloc.start()
    try:
        evolve(G, _site_state(N), T * 0.01, 0.01, lambda times, states: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 16 * c * entries
    stack = 16 * c * N * N
    # half a stack for a piece's temporaries and the O(c N) and O(N^2)
    # arrays beside them: the last block product, the gather indices, the
    # times and the logs
    assert peak <= tables + 2 * stack + stack // 2


def test_evolve_commuting_state_is_constant():
    bundle = make_bundle(3, np.zeros(3))
    traj = evolve(bundle.generator, np.eye(3, dtype=complex) / 3.0, 1.0, 0.01)
    for rho in traj.states:
        np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-12)


def test_evolve_input_validation(ref4):
    rho0 = np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ValueError):
        evolve(ref4.generator, rho0, 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve(ref4.generator, rho0, -1.0, 0.01)
    with pytest.raises(ValueError, match="t_final must be non-negative"):
        evolve(ref4.generator, rho0, -1.0, 1.0)  # checked before any step is formed
    with pytest.raises(ValueError):
        evolve(ref4.generator, np.eye(4, dtype=complex), 1.0, 0.01)  # trace 4
    skew = rho0.copy()
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        evolve(ref4.generator, skew, 1.0, 0.01)


def _site_state(n, site=0):
    rho = np.zeros((n, n), dtype=complex)
    rho[site, site] = 1.0
    return rho


def _expm_steps(M, rho0, t_final, dt):
    """Times and states of evolve's grid from the dense exact propagator
    scipy.linalg.expm(h M) of the reference matrix M, applied step by step."""
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    step = scipy.linalg.expm(h * M)
    r = rho0.reshape(-1, order="F")
    states = [rho0]
    for _ in range(n_steps):
        r = step @ r
        states.append(r.reshape(rho0.shape, order="F"))
    return h * np.arange(n_steps + 1), states


def _assert_exact_steps(inputs, rho0, t_final, dt):
    G, M = _with_reference(inputs)
    got = evolve(G, rho0, t_final, dt)
    times, want = _expm_steps(M, rho0, t_final, dt)
    np.testing.assert_array_equal(got.times, times)
    assert got.herm_defects.shape == got.trace_defects.shape == times.shape
    assert len(got.states) == len(want)
    scale = max(float(np.max(np.abs(rho))) for rho in want)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(got.states, want))
    assert gap <= 1e-12 * scale


@pytest.mark.parametrize(
    "model", ["asym4", "ref4", "two_level_flat", "random8", "uniform6", "non_closed"]
)
def test_exact_steps_match_expm(request, model, rng):
    """Fine, coarse and single steps, and the two-level model at dt = 0.02,
    where dt times the generator's norm is 0.2, all follow the exact
    propagator to rounding."""
    inputs = MODELS[model](request)
    N = inputs[2].dimension
    if model == "two_level_flat":
        rho0 = np.diag([1.0, 0.0]).astype(complex)
    elif model in ("random8", "non_closed"):
        rho0 = random_density(rng, N)
    else:
        rho0 = _site_state(N)
    for t_final, dt in ((3.0, 0.01), (2.0, 0.02), (20.0, 0.5), (20.0, 20.0)):
        _assert_exact_steps(inputs, rho0, t_final, dt)


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    chain_models(hoppings=st.sampled_from([1.0, 1e-3, 1e-6, 1e-12])),
    st.sampled_from([0.01, 0.3, 7.0]),
    st.integers(1, 40),
)
def test_exact_steps_match_expm_on_generated_chains(bundle, dt, n_steps):
    N = bundle.eig.dimension
    rho0 = random_density(np.random.default_rng(N), N)
    _assert_exact_steps(_inputs(bundle), rho0, n_steps * dt, dt)


def test_positivity_guard_stops_at_first_bad_state():
    """A negated dissipator drives a population through zero mid-run.

    The bad generator is built from the bath table with every value
    negated, so its dissipator is exactly -D and its blocks follow.  The
    first bad state is step 671; t = 2.7 ends it in the last, partial chunk
    of the positivity check, t = 50 in a full one.
    """
    V, gplus, eig = _two_level_flat()
    G = build_generator(V, gplus, eig)
    negated = HalfFourierTable(frequencies=gplus.frequencies, values=-gplus.values)
    bad = build_generator(V, negated, eig, positivity_tol=np.inf)
    np.testing.assert_array_equal(bad.dissipator.matrix, -G.dissipator.matrix)
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    for t_final in (2.7, 50.0):
        with pytest.raises(PositivityLost, match=r"^eigenvalue -4\.813e-04 at t=2\.684$"):
            evolve(bad, rho0, t_final, 0.004)
    evolve(bad, rho0, 2.0, 0.004)


@pytest.mark.parametrize("n_steps", [63, 64, 65, 129])
@pytest.mark.parametrize("tables", [None, 5])
@pytest.mark.parametrize("model", ["two_level_flat", "uniform6", "random8"])
def test_exact_steps_across_chunk_boundaries(
    request, monkeypatch, model, tables, n_steps
):
    """Each chunk of stored states is one product of the power table with
    the corrected last state of the chunk before it, and the last chunk may
    be partial.  Chunks hold POSITIVITY_CHUNK = 64 states, or, with tables
    set, CHUNK_BYTES fits only that many powers of the blocks."""
    inputs = MODELS[model](request)
    if tables is not None:
        entries = sum(B.size for B in build_generator(*inputs).blocks)
        monkeypatch.setattr(lindblad, "CHUNK_BYTES", tables * 16 * entries)
    rho0 = random_density(np.random.default_rng(n_steps), inputs[2].dimension)
    _assert_exact_steps(inputs, rho0, 0.25 * n_steps, 0.25)


def test_power_table_stays_within_chunk_bytes():
    """With hopping 1e-12 every gap shares one bin, so the generator is one
    N^2 x N^2 block: 64 KB at N = 8, and 64 powers of it would take 4 MB.
    The chunk is cut to the powers that fit in CHUNK_BYTES, so one step of
    evolve peaks at most CHUNK_BYTES above one exponential of the block."""
    N = 8
    coupling = np.random.default_rng(N).uniform(-1.0, 1.0, N)
    bundle = make_bundle(N, coupling, hopping=1e-12)
    G = bundle.generator
    ((_, B),) = _block_runs(G)
    assert B.shape == (1, N * N, N * N)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_exp = peak(lambda: lindblad._expm(B, 0.01))
    one_step = peak(lambda: evolve(G, _site_state(N), 0.01, 0.01))
    assert one_step <= lindblad.CHUNK_BYTES + one_exp


def _diagonal_chunk(lows):
    """One 3 x 3 diagonal state per entry of lows, with that lowest eigenvalue."""
    chunk = np.zeros((len(lows), 3, 3), dtype=complex)
    chunk[:, range(3), range(3)] = 0.5
    chunk[:, 2, 2] = lows
    return chunk


@pytest.mark.parametrize("low", [-0.99e-6, lindblad.POSITIVITY_FLOOR])
def test_positivity_guard_passes_down_to_the_floor(low):
    """-0.99e-6 passes the Cholesky certificate; at the floor itself the
    factorisation fails and eigvalsh decides."""
    chunk = _diagonal_chunk([0.0, low, 0.1, low])
    lindblad._guard_positivity(chunk, 3, 0.25)
    np.testing.assert_array_equal(chunk, _diagonal_chunk([0.0, low, 0.1, low]))


def test_positivity_guard_names_the_first_state_below_the_floor():
    lows = [0.0, -0.5e-6, lindblad.POSITIVITY_FLOOR, 0.0, 0.2, -1.01e-6, 0.0, -0.3]
    with pytest.raises(PositivityLost, match=r"^eigenvalue -1\.010e-06 at t=2$"):
        chunk = _diagonal_chunk(lows)
        lindblad._guard_positivity(chunk, 3, 0.25)


def test_positivity_guard_searches_piece_by_piece():
    """At N = 20 the certificate takes pieces of 10 states; a piece whose
    factorisation fails at the floor itself passes on to the next, and the
    first bad state of a later piece is named with its own time."""
    lows = np.full(25, 0.1)
    lows[3] = lindblad.POSITIVITY_FLOOR
    lows[[17, 23]] = -2e-6
    chunk = np.zeros((25, 20, 20), dtype=complex)
    chunk[:, range(20), range(20)] = 0.05
    chunk[:, 19, 19] = lows
    with pytest.raises(PositivityLost, match=r"^eigenvalue -2\.000e-06 at t=5$"):
        lindblad._guard_positivity(chunk, 3, 0.25)
    lindblad._guard_positivity(chunk[:15], 3, 0.25)


def _svd_steady_state(inputs):
    """The stationary state from the SVD of the dense reference generator,
    the route that the blocks' SVDs replaced."""
    ham, diss = dense_generator(*inputs)
    M = ham.matrix + diss.matrix
    _, svals, vh = np.linalg.svd(M)
    n_kernel = int(np.sum(svals <= KERNEL_CUTOFF))
    if n_kernel != 1:
        raise DegenerateKernel(f"{n_kernel} singular values below {KERNEL_CUTOFF}")
    N = inputs[2].dimension
    rho = vh[-1].conj().reshape(N, N, order="F")
    rho = (rho + rho.conj().T) / 2.0
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-8:
        raise DegenerateKernel("kernel vector is traceless; no stationary state")
    rho = rho / tr.real if abs(tr.imag) < abs(tr.real) else rho / tr
    residual = float(np.linalg.norm(M @ rho.reshape(-1, order="F")))
    if residual > 1e-10 * float(np.linalg.norm(M)):
        raise NoConvergence(f"stationary residual {residual:.3e}")
    return rho


@pytest.mark.parametrize(
    "model", ["asym4", "two_level_flat", "random8", "uniform6", "non_closed"]
)
def test_block_steady_state_matches_dense_svd(request, model):
    inputs = MODELS[model](request)
    G = build_generator(*inputs)
    assert np.max(np.abs(steady_state(G) - _svd_steady_state(inputs))) <= 1e-12


@pytest.mark.parametrize("model", ["ref4", "silent", "one_bin_hopping_1e-12"])
def test_block_steady_state_refuses_what_the_dense_svd_refuses(request, model):
    inputs = MODELS[model](request)
    with pytest.raises(DegenerateKernel):
        _svd_steady_state(inputs)
    with pytest.raises(DegenerateKernel):
        steady_state(build_generator(*inputs))


def test_steady_state_flat_noise_is_maximally_mixed():
    bundle = make_bundle(2, [1.0, -1.0], hopping=5.0, kernel=WhiteNoise(0.3))
    np.testing.assert_allclose(
        steady_state(bundle.generator), np.eye(2) / 2.0, atol=1e-10
    )


def test_steady_state_unique_and_stationary(asym4):
    rho = steady_state(asym4.generator)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
    assert np.max(np.abs(asym4.generator.apply_full(rho))) <= 1e-12


def test_steady_state_rejects_degenerate_kernels(ref4):
    with pytest.raises(DegenerateKernel):
        steady_state(ref4.generator)  # pairwise level coupling, 2-d kernel
    silent = make_bundle(3, np.zeros(3))
    with pytest.raises(DegenerateKernel):
        steady_state(silent.generator)  # zero dissipator, kernel = commutant


def test_prelindblad_small_window_scales_linearly(two_level):
    V = two_level.engine.coupling
    n1 = np.max(np.abs(pre_lindblad_generator(V, two_level.kernel, 1e-3, 1e-3)))
    n2 = np.max(np.abs(pre_lindblad_generator(V, two_level.kernel, 1e-4, 1e-4)))
    assert n1 < 1e-3
    assert 4.0 < n1 / n2 < 25.0


def test_prelindblad_identity_coupling_is_zero_map(two_level):
    V = decompose(np.eye(2, dtype=complex), two_level.eig, two_level.spectrum)
    window = pre_lindblad_generator(V, two_level.kernel, 5.0, 0.004)
    # zero up to round-off dust: the four terms of each sample cancel for
    # V = I, and V is I only up to the rotation into the energy basis and back
    assert np.max(np.abs(window)) < 1e-20


def test_prelindblad_window_growth_improves_agreement(two_level):
    V = two_level.engine.coupling
    target = two_level.generator.dissipator.matrix
    d25 = np.max(np.abs(pre_lindblad_generator(V, two_level.kernel, 25.0, 0.004) - target))
    d50 = np.max(np.abs(pre_lindblad_generator(V, two_level.kernel, 50.0, 0.004) - target))
    assert d50 < d25


def test_prelindblad_rejects_flat_noise(two_level):
    with pytest.raises(PointwiseUndefined):
        pre_lindblad_generator(two_level.engine.coupling, WhiteNoise(0.1), 10.0, 0.01)


def test_prelindblad_rejects_coarse_grid(two_level):
    V = two_level.engine.coupling
    with pytest.raises(StepTooCoarse):
        pre_lindblad_generator(V, two_level.kernel, 25.0, 0.1)
    bound = resolution_bound(two_level.kernel, two_level.spectrum)
    with pytest.raises(StepTooCoarse):
        pre_lindblad_generator(V, two_level.kernel, 1.0, np.nextafter(bound, 1.0))
    pre_lindblad_generator(V, two_level.kernel, 1.0, bound)


def test_prelindblad_rejects_bad_window(two_level):
    with pytest.raises(ValueError):
        pre_lindblad_generator(two_level.engine.coupling, two_level.kernel, -1.0, 0.004)
