"""The streamed finite-window quadratures against their whole-window forms.

jd_finite_time_oracle and pre_lindblad_generator walk the sample grid in
chunks, form the inner integral as per-bin running sums and apply the
interaction picture in a rotating frame.  The functions below are the
whole-window implementations they replaced: per-entry bin phases, an FFT
convolution over the full (n, N, N) stack, one trapezoid over the full
integrand, and an einsum map sum in the site basis.  They share the grid,
so the two forms differ only by rounding wherever bins are additive.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lindcur as lc
from lindcur import lindblad
from lindcur.current import ORACLE_HORIZON
from lindcur.reservoir import resolution_bound, sample_kernel

from conftest import chain_models, interaction_picture_batch, make_bundle, random_density

AGREEMENT = 1e-12  # streamed vs whole-window, relative to max |reference|
CHUNK_AGREEMENT = 1e-13  # one chunking vs another, same relative scale
SHORT_CHUNK = 97  # samples; every window below then spans several chunks


def _chunk_samples(monkeypatch, samples):
    monkeypatch.setattr(lindblad, "window_chunk", lambda sample_bytes: samples)


def _whole_window(V, k, t, dt):
    n = max(2, math.ceil(t / dt))
    h = t / n
    s = h * np.arange(n + 1)
    return s, h, sample_kernel(k, s), interaction_picture_batch(V, s)


def _fft_triangle_convolution(g, V, h):
    n = len(g)
    size = 1 << (2 * n - 2).bit_length()  # smallest power of two >= 2n - 1
    spectrum = np.fft.fft(V, size, axis=0)
    spectrum *= np.fft.fft(g, size)[:, None, None]
    full = np.fft.ifft(spectrum, axis=0)[:n]
    corr = 0.5 * (g[:, None, None] * V[0][None, :, :] + g[0] * V)
    out = h * (full - corr)
    out[0] = 0.0
    return out


def _einsum_map_sum(A, B):
    N = A.shape[-1]
    return np.einsum("sik,slj->jilk", A, B).reshape(N * N, N * N)


def reference_oracle(ops, eig, spectrum, kernel, rho, t, dt):
    coupling = lc.decompose(ops.v, eig, spectrum)
    s, h, g, V_t = _whole_window(coupling, kernel, t, dt)
    freqs = spectrum.frequencies
    nonzero = np.abs(freqs) > spectrum.bin_tolerance
    C = _fft_triangle_convolution(g, V_t, h)
    rho_en = eig.to_energy_basis(rho)
    D = C @ rho_en @ V_t - V_t @ C @ rho_en
    zfac = np.zeros((len(freqs), len(s)), dtype=complex)
    for a, w in enumerate(freqs):
        if nonzero[a]:
            zfac[a] = (np.exp(1j * w * s) - 1.0) / (1j * w)
    J_en = eig.basis.conj().T @ np.array(ops.j_ops) @ eig.basis
    integrand = np.einsum(
        "bij,tji,ijt->bt", J_en, D, zfac[coupling.labels], optimize=True
    )
    return 2.0 * (-np.trapezoid(integrand, dx=h, axis=1) / t).real


def reference_pre_lindblad(V, k, delta, dt):
    s, h, g, V_en = _whole_window(V, k, delta, dt)
    U = V.eig.basis
    V_t = np.einsum("ab,sbc,dc->sad", U, V_en, U.conj())
    C = _fft_triangle_convolution(g, V_t, h)
    Cbar = _fft_triangle_convolution(np.conj(g), V_t, h)
    weights = np.full(len(s), h)
    weights[0] = weights[-1] = h / 2.0
    weights /= delta
    N = V.eig.dimension
    wC = weights[:, None, None] * C
    wCbar = weights[:, None, None] * Cbar
    eye_batch = np.broadcast_to(np.eye(N, dtype=complex), V_t.shape)
    M = _einsum_map_sum(wC, V_t)
    M -= _einsum_map_sum(np.einsum("sij,sjk->sik", V_t, wC), eye_batch)
    M += _einsum_map_sum(V_t, wCbar)
    M -= _einsum_map_sum(eye_batch, np.einsum("sij,sjk->sik", wCbar, V_t))
    return M


def _oracle_window(b):
    """The shortest window the oracle accepts, and the coarsest step."""
    freqs = b.spectrum.frequencies
    nonzero = np.abs(freqs) > b.spectrum.bin_tolerance
    t = ORACLE_HORIZON / float(np.min(np.abs(freqs[nonzero]))) if nonzero.any() else 5.0
    return t, resolution_bound(b.kernel, b.spectrum)


def _oracle_pair(b, rho):
    t, dt = _oracle_window(b)
    args = (b.ops, b.eig, b.spectrum, b.kernel, rho, t, dt)
    return lc.jd_finite_time_oracle(*args), reference_oracle(*args)


@pytest.fixture
def short_chunks(monkeypatch):
    _chunk_samples(monkeypatch, SHORT_CHUNK)


def _pre_lindblad_pair(b, delta):
    dt = resolution_bound(b.kernel, b.spectrum)
    V = b.engine.coupling
    return (
        lc.pre_lindblad_generator(V, b.kernel, delta, dt).matrix,
        reference_pre_lindblad(V, b.kernel, delta, dt),
    )


def _assert_agree(got, want, rel, floor=0.0):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)) + floor


def _random6():
    rng = np.random.default_rng(6)
    return make_bundle(6, rng.uniform(-1.0, 1.0, 6), potential=rng.normal(0.0, 0.3, 6))


def _tabulated_tail():
    """Support ends at tau = 2, inside every window used here."""
    tau = np.linspace(0.0, 2.0, 401)
    values = 0.1 * np.exp(-(1.5 + 0.4j) * tau)
    kernel = lc.Tabulated(times=tau, values=values)
    b = make_bundle(4, [0.7, -1.1, 0.4, 0.9], kernel=kernel)
    assert tau[-1] < min(_oracle_window(b)[0], 4.0)
    return b


def _one_bin():
    """Every gap falls under the bin tolerance: one bin holds all N^2 entries."""
    b = make_bundle(4, [1.0, -0.5, 0.3, 0.8], hopping=1e-12)
    assert len(b.spectrum) == 1
    return b


CASES = {
    "two_level": lambda request: request.getfixturevalue("two_level"),
    "ref4": lambda request: request.getfixturevalue("ref4"),
    "random6": lambda request: _random6(),
    "omega0": lambda request: make_bundle(
        4, [0.7, -1.1, 0.4, 0.9], kernel=lc.Exponential(gamma=0.1, kappa=5.0, omega=0.7)
    ),
    "tabulated_tail": lambda request: _tabulated_tail(),
    "one_bin": lambda request: _one_bin(),
}


# the zero-bin term is never added; "False" is the one value left of the
# oracle's former zero-mode axis, kept so that the test ids stay stable
@pytest.mark.parametrize("zero_mode", [False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_oracle_matches_whole_window(request, short_chunks, case, zero_mode):
    b = CASES[case](request)
    rho = random_density(np.random.default_rng(17), b.eig.dimension)
    got, want = _oracle_pair(b, rho)
    if case != "one_bin":  # else every phase factor is 0
        assert np.max(np.abs(want)) > 0.0
    _assert_agree(got, want, AGREEMENT)


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_pre_lindblad_matches_whole_window(request, short_chunks, case):
    b = CASES[case](request)
    got, want = _pre_lindblad_pair(b, 4.0)
    assert np.max(np.abs(want)) > 0.0
    _assert_agree(got, want, AGREEMENT)


@st.composite
def chains(draw):
    n = draw(st.integers(2, 5))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    potential = draw(st.lists(unit, min_size=n, max_size=n))
    coupling = draw(st.lists(unit, min_size=n, max_size=n))
    hopping = draw(st.floats(0.2, 2.0))
    return make_bundle(
        n,
        coupling,
        hopping=hopping,
        potential=potential,
        kernel=lc.Exponential(gamma=0.1, kappa=1.0, omega=0.3),
    )


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(chains())
def test_streamed_quadratures_match_whole_window_on_generated_chains(b):
    # Where the terms cancel (V a multiple of I) both forms leave only
    # rounding, so agreement is also allowed at DUST times a bound on one
    # term: |g| |V|^2 times the window, and times |J| for the oracle.
    DUST = 1e-15
    term = b.kernel.gamma * np.max(np.abs(b.engine.coupling.source)) ** 2
    with pytest.MonkeyPatch.context() as mp:
        _chunk_samples(mp, SHORT_CHUNK)
        delta = 3.0
        got, want = _pre_lindblad_pair(b, delta)
        _assert_agree(got, want, AGREEMENT, DUST * term * delta)
        t, dt = _oracle_window(b)
        if t / dt <= 20_000:  # near-degenerate gaps push the horizon too far
            rho = random_density(np.random.default_rng(3), b.eig.dimension)
            got, want = _oracle_pair(b, rho)
            J = np.max(np.abs(b.engine.currents[0]))
            _assert_agree(got, want, AGREEMENT, DUST * term * J * t)


def test_chunk_size_does_not_change_the_quadratures(ref4, monkeypatch):
    rho = random_density(np.random.default_rng(5), 4)
    t, dt = _oracle_window(ref4)
    while True:  # a window whose n + 1 samples have a proper divisor
        n = max(2, math.ceil(t / dt))
        divisors = [d for d in range(2, n + 1) if (n + 1) % d == 0]
        if divisors:
            break
        t += dt
    results = []
    for samples in (1, 7, divisors[-1], n + 2):
        _chunk_samples(monkeypatch, samples)
        oracle = lc.jd_finite_time_oracle(
            ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho, t, dt
        )
        pre = lc.pre_lindblad_generator(ref4.engine.coupling, ref4.kernel, t, dt)
        results.append((oracle, pre.matrix))
    first_oracle, first_pre = results[0]
    for oracle, pre in results[1:]:
        _assert_agree(oracle, first_oracle, CHUNK_AGREEMENT)
        _assert_agree(pre, first_pre, CHUNK_AGREEMENT)


def test_oracle_ladder_reads_each_window_off_one_pass(ref4, short_chunks):
    """Every window of a ladder ends at the grid point of the longest window
    nearest to its length, and its value is that window's own quadrature."""
    rho = random_density(np.random.default_rng(7), 4)
    t, bound = _oracle_window(ref4)
    lengths = t * np.array([1.0, 1.37, 1.37, 2.0, 3.1])
    args = (ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho)
    used, values = lc.jd_finite_time_oracle(*args, lengths, bound / 2.0)
    n = math.ceil(lengths[-1] / (bound / 2.0))
    h = lengths[-1] / n
    assert values.shape == (len(lengths), 3)
    np.testing.assert_allclose(used / h, np.rint(lengths / h), rtol=1e-12)
    assert used[-1] == lengths[-1]
    longest = lc.jd_finite_time_oracle(*args, lengths[-1], bound / 2.0)
    _assert_agree(values[-1], longest, 0.0)
    for length, row in zip(used, values):
        # the same grid: a step just above h gives the window length / h steps
        want = reference_oracle(*args, length, h * (1.0 + 1e-9))
        _assert_agree(row, want, AGREEMENT)


@pytest.mark.parametrize("t", [[], [[5.0]], [6.0, 5.0], [0.0, 5.0]])
def test_oracle_ladder_input_guards(two_level, t):
    rho = np.eye(2, dtype=complex) / 2.0
    args = (two_level.ops, two_level.eig, two_level.spectrum, two_level.kernel, rho)
    with pytest.raises(ValueError):
        lc.jd_finite_time_oracle(*args, np.array(t), 0.004)


def test_pre_lindblad_ladder_reads_each_window_off_one_pass(ref4, short_chunks):
    """Every window of a ladder ends at a grid point of the longest window,
    mid-chunk or on a chunk boundary, and its map is that window's own
    quadrature, divided by the length it integrates."""
    V, kernel = ref4.engine.coupling, ref4.kernel
    dt = resolution_bound(kernel, ref4.spectrum) / 2.0
    longest = 3.0
    n = math.ceil(longest / dt)
    h = longest / n
    # the last sample of the first chunk, the first of the second, one
    # mid-chunk twice, and the whole window
    steps = np.array([SHORT_CHUNK - 1, SHORT_CHUNK, 150, 150, n])
    assert 150 % SHORT_CHUNK not in (0, SHORT_CHUNK - 1) and n > 150
    lengths = h * steps
    lengths[-1] = longest
    used, maps = lc.pre_lindblad_generator(V, kernel, lengths, dt)
    assert maps.shape == (len(lengths), 16, 16)
    np.testing.assert_array_equal(used, h * steps)
    whole = lc.pre_lindblad_generator(V, kernel, longest, dt)
    assert isinstance(whole, lc.SuperOperator)
    # the rungs split the sums of their chunks, which rounds differently
    _assert_agree(maps[-1], whole.matrix, CHUNK_AGREEMENT)
    for length, got in zip(used, maps):
        # the same grid: a step just above h gives the window length / h steps
        want = reference_pre_lindblad(V, kernel, length, h * (1.0 + 1e-9))
        _assert_agree(got, want, AGREEMENT)


@pytest.mark.parametrize("delta", [[], [[5.0]], [6.0, 5.0], [0.0, 5.0], [-1.0]])
def test_pre_lindblad_ladder_input_guards(two_level, delta):
    with pytest.raises(ValueError):
        lc.pre_lindblad_generator(
            two_level.engine.coupling, two_level.kernel, np.array(delta), 0.004
        )


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(chain_models(hoppings=st.sampled_from([1.0, 0.3, 1e-6, 1e-12])))
def test_ladders_match_whole_window_on_generated_chains(b):
    """The rotating frame is exact only where bins are additive: on
    generated chains (degenerate bins from mirror potentials, decoupled
    sites, one bin at hopping 1e-12) each window of both ladders matches
    its whole-window reference on the same grid."""
    assume(not isinstance(b.kernel, lc.WhiteNoise))
    # where the terms cancel both forms leave only rounding: DUST times a
    # bound on one term, |g(0)| |V|^2 times the window (and |J| for the oracle)
    DUST = 1e-15
    g0 = abs(sample_kernel(b.kernel, np.zeros(1))[0])
    term = g0 * np.max(np.abs(b.engine.coupling.source)) ** 2
    with pytest.MonkeyPatch.context() as mp:
        _chunk_samples(mp, SHORT_CHUNK)
        V = b.engine.coupling
        dt = resolution_bound(b.kernel, b.spectrum)
        used, maps = lc.pre_lindblad_generator(V, b.kernel, np.array([1.3, 2.0]), dt)
        h = used[-1] / math.ceil(2.0 / dt)
        for length, got in zip(used, maps):
            want = reference_pre_lindblad(V, b.kernel, length, h * (1.0 + 1e-9))
            _assert_agree(got, want, AGREEMENT, DUST * term * length)
        t, dt = _oracle_window(b)
        if t / dt > 20_000:  # near-degenerate gaps push the horizon too far
            return
        rho = random_density(np.random.default_rng(4), b.eig.dimension)
        args = (b.ops, b.eig, b.spectrum, b.kernel, rho)
        used, values = lc.jd_finite_time_oracle(*args, t * np.array([1.0, 1.4]), dt)
        h = used[-1] / math.ceil(1.4 * t / dt)
        J = np.max(np.abs(b.engine.currents))
        for length, got in zip(used, values):
            want = reference_oracle(*args, length, h * (1.0 + 1e-9))
            _assert_agree(got, want, AGREEMENT, DUST * term * J * length)


def _random12():
    rng = np.random.default_rng(12)
    return make_bundle(12, rng.uniform(-1.0, 1.0, 12), potential=rng.normal(0.0, 0.3, 12))


@pytest.mark.parametrize("case", ["random12", "one_bin"])
def test_sampled_window_steps_the_rotating_frame(short_chunks, case):
    """In every chunk the stepped phases are np.exp of the same arguments,
    zero frequencies have phase exactly 1, and diag(u) V diag(conj u) is the
    interaction picture.

    A step and a chunk start each round their argument x s at eps |x s|,
    as np.exp's own argument does, so the phases agree to 1e-15 per unit
    of argument (1.2e-15 at |x s| = 12 on random12)."""
    b = _random12() if case == "random12" else _one_bin()
    V = b.engine.coupling
    freqs = V.spectrum.frequencies
    eps = lindblad._frame_energies(V)
    _, _, chunks = lindblad.sampled_window(V, b.kernel, 3.0, 0.01, 0)
    walked = 0
    for s, _, phase, u in chunks:
        assert len(s) <= SHORT_CHUNK
        walked += len(s)
        for x, stepped in ((freqs, phase), (eps, u)):
            args = np.multiply.outer(x, s)
            deviation = np.abs(stepped - np.exp(1j * args))
            assert np.all(deviation <= 1e-15 * np.maximum(1.0, np.abs(args)))
        assert np.all(phase[freqs == 0.0] == 1.0)
        assert np.all(u[eps == 0.0] == 1.0)
        V_s = u.T[:, :, None] * V.source * u.conj().T[:, None, :]
        want = interaction_picture_batch(V, s)
        _assert_agree(V_s, want, 1e-14)
    assert walked == 301
    if case == "one_bin":
        assert np.all(eps == 0.0)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_window(ref4):
    rho = random_density(np.random.default_rng(9), 4)
    t_min, dt = _oracle_window(ref4)
    chunk = lindblad.CHUNK_BYTES // (16 * 4 * 4)
    short = max(t_min, 2.5 * chunk * dt)  # several chunks already

    def oracle(t):
        return lambda: lc.jd_finite_time_oracle(
            ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho, t, dt
        )

    def pre(delta):
        return lambda: lc.pre_lindblad_generator(
            ref4.engine.coupling, ref4.kernel, delta, dt
        )

    for run in (oracle, pre):
        assert _peak_bytes(run(4.0 * short)) <= 1.25 * _peak_bytes(run(short))
    # a chunk's whole working set fits in CHUNK_BYTES; on top come numpy's
    # ufunc buffers (at most three operands of bufsize complex entries, for
    # a broadcast product) and, for the map, its O(T N^4) result, running
    # sums and rotation, with T = 1 window here
    buffers = 3 * 16 * np.getbufsize()
    assert _peak_bytes(oracle(4.0 * short)) <= lindblad.CHUNK_BYTES + buffers
    output = 8 * 16 * 4**4
    assert _peak_bytes(pre(4.0 * short)) <= lindblad.CHUNK_BYTES + buffers + output


def test_quadratures_peak_within_their_chunk_working_sets(ref4):
    """No product of a chunk (the oracle's, the map's, triangle_convolution
    or the stepped phases) takes a broadcast operand, which numpy's
    buffered loop would copy (up to 16 np.getbufsize() bytes each): both
    quadratures stay within CHUNK_BYTES, plus less than one such buffer
    for their per-call arrays and, for the map, its one-window output as
    in test_memory_does_not_grow_with_the_window."""
    rho = random_density(np.random.default_rng(9), 4)
    t_min, dt = _oracle_window(ref4)
    t = 4.0 * max(t_min, 2.5 * (lindblad.CHUNK_BYTES // (16 * 4 * 4)) * dt)
    budget = lindblad.CHUNK_BYTES + 16 * np.getbufsize() // 2
    oracle = _peak_bytes(
        lambda: lc.jd_finite_time_oracle(
            ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho, t, dt
        )
    )
    assert oracle <= budget
    pre = _peak_bytes(
        lambda: lc.pre_lindblad_generator(ref4.engine.coupling, ref4.kernel, t, dt)
    )
    assert pre <= budget + 8 * 16 * 4**4
