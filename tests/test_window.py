"""The streamed finite-window quadratures against their whole-window forms.

jd_finite_time_oracle and pre_lindblad_generator walk the sample grid in
chunks and form the inner integral as per-bin running sums.  The functions
below are the whole-window implementations they replaced: an FFT
convolution over the full (n, N, N) stack, one trapezoid over the full
integrand, and an einsum map sum.  They share the grid, so the two forms
differ only by rounding.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lindcur as lc
from lindcur import lindblad
from lindcur.current import ORACLE_HORIZON
from lindcur.reservoir import resolution_bound, sample_kernel

from conftest import interaction_picture_batch, make_bundle, random_density

AGREEMENT = 1e-12  # streamed vs whole-window, relative to max |reference|
CHUNK_AGREEMENT = 1e-13  # one chunking vs another, same relative scale
SHORT_CHUNK = 97  # samples; every window below then spans several chunks


def _chunk_samples(monkeypatch, samples, N):
    monkeypatch.setattr(lindblad, "CHUNK_BYTES", samples * 16 * N * N)


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


def reference_oracle(ops, eig, spectrum, kernel, rho, t, dt, include_zero_mode=False):
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
        elif include_zero_mode:
            zfac[a] = s
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


def _oracle_pair(b, rho, include_zero_mode=False):
    t, dt = _oracle_window(b)
    args = (b.ops, b.eig, b.spectrum, b.kernel, rho, t, dt)
    return (
        lc.jd_finite_time_oracle(*args, include_zero_mode=include_zero_mode),
        reference_oracle(*args, include_zero_mode=include_zero_mode),
    )


@pytest.fixture
def short_chunks(monkeypatch):
    def use(N):
        _chunk_samples(monkeypatch, SHORT_CHUNK, N)

    return use


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


@pytest.mark.parametrize("include_zero_mode", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_oracle_matches_whole_window(
    request, short_chunks, case, include_zero_mode
):
    b = CASES[case](request)
    short_chunks(b.eig.dimension)
    rho = random_density(np.random.default_rng(17), b.eig.dimension)
    got, want = _oracle_pair(b, rho, include_zero_mode)
    if case != "one_bin" or include_zero_mode:  # else every phase factor is 0
        assert np.max(np.abs(want)) > 0.0
    _assert_agree(got, want, AGREEMENT)


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_pre_lindblad_matches_whole_window(request, short_chunks, case):
    b = CASES[case](request)
    short_chunks(b.eig.dimension)
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
        _chunk_samples(mp, SHORT_CHUNK, b.eig.dimension)
        delta = 3.0
        got, want = _pre_lindblad_pair(b, delta)
        _assert_agree(got, want, AGREEMENT, DUST * term * delta)
        t, dt = _oracle_window(b)
        if t / dt <= 20_000:  # near-degenerate gaps push the horizon too far
            rho = random_density(np.random.default_rng(3), b.eig.dimension)
            got, want = _oracle_pair(b, rho)
            J = np.max(np.abs(b.engine.bond_currents[0].source))
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
        _chunk_samples(monkeypatch, samples, 4)
        oracle = lc.jd_finite_time_oracle(
            ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho, t, dt
        )
        pre = lc.pre_lindblad_generator(ref4.engine.coupling, ref4.kernel, t, dt)
        results.append((oracle, pre.matrix))
    first_oracle, first_pre = results[0]
    for oracle, pre in results[1:]:
        _assert_agree(oracle, first_oracle, CHUNK_AGREEMENT)
        _assert_agree(pre, first_pre, CHUNK_AGREEMENT)


@pytest.mark.parametrize("case", ["random12", "one_bin"])
def test_sampled_window_gathers_the_interaction_picture(short_chunks, case):
    """V_s gathered from the per-bin phases is the interaction picture, bit
    for bit, in every chunk."""
    if case == "random12":
        rng = np.random.default_rng(12)
        b = make_bundle(12, rng.uniform(-1.0, 1.0, 12), potential=rng.normal(0.0, 0.3, 12))
    else:
        b = _one_bin()
    short_chunks(b.eig.dimension)
    V = b.engine.coupling
    _, chunks = lindblad.sampled_window(V, b.kernel, 3.0, 0.01)
    for s, _, _, _, V_s in chunks:
        np.testing.assert_array_equal(V_s, interaction_picture_batch(V, s))


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
    # one chunk's samples and two (chunk, 4, N, N) term buffers, not the
    # previous chunk's arrays on top
    assert _peak_bytes(pre(4.0 * short)) <= 16 * lindblad.CHUNK_BYTES
