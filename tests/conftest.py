"""Shared model fixtures and random-state helpers."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import reject
from hypothesis import strategies as st

import lindcur as lc
from lindcur import current, lindblad


@dataclasses.dataclass(frozen=True)
class Bundle:
    """A fully assembled model: chain operators, spectrum, bath, generator."""

    ops: lc.LatticeOperators
    eig: lc.EigenSystem
    spectrum: lc.BohrSpectrum
    kernel: object
    gplus: lc.HalfFourierTable
    generator: lc.LindbladGenerator
    engine: lc.JDEngine


def make_bundle(
    n_sites, coupling, *, hopping=1.0, potential=None, kernel=None, freq_tol=None
):
    if potential is None:
        potential = np.zeros(n_sites)
    if kernel is None:
        kernel = lc.Exponential(gamma=0.1, kappa=5.0, omega=0.0)
    chain = lc.ChainSpec(
        n_sites, hopping, np.asarray(potential, float), np.asarray(coupling, float)
    )
    ops = lc.build_chain(chain)
    eig = lc.hermitian_eigensystem(ops.h)
    if freq_tol is None:
        freq_tol = lc.default_freq_tol(eig)
    spectrum = lc.bohr_frequencies(eig, freq_tol)
    gplus = lc.gplus_table(kernel, spectrum)
    coupling = lc.decompose(ops.v, eig, spectrum)
    generator = lc.build_generator(coupling, gplus, eig)
    engine = lc.build_engine(ops, coupling, gplus)
    return Bundle(ops, eig, spectrum, kernel, gplus, generator, engine)


def _tabulated_exponential(gamma, kappa):
    t = np.linspace(0.0, 8.0, 801)
    return lc.Tabulated(t, gamma * np.exp(-kappa * t))


BATHS = {
    "exponential": lambda: lc.Exponential(gamma=0.1, kappa=5.0),
    "exponential_shifted": lambda: lc.Exponential(gamma=0.1, kappa=5.0, omega=0.7),
    "white": lambda: lc.WhiteNoise(0.2),
    "tabulated": lambda: _tabulated_exponential(0.1, 2.0),
}


@st.composite
def chain_models(draw, hoppings=None):
    """Chains of 2-6 sites: zero, random or mirror-symmetric potentials,
    couplings with some zero sites, and each bath kind.

    The hopping is 1 unless a strategy for it is given; a drawn hopping so
    small that the default tolerance cannot bin the gaps is rejected.
    """
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    potential = {
        "zero": np.zeros(n),
        "random": rng.normal(0.0, 0.3, n),
        "mirror": (lambda p: (p + p[::-1]) / 2.0)(rng.normal(0.0, 0.3, n)),
    }[draw(st.sampled_from(["zero", "random", "mirror"]))]
    coupling = rng.uniform(-1.0, 1.0, n)
    coupling[draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))] = 0.0
    kernel = BATHS[draw(st.sampled_from(sorted(BATHS)))]()
    hopping = 1.0 if hoppings is None else draw(hoppings)
    try:
        return make_bundle(
            n, coupling, hopping=hopping, potential=potential, kernel=kernel
        )
    except lc.BinCollision:
        reject()


def superop_from_action(f, N):
    """Reference assembler: the matrix of a linear map from its action on
    matrix units, visited in row-major order (i outer, j inner)."""
    M = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            image = np.asarray(f(E), dtype=complex)
            if image.shape != (N, N):
                raise lc.DimensionMismatch(
                    f"action returned shape {image.shape}, expected {(N, N)}"
                )
            M[:, i + j * N] = image.reshape(-1, order="F")
    return lc.SuperOperator(N, M)


def dense_generator(V, gplus, eig):
    """The generator as the pair (hamiltonian_part, dissipator) of dense
    N^2 x N^2 SuperOperators on column-stacked site-basis operators.

    The site-basis assembly that build_generator used before it kept only
    the Bohr-bin blocks, kept as the test reference for them: the jump
    term sum_w gamma_w V_w^dag rho V_w summed in one einsum over the bins,
    and K = sum_w g_w V_w V_w^dag, both from the components V_w rotated to
    the site basis.  vec(A X B) = (B^T kron A) vec(X).
    """
    N = eig.dimension
    spectrum = V.spectrum
    rates = gplus.value_at(spectrum.frequencies, spectrum.bin_tolerance)
    U = eig.basis
    H = eig.matrix()
    ident = np.eye(N, dtype=complex)
    ham = -1j * (np.kron(ident, H) - np.kron(H.T, ident))
    rows, cols = np.indices((N, N))
    comps = np.zeros((len(spectrum), N, N), dtype=complex)
    comps[V.labels, rows, cols] = V.source
    Vs = U @ comps @ U.conj().T
    K = np.einsum("k,kab,kcb->ac", rates, Vs, Vs.conj())
    # entry [a, c, b, d] is the coefficient of rho[d, b] in out[c, a]
    jump = np.einsum(
        "k,kba,kdc->acbd", 2.0 * rates.real, Vs, Vs.conj(), optimize=True
    ).reshape(N * N, N * N)
    diss = jump - np.kron(ident, K) - np.kron(K.conj(), ident)
    return lc.SuperOperator(N, ham), lc.SuperOperator(N, diss)


def components(sop):
    """The (bins, N, N) stack of a SpectralOperator's per-bin components."""
    bins = np.arange(len(sop.spectrum))[:, None, None]
    return np.where(sop.labels == bins, sop.source, 0)


def interaction_picture_batch(sop, taus):
    """sum_w exp(i w tau) A_w in the energy basis for each tau; (T, N, N).

    Each entry carries the phase of its own bin, so this is one elementwise
    product per time.  The reference for diag(u) V diag(conj u), the
    coupling in the rotating frame of sampled_window.
    """
    gaps = sop.spectrum.frequencies[sop.labels]
    return np.exp(1j * np.multiply.outer(taus, gaps)) * sop.source


def random_density(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(1789)


@pytest.fixture(scope="session")
def ref4():
    """Four sites, alternating unit coupling.

    The coupling connects eigenlevels strictly pairwise, which leaves a
    two-dimensional stationary family (steady_state refuses this model).
    """
    return make_bundle(4, [1.0, -1.0, 1.0, -1.0])


@pytest.fixture(scope="session")
def asym4():
    """Four sites with incommensurate couplings; unique stationary state."""
    return make_bundle(4, [0.7, -1.1, 0.4, 0.9])


@pytest.fixture(scope="session")
def two_level():
    """Two sites, hopping 5 (level gap 10), slow bath with kappa = 1."""
    return make_bundle(
        2,
        [1.0, -1.0],
        hopping=5.0,
        kernel=lc.Exponential(gamma=0.1, kappa=1.0, omega=0.0),
    )


@pytest.fixture
def sample_draws(monkeypatch):
    """[h, samples] of every finite-window pass made while the test runs:
    the grid step and the samples sampled_window's chunks held."""
    draws = []
    sampled_window = lindblad.sampled_window

    def spy(V, k, t, dt, stacks):
        h, ends, n_star, chunks = sampled_window(V, k, t, dt, stacks)
        draws.append([h, 0])

        def counted():
            for chunk in chunks:
                draws[-1][1] += len(chunk[0])
                yield chunk

        return h, ends, n_star, counted()

    monkeypatch.setattr(lindblad, "sampled_window", spy)
    monkeypatch.setattr(current, "sampled_window", spy)
    return draws
