import numpy as np
import pytest

from lindcur import (
    ChainSpec,
    LengthMismatch,
    build_chain,
    decompose,
    discrete_divergence,
    hermitian_eigensystem,
)
from lindcur.spectral import bohr_frequencies, default_freq_tol


def _chain(n, hopping=1.0, potential=None, coupling=None):
    potential = np.zeros(n) if potential is None else np.asarray(potential, float)
    coupling = np.zeros(n) if coupling is None else np.asarray(coupling, float)
    return build_chain(ChainSpec(n, hopping, potential, coupling))


def test_two_site_operators():
    ops = _chain(2, hopping=1.0)
    np.testing.assert_array_equal(ops.h, [[0.0, -1.0], [-1.0, 0.0]])
    J = ops.j_ops[0]
    np.testing.assert_array_equal(J, [[0.0, -1.0j], [1.0j, 0.0]])


def test_operator_structure(rng):
    ops = _chain(5, potential=rng.normal(size=5), coupling=rng.normal(size=5))
    total = sum(ops.n_ops)
    np.testing.assert_array_equal(total, np.eye(5))
    for J in ops.j_ops:
        np.testing.assert_allclose(J, J.conj().T, atol=1e-15)
        assert np.trace(J) == 0.0
    for n in ops.n_ops:
        np.testing.assert_allclose(n @ ops.v, ops.v @ n, atol=1e-15)


def test_commutator_continuity_is_exact(rng):
    """i[H, n_r] + (div J)_r must vanish identically, site by site."""
    for n in (2, 4, 6):
        ops = _chain(n, potential=rng.normal(size=n))
        div = discrete_divergence(ops.j_ops)
        for r in range(n):
            lhs = 1j * (ops.h @ ops.n_ops[r] - ops.n_ops[r] @ ops.h)
            assert np.max(np.abs(lhs + div[r])) <= 1e-15


def test_divergence_values():
    np.testing.assert_array_equal(discrete_divergence([1.0, 4.0]), [1.0, 3.0, -4.0])


def test_divergence_telescopes(rng):
    vals = rng.normal(size=9)
    out = discrete_divergence(vals)
    assert len(out) == 10
    assert abs(sum(out)) <= 1e-12


def test_divergence_needs_bonds():
    with pytest.raises(LengthMismatch):
        discrete_divergence([])


def test_divergence_of_currents_has_no_static_component(ref4):
    # i[H, n_r] has no energy-diagonal part, so neither can div J
    div = discrete_divergence(ref4.ops.j_ops)
    for D in div:
        sop = decompose(D, ref4.eig, ref4.spectrum)
        static = sop.component(ref4.spectrum.index_of(0.0))
        assert np.max(np.abs(static)) <= 1e-12


def test_plane_wave_carries_uniform_current():
    """Sign convention: a wave moving toward higher sites carries +current."""
    ops = _chain(4)
    psi = np.array([1.0, 1.0j, -1.0, -1.0j]) / 2.0
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(np.diag(rho).real, 0.25, atol=1e-15)
    currents = np.array([np.trace(rho @ J).real for J in ops.j_ops])
    np.testing.assert_allclose(currents, 0.5, atol=1e-15)


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, 1.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        ChainSpec(2, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(LengthMismatch):
        ChainSpec(3, 1.0, np.zeros(3), np.zeros(2))
    with pytest.raises(LengthMismatch):
        ChainSpec(3, 1.0, np.zeros(2), np.zeros(3))


def test_spectrum_of_reference_chain(ref4):
    eig = hermitian_eigensystem(ref4.ops.h)
    spectrum = bohr_frequencies(eig, default_freq_tol(eig))
    assert len(spectrum) == 9
