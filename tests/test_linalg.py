import numpy as np
import pytest

from lindcur import DimensionMismatch, NotHermitian, hermitian_eigensystem

from conftest import random_hermitian, superop_from_action


def test_diagonal_matrix_sorted_ascending():
    eig = hermitian_eigensystem(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(eig.energies, [1.0, 3.0])
    np.testing.assert_allclose(eig.basis, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_symmetric_offdiagonal_eigensystem():
    eig = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(eig.energies, [-1.0, 1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    # phase convention: first significant component real positive
    np.testing.assert_allclose(eig.basis[:, 0], [s, -s], atol=1e-14)
    np.testing.assert_allclose(eig.basis[:, 1], [s, s], atol=1e-14)


def test_open_chain_dispersion():
    """Nearest-neighbour hopping with open ends: -2 t cos(k pi / (N+1))."""
    n, t = 4, 1.0
    H = np.zeros((n, n))
    for r in range(n - 1):
        H[r, r + 1] = H[r + 1, r] = -t
    eig = hermitian_eigensystem(H)
    expected = np.sort([-2.0 * t * np.cos(k * np.pi / (n + 1)) for k in range(1, n + 1)])
    np.testing.assert_allclose(eig.energies, expected, atol=1e-14)


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eigensystem(np.zeros((2, 3)))


def test_reconstruction_and_unitarity(rng):
    M = random_hermitian(rng, 7)
    eig = hermitian_eigensystem(M)
    np.testing.assert_allclose(eig.matrix(), M, atol=1e-12)
    np.testing.assert_allclose(
        eig.basis.conj().T @ eig.basis, np.eye(7), atol=1e-12
    )


def test_basis_roundtrip(rng):
    M = random_hermitian(rng, 5)
    eig = hermitian_eigensystem(M)
    A = random_hermitian(rng, 5)
    np.testing.assert_allclose(
        eig.to_site_basis(eig.to_energy_basis(A)), A, atol=1e-12
    )


def test_repeated_decomposition_bit_identical(rng):
    M = random_hermitian(rng, 6)
    first = hermitian_eigensystem(M)
    second = hermitian_eigensystem(M.copy())
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.basis, second.basis)


def test_superop_from_zero_map():
    S = superop_from_action(lambda X: np.zeros_like(X), 3)
    assert not np.any(S.matrix)


def test_superop_from_action_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        superop_from_action(lambda X: np.zeros((3, 3)), 2)


def test_transpose_map_is_permutation(rng):
    S = superop_from_action(lambda X: X.T, 2)
    M = S.matrix.real
    assert set(np.unique(M)) <= {0.0, 1.0}
    np.testing.assert_array_equal(M.sum(axis=0), np.ones(4))
    np.testing.assert_array_equal(M.sum(axis=1), np.ones(4))
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    image = (S.matrix @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
    np.testing.assert_array_equal(image, X.T)


def test_commutator_map_spectrum():
    """[diag(0,1), .] has eigenvalues {0, 0, +1, -1}."""
    n = np.diag([0.0, 1.0]).astype(complex)
    S = superop_from_action(lambda X: n @ X - X @ n, 2)
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(S.matrix)),
        np.sort_complex(np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex)),
        atol=1e-12,
    )
