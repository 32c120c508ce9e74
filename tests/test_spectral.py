import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindcur import (
    BinCollision,
    BohrSpectrum,
    DimensionMismatch,
    EigenSystem,
    bohr_frequencies,
    decompose,
    default_freq_tol,
    hermitian_eigensystem,
)

from conftest import components, interaction_picture_batch, random_hermitian


def _eig(energies):
    n = len(energies)
    return EigenSystem(energies=np.asarray(energies, float), basis=np.eye(n, dtype=complex))


def test_two_level_frequencies():
    spectrum = bohr_frequencies(_eig([0.0, 1.0]), 1e-9)
    np.testing.assert_allclose(spectrum.frequencies, [-1.0, 0.0, 1.0], atol=1e-15)


def test_equally_spaced_ladder_merges_bins():
    # degenerate gaps: 3 levels but only 5 distinct differences
    spectrum = bohr_frequencies(_eig([0.0, 1.0, 2.0]), 1e-9)
    np.testing.assert_allclose(
        spectrum.frequencies, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-15
    )


def test_open_four_site_chain_frequencies(ref4):
    s5 = np.sqrt(5.0)
    expected = np.sort(
        [0.0, 1.0, -1.0, s5 - 1.0, 1.0 - s5, s5, -s5, s5 + 1.0, -s5 - 1.0]
    )
    np.testing.assert_allclose(ref4.spectrum.frequencies, expected, atol=1e-9)


def test_zero_bin_is_exact(ref4):
    assert 0.0 in ref4.spectrum.frequencies
    np.testing.assert_array_equal(
        ref4.spectrum.frequencies, -ref4.spectrum.frequencies[::-1]
    )


def test_oversized_tolerance_collides():
    eig = _eig([0.0, 1.0])
    for tol in (1.2, 2.5):  # at and beyond the spectral span
        with pytest.raises(BinCollision):
            bohr_frequencies(eig, tol)


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        bohr_frequencies(_eig([0.0, 1.0]), 0.0)


def test_default_tolerance_scales_with_energy():
    assert default_freq_tol(_eig([0.0, 1.0])) == pytest.approx(1e-9)
    assert default_freq_tol(_eig([0.0, 100.0])) == pytest.approx(1e-7)


def _component_at(sop, omega):
    return sop.component(sop.spectrum.index_of(omega))


def test_decompose_two_level_components():
    eig = _eig([0.0, 1.0])
    spectrum = bohr_frequencies(eig, 1e-9)
    sop = decompose(np.array([[1.0, 2.0], [3.0, 4.0]]), eig, spectrum)
    np.testing.assert_allclose(_component_at(sop, 0.0), np.diag([1.0, 4.0]), atol=1e-15)
    up = np.zeros((2, 2))
    up[1, 0] = 3.0
    np.testing.assert_allclose(_component_at(sop, 1.0), up, atol=1e-15)
    down = np.zeros((2, 2))
    down[0, 1] = 2.0
    np.testing.assert_allclose(_component_at(sop, -1.0), down, atol=1e-15)


def test_decompose_rejects_wrong_shape(ref4):
    with pytest.raises(DimensionMismatch):
        decompose(np.zeros((3, 3)), ref4.eig, ref4.spectrum)


def test_components_reconstruct_operator(ref4, rng):
    for _ in range(100):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sop = decompose(A, ref4.eig, ref4.spectrum)
        np.testing.assert_allclose(
            components(sop).sum(axis=0), ref4.eig.to_energy_basis(A), atol=1e-12
        )


def test_components_have_disjoint_support(ref4, rng):
    sop = decompose(random_hermitian(rng, 4), ref4.eig, ref4.spectrum)
    occupied = np.abs(components(sop)) > 0
    assert np.all(occupied.sum(axis=0) <= 1)


def test_interaction_picture_against_propagator(ref4, rng):
    """sum_w exp(iw tau) A_w must equal exp(iH tau) A exp(-iH tau)."""
    tau = 0.37
    A = random_hermitian(rng, 4)
    sop = decompose(A, ref4.eig, ref4.spectrum)
    P = scipy.linalg.expm(1j * ref4.ops.h * tau)
    expected = ref4.eig.to_energy_basis(P @ A @ P.conj().T)
    np.testing.assert_allclose(
        interaction_picture_batch(sop, [tau])[0], expected, atol=1e-10
    )


def test_interaction_picture_at_zero_is_source(ref4, rng):
    sop = decompose(random_hermitian(rng, 4), ref4.eig, ref4.spectrum)
    np.testing.assert_allclose(
        interaction_picture_batch(sop, [0.0])[0], sop.source, atol=1e-14
    )


def test_batch_picture_matches_pointwise(ref4, rng):
    """Against the per-bin phase sum sum_w exp(i w tau) A_w at each tau."""
    sop = decompose(random_hermitian(rng, 4), ref4.eig, ref4.spectrum)
    taus = np.linspace(0.0, 10.0, 23)
    batch = interaction_picture_batch(sop, taus)
    comps = components(sop)
    for k, tau in enumerate(taus):
        phases = np.exp(1j * sop.spectrum.frequencies * tau)
        pointwise = np.einsum("f,fij->ij", phases, comps)
        np.testing.assert_allclose(batch[k], pointwise, atol=1e-10)


def test_component_lookup_within_half_tolerance(ref4, rng):
    spectrum = ref4.spectrum
    sop = decompose(random_hermitian(rng, 4), ref4.eig, spectrum)
    shifted = 1.0 + 0.5 * spectrum.bin_tolerance
    np.testing.assert_array_equal(_component_at(sop, shifted), _component_at(sop, 1.0))


def test_component_lookup_misses_are_zero(ref4, rng):
    sop = decompose(random_hermitian(rng, 4), ref4.eig, ref4.spectrum)
    assert ref4.spectrum.index_of(0.5) is None
    assert not np.any(sop.component(len(ref4.spectrum)))  # a label no entry has


# -- the nearest-centre rule against the argmin it replaced ---------------------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def _argmin_nearest(centres, x):
    return np.argmin(np.abs(np.asarray(x)[..., None] - centres), axis=-1)


@st.composite
def sorted_centres(draw):
    """One to nine sorted centres, spaced at least 1e-6 apart."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(1e-6, 2.0, n - 1) * rng.choice([1e-3, 1.0], n - 1)
    return rng.uniform(-3.0, 3.0) + np.concatenate([[0.0], np.cumsum(gaps)])


@PROPERTY_SETTINGS
@given(sorted_centres(), st.integers(0, 2**32 - 1))
def test_nearest_equals_argmin(centres, seed):
    spectrum = BohrSpectrum(frequencies=centres, bin_tolerance=1e-12)
    rng = np.random.default_rng(seed)
    span = max(1.0, centres[-1] - centres[0])
    mids = (centres[:-1] + centres[1:]) / 2.0
    queries = np.concatenate([
        centres,  # exactly on a centre
        mids,  # exact midpoints: ties go to the lower index
        np.nextafter(mids, np.inf),
        np.nextafter(mids, -np.inf),
        [centres[0] - span, centres[0] - 1e-9, centres[-1] + 1e-9, centres[-1] + span],
        rng.uniform(centres[0] - span, centres[-1] + span, 40),
    ])
    np.testing.assert_array_equal(spectrum.nearest(queries), _argmin_nearest(centres, queries))
    assert spectrum.nearest(queries[None, :]).shape == (1, len(queries))
    assert spectrum.nearest(queries[0]).shape == ()


def test_nearest_on_one_bin():
    spectrum = BohrSpectrum(frequencies=np.array([0.0]), bin_tolerance=1e-9)
    x = np.array([[-1e3, -0.5], [0.0, 7.0]])
    np.testing.assert_array_equal(spectrum.nearest(x), np.zeros((2, 2), dtype=int))
    assert spectrum.index_of(1e-10) == 0
    assert spectrum.index_of(2e-9) is None


@st.composite
def near_tolerance_spectra(draw):
    """Energies whose gaps sit at, just inside and just outside tol/4 and tol."""
    tol = draw(st.sampled_from([1e-9, 1e-4, 0.05]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = list(rng.uniform(-2.0, 2.0, draw(st.integers(1, 4))))
    offsets = []
    for edge in (tol / 4.0, tol):
        offsets += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                    0.9 * edge, 1.1 * edge]
    for _ in range(draw(st.integers(0, 4))):
        base = levels[draw(st.integers(0, len(levels) - 1))]
        levels.append(base + offsets[draw(st.integers(0, len(offsets) - 1))])
    return np.sort(levels), tol


@PROPERTY_SETTINGS
@given(near_tolerance_spectra())
def test_binning_collides_or_matches_argmin_labels(case):
    energies, tol = case
    eig = _eig(energies)
    try:
        spectrum = bohr_frequencies(eig, tol)
    except BinCollision:
        return
    gaps = energies[:, None] - energies[None, :]
    labels = decompose(np.eye(len(energies)), eig, spectrum).labels
    np.testing.assert_array_equal(labels, _argmin_nearest(spectrum.frequencies, gaps))
    assert np.max(np.abs(gaps - spectrum.frequencies[labels])) <= tol


# -- the cluster centres against the per-cluster loop they replaced ------------


def _loop_centres(eig, freq_tol):
    """bohr_frequencies' centres as first written: a loop over clusters."""
    w = eig.energies
    diffs = np.sort((w[:, None] - w[None, :]).ravel())
    linkage = freq_tol / 4.0
    centers = []
    start = 0
    for i in range(1, len(diffs) + 1):
        if i == len(diffs) or diffs[i] - diffs[i - 1] > linkage:
            centers.append(float(np.mean(diffs[start:i])))
            start = i
    centers = np.array(centers)
    return (centers - centers[::-1]) / 2.0


def _assert_same_centres(eig, tol):
    want = _loop_centres(eig, tol)
    try:
        got = bohr_frequencies(eig, tol).frequencies
    except BinCollision:
        # the collision checks read the centres, so the loop's would collide too
        if len(want) > 1 and np.all(np.diff(want) > tol):
            gaps = eig.energies[:, None] - eig.energies[None, :]
            nearest = BohrSpectrum(want, tol).nearest(gaps)
            assert np.max(np.abs(gaps - want[nearest])) > tol
        return
    assert got.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(near_tolerance_spectra())
def test_cluster_centres_match_the_loop_near_tolerance(case):
    energies, tol = case
    _assert_same_centres(_eig(energies), tol)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 19, 32, 64])
@pytest.mark.parametrize("potential", ["zero", "random", "mirror"])
def test_cluster_centres_match_the_loop_on_chains(n, potential):
    """Chains with many equal gaps (zero and mirror potentials put up to n
    differences in one cluster) and generic ones, bit for bit."""
    rng = np.random.default_rng(n)
    p = rng.normal(0.0, 0.3, n)
    p = {"zero": np.zeros(n), "random": p, "mirror": (p + p[::-1]) / 2.0}[potential]
    h = np.diag(p) - np.eye(n, k=1) - np.eye(n, k=-1)
    eig = hermitian_eigensystem(h.astype(complex))
    _assert_same_centres(eig, default_freq_tol(eig))
    _assert_same_centres(_eig(np.arange(n) * 0.5), 1e-9)  # an equally spaced ladder
