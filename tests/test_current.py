import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindcur import (
    BohrSpectrum,
    DimensionMismatch,
    IndexOutOfRange,
    PointwiseUndefined,
    StepTooCoarse,
    WhiteNoise,
    apply_adjoint,
    build_engine,
    continuity_report,
    decompose,
    discrete_divergence,
    divergence_identity_check,
    evolve,
    jd_cumulative_1d,
    jd_expectation,
    jd_finite_time_oracle,
    jd_observable,
    lstar_density,
)
from lindcur.current import _observables, _resonant_quadruples
from lindcur.lattice import ChainSpec, build_chain
from lindcur.reservoir import resolution_bound

from conftest import chain_models, components, make_bundle, random_density

# cross-checked against the running-sum construction and the finite-time
# quadrature; the initial state is the site-0 projector
REF4_SITE0_JD = np.array([0.02412327, 0.01753454, 0.0109458])


def _site_projector(n, r=0):
    rho = np.zeros((n, n), dtype=complex)
    rho[r, r] = 1.0
    return rho


def _two_level_state(eig):
    psi = (eig.basis[:, 0] + np.exp(1j * np.pi / 4.0) * eig.basis[:, 1]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def test_constraint_sets_satisfy_their_selection_rules(ref4):
    w = ref4.spectrum.frequencies
    tol = ref4.spectrum.bin_tolerance
    assert len(ref4.engine.first_index) == 40
    assert len(ref4.engine.second_index) == 72
    for aj, a1, a2, ar in ref4.engine.first_index:
        assert abs(w[aj] + w[a1] - w[a2]) <= tol
        assert abs(w[ar]) <= tol
        assert abs(w[aj]) > tol
    for aj, a1, a2, ar in ref4.engine.second_index:
        assert abs(w[a1] - w[a2]) <= tol
        assert abs(w[aj] + w[ar]) <= tol
        assert abs(w[aj]) > tol


def test_engine_operators_share_the_coupling_labels(asym4):
    engine = asym4.engine
    assert len(engine.currents) == len(asym4.ops.j_ops)
    for J, current in zip(asym4.ops.j_ops, engine.currents):
        alone = decompose(J, asym4.eig, asym4.spectrum)
        assert np.array_equal(engine.coupling.labels, alone.labels)
        assert np.array_equal(current, alone.source)


def test_engine_arrays_are_read_only(ref4):
    engine = ref4.engine
    for array in (engine.currents, engine.observables):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0
    O = jd_observable(engine, 0)
    O[...] = 0.0
    assert np.any(engine.observables[0])


def test_two_level_first_set_contains_expected_quadruple(two_level):
    w = two_level.spectrum.frequencies
    quadruple_values = {
        (w[aj], w[a1], w[a2], w[ar]) for aj, a1, a2, ar in two_level.engine.first_index
    }
    assert (10.0, 0.0, 10.0, 0.0) in quadruple_values


def test_identity_coupling_evaluates_to_zero(rng):
    bundle = make_bundle(3, np.ones(3))
    for _ in range(5):
        np.testing.assert_allclose(
            jd_expectation(bundle.engine, random_density(rng, 3)), 0.0, atol=1e-15
        )


def test_mixed_state_carries_no_dissipative_current(ref4):
    np.testing.assert_allclose(
        jd_expectation(ref4.engine, np.eye(4, dtype=complex) / 4.0), 0.0, atol=1e-14
    )


def test_site_projector_reference_values(ref4):
    je = jd_expectation(ref4.engine, _site_projector(4))
    np.testing.assert_allclose(je, REF4_SITE0_JD, rtol=1e-5)


def test_spectral_matches_running_sum(ref4, rng):
    for _ in range(10):
        rho = random_density(rng, 4)
        je = jd_expectation(ref4.engine, rho)
        jc = jd_cumulative_1d(ref4.generator, ref4.ops, rho)
        np.testing.assert_allclose(je, jc, atol=1e-11)


def test_expectation_is_linear(ref4, rng):
    a = 0.3
    rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
    mixed = a * rho1 + (1.0 - a) * rho2
    np.testing.assert_allclose(
        jd_expectation(ref4.engine, mixed),
        a * jd_expectation(ref4.engine, rho1)
        + (1.0 - a) * jd_expectation(ref4.engine, rho2),
        atol=1e-11,
    )


def test_observable_reproduces_expectation(ref4, rng):
    stack = ref4.engine.observables
    assert stack.shape == (3, 4, 4)
    for _ in range(50):
        rho = random_density(rng, 4)
        je = jd_expectation(ref4.engine, rho)
        via_trace = np.array([np.trace(rho @ O).real for O in stack])
        np.testing.assert_allclose(via_trace, je, atol=1e-11)


def test_observables_are_hermitian(ref4):
    for b in range(3):
        O = jd_observable(ref4.engine, b)
        np.testing.assert_allclose(O, O.conj().T, atol=1e-10)


def test_observable_zero_for_identity_coupling():
    bundle = make_bundle(3, np.ones(3))
    for b in range(2):
        assert np.max(np.abs(jd_observable(bundle.engine, b))) <= 1e-14


def test_observable_bond_bounds(ref4):
    with pytest.raises(IndexOutOfRange):
        jd_observable(ref4.engine, 3)
    with pytest.raises(IndexOutOfRange):
        jd_observable(ref4.engine, -1)


def test_expectation_depends_only_on_its_bond(ref4, rng):
    rho = random_density(rng, 4)
    base = jd_expectation(ref4.engine, rho)
    currents = ref4.engine.currents.copy()
    currents[2] *= 2.0
    perturbed = dataclasses.replace(
        ref4.engine,
        observables=_observables(ref4.engine.coupling, currents, ref4.gplus),
    )
    after = jd_expectation(perturbed, rho)
    np.testing.assert_allclose(after[:2], base[:2], atol=1e-15)
    np.testing.assert_allclose(after[2], 2.0 * base[2], atol=1e-13)


def test_lstar_density_matches_adjoint(ref4):
    sources = lstar_density(ref4.generator, ref4.ops)
    for r, L in enumerate(sources):
        np.testing.assert_array_equal(L, apply_adjoint(ref4.generator, ref4.ops.n_ops[r]))
    np.testing.assert_allclose(sum(sources), np.zeros((4, 4)), atol=1e-11)


def test_lstar_density_zero_dissipator(rng):
    bundle = make_bundle(3, np.zeros(3))
    for L in lstar_density(bundle.generator, bundle.ops):
        assert not np.any(L)


def test_dephasing_sources_have_no_diagonal():
    """Site-diagonal coupling with a site-diagonal Hamiltonian only damps
    coherences, so the source operators have empty diagonals."""
    from lindcur import (
        EigenSystem,
        bohr_frequencies,
        build_generator,
        default_freq_tol,
        gplus_table,
    )

    eig = EigenSystem(energies=np.array([0.0, 10.0]), basis=np.eye(2, dtype=complex))
    spectrum = bohr_frequencies(eig, default_freq_tol(eig))
    gplus = gplus_table(WhiteNoise(0.25), spectrum)
    G = build_generator(decompose(np.diag([1.0, -1.0]), eig, spectrum), gplus, eig)
    ops = build_chain(ChainSpec(2, 1.0, np.zeros(2), np.array([1.0, -1.0])))
    for L in lstar_density(G, ops):
        np.testing.assert_allclose(np.diag(L), 0.0, atol=1e-14)


def test_running_sum_boundary_conditions(ref4, rng):
    rho = random_density(rng, 4)
    sources = lstar_density(ref4.generator, ref4.ops)
    rates = np.array([np.trace(rho @ L).real for L in sources])
    # both virtual bonds vanish: the left one by construction, the right
    # one because the sources sum to zero
    assert abs(np.sum(rates)) <= 1e-10
    jc = jd_cumulative_1d(ref4.generator, ref4.ops, rho)
    np.testing.assert_allclose(jc, -np.cumsum(rates)[:-1], atol=1e-13)


def test_finite_time_oracle_converges(two_level):
    rho = _two_level_state(two_level.eig)
    je = jd_expectation(two_level.engine, rho)
    dt = min(1.0, np.pi / 10.0) / 80.0
    jo = jd_finite_time_oracle(
        two_level.ops, two_level.eig, two_level.spectrum, two_level.kernel, rho, 20.0, dt
    )
    assert np.max(np.abs(jo - je)) <= 0.02 * np.max(np.abs(je))


def test_oracle_assembled_observable(two_level):
    """Assembling the observable from oracle values on Hermitian unit
    combinations must reproduce jd_observable within quadrature accuracy."""
    dt = min(1.0, np.pi / 10.0) / 80.0

    def oracle(mat):
        return jd_finite_time_oracle(
            two_level.ops, two_level.eig, two_level.spectrum, two_level.kernel,
            mat, 20.0, dt,
        )[0]

    O = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        unit = np.zeros((2, 2), dtype=complex)
        unit[i, i] = 1.0
        O[i, i] = oracle(unit)
    sym = np.zeros((2, 2), dtype=complex)
    sym[0, 1] = sym[1, 0] = 1.0
    asym = np.zeros((2, 2), dtype=complex)
    asym[0, 1], asym[1, 0] = 1.0j, -1.0j
    s, a = oracle(sym), oracle(asym)
    O[0, 1] = (s + 1.0j * a) / 2.0
    O[1, 0] = np.conj(O[0, 1])
    target = jd_observable(two_level.engine, 0)
    assert np.max(np.abs(O - target)) <= 0.05 * np.max(np.abs(target))


def test_oracle_input_guards(two_level):
    rho = _two_level_state(two_level.eig)
    args = (two_level.ops, two_level.eig, two_level.spectrum)
    with pytest.raises(PointwiseUndefined):
        jd_finite_time_oracle(*args, WhiteNoise(0.1), rho, 5.0, 0.004)
    with pytest.raises(StepTooCoarse):
        jd_finite_time_oracle(*args, two_level.kernel, rho, 5.0, 0.02)
    bound = resolution_bound(two_level.kernel, two_level.spectrum)
    with pytest.raises(StepTooCoarse):
        jd_finite_time_oracle(*args, two_level.kernel, rho, 5.0, np.nextafter(bound, 1.0))
    jd_finite_time_oracle(*args, two_level.kernel, rho, 5.0, bound)
    with pytest.raises(ValueError):
        jd_finite_time_oracle(*args, two_level.kernel, rho, 1.0, 0.004)  # below horizon
    with pytest.raises(ValueError):
        jd_finite_time_oracle(*args, two_level.kernel, rho, 0.0, 0.004)
    with pytest.raises(DimensionMismatch):
        jd_finite_time_oracle(*args, two_level.kernel, np.eye(3, dtype=complex) / 3.0, 5.0, 0.004)


def test_divergence_identity_is_machine_exact_here(ref4):
    assert divergence_identity_check(ref4.engine, ref4.generator, ref4.ops) <= 1e-12


def test_divergence_identity_flat_noise():
    bundle = make_bundle(2, [1.0, -1.0], hopping=5.0, kernel=WhiteNoise(0.3))
    assert divergence_identity_check(bundle.engine, bundle.generator, bundle.ops) <= 1e-11


def test_divergence_identity_zero_dissipator():
    bundle = make_bundle(3, np.zeros(3))
    assert divergence_identity_check(bundle.engine, bundle.generator, bundle.ops) == 0.0


def test_observable_divergence_cancels_sources(ref4):
    stack = ref4.engine.observables
    sources = lstar_density(ref4.generator, ref4.ops)
    div = discrete_divergence(list(stack))
    for r in range(4):
        assert np.linalg.norm(div[r] + sources[r]) <= 1e-12


def test_continuity_report_closes_the_balance(ref4):
    traj = evolve(ref4.generator, _site_projector(4), 1.0, 0.01)
    report = continuity_report(ref4.generator, ref4.ops, ref4.engine, traj)
    assert len(report.times) == len(traj.times)
    raw_scale = np.max(np.abs(report.residual_raw))
    for t, rho in enumerate(traj.states):
        np.testing.assert_array_equal(
            report.dn_dt[t], np.diag(ref4.generator.apply_full(rho)).real
        )
        np.testing.assert_allclose(
            report.residual_raw[t], report.site_lstar_density[t], atol=1e-9
        )
        assert np.max(np.abs(report.residual_corrected[t])) <= 1e-8 * max(
            raw_scale, 1e-12
        )
        assert np.sum(report.site_density[t]) == pytest.approx(1.0, abs=1e-10)


def test_continuity_report_matches_per_state_loop(asym4):
    """The batched report against the per-state traces it replaced."""
    G, ops = asym4.generator, asym4.ops
    traj = evolve(G, _site_projector(4), 1.0, 0.01)
    report = continuity_report(G, ops, asym4.engine, traj)
    sources = lstar_density(G, ops)
    obs = asym4.engine.observables
    np.testing.assert_array_equal(report.times, traj.times)
    for t, rho in enumerate(traj.states):
        currents = np.array([np.trace(rho @ J).real for J in ops.j_ops])
        j_diss = np.array([np.trace(rho @ O).real for O in obs])
        dn_dt = np.diag(G.apply_full(rho)).real
        expected = {
            "site_density": np.diag(rho).real,
            "site_lstar_density": np.array([np.trace(rho @ L).real for L in sources]),
            "bond_j_ham": currents,
            "bond_j_diss": j_diss,
            "residual_raw": dn_dt + np.array(discrete_divergence(currents)),
            "residual_corrected": dn_dt
            + np.array(discrete_divergence(currents + j_diss)),
        }
        for field, want in expected.items():
            np.testing.assert_allclose(
                getattr(report, field)[t], want, rtol=0, atol=1e-15
            )


@pytest.mark.parametrize("t_final", [0.0, 0.2])
def test_continuity_report_columns_own_their_data(asym4, t_final):
    """Every column is a float array of its own with one row per state, so
    the report pins neither the stored states nor a complex product."""
    traj = evolve(asym4.generator, _site_projector(4), t_final, 0.01)
    report = continuity_report(asym4.generator, asym4.ops, asym4.engine, traj)
    for field in dataclasses.fields(report):
        column = getattr(report, field.name)
        assert len(column) == len(traj.times), field.name
        assert column.dtype == np.float64, field.name
        assert column.flags.c_contiguous and column.flags.owndata, field.name


def test_continuity_report_trivial_without_dissipation():
    bundle = make_bundle(3, np.zeros(3))
    traj = evolve(bundle.generator, _site_projector(3), 0.5, 0.01)
    report = continuity_report(bundle.generator, bundle.ops, bundle.engine, traj)
    np.testing.assert_allclose(report.bond_j_diss, 0.0, atol=1e-15)
    np.testing.assert_allclose(report.residual_raw, 0.0, atol=1e-12)
    np.testing.assert_allclose(report.residual_corrected, 0.0, atol=1e-12)


def test_engine_dimension_guards(ref4):
    with pytest.raises(DimensionMismatch):
        jd_expectation(ref4.engine, np.eye(3, dtype=complex) / 3.0)


# -- references: the resonance index and the J_D sum as first defined ----------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _meshgrid_quadruples(spectrum):
    """Both resonant families from full bins^4 masks, in row-major order."""
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    J, A, B, R = np.meshgrid(w, w, w, w, indexing="ij", sparse=True)
    nonsingular = np.abs(J) > tol
    first = nonsingular & (np.abs(J + A - B) <= tol) & (np.abs(R) <= tol)
    second = nonsingular & (np.abs(A - B) <= tol) & (np.abs(J + R) <= tol)
    return np.argwhere(first), np.argwhere(second)


def _family_sum(bundle, rho_comps, index):
    """Complex per-bond sum over one quadruple family, for a stack of states.

    rho_comps has shape (states, bins, N, N); the loop runs over quadruples.
    """
    engine, spectrum = bundle.engine, bundle.spectrum
    w = spectrum.frequencies
    tol = spectrum.bin_tolerance
    V = components(engine.coupling)
    bonds = [dataclasses.replace(engine.coupling, source=J) for J in engine.currents]
    J_stack = np.stack([components(bond) for bond in bonds])
    total = np.zeros((len(rho_comps), engine.n_bonds), dtype=complex)
    for aJ, a1, a2, ar in index:
        a2dag = spectrum.index_of(-w[a2])
        if a2dag is None:
            continue
        Vdag = V[a2dag]
        V1 = V[a1]
        P = rho_comps[:, ar]
        coeff = 1j * bundle.gplus.value_at(w[a2], tol) / w[aJ]
        M = Vdag @ P @ V1 - V1 @ Vdag @ P
        total += coeff * np.einsum("bij,sji->sb", J_stack[:, aJ], M)
    return total


def _probe_observables(bundle):
    """O_b read off the quadruple sum on the N^2 Hermitian unit probes."""
    engine = bundle.engine
    N = engine.dimension
    eig, spectrum = bundle.eig, bundle.spectrum
    first, second = _meshgrid_quadruples(spectrum)
    units = np.eye(N * N, dtype=complex).reshape(N * N, N, N)
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    probes = [units[i * N + i] for i in range(N)]
    for i, j in pairs:
        probes.append(units[i * N + j] + units[j * N + i])
        probes.append(1j * (units[i * N + j] - units[j * N + i]))
    comps = np.stack([components(decompose(p, eig, spectrum)) for p in probes])
    values = 2.0 * (
        _family_sum(bundle, comps, first) - _family_sum(bundle, comps, second)
    ).real
    obs = np.zeros((engine.n_bonds, N, N), dtype=complex)
    for i in range(N):
        obs[:, i, i] = values[i]
    for p, (i, j) in enumerate(pairs):
        sym, asym = values[N + 2 * p], values[N + 2 * p + 1]
        obs[:, i, j] = (sym + 1j * asym) / 2.0
        obs[:, j, i] = (sym - 1j * asym) / 2.0
    return obs


@PROPERTY_SETTINGS
@given(chain_models())
def test_closed_form_matches_quadruple_sum(bundle):
    reference = _probe_observables(bundle)
    stack = bundle.engine.observables
    tol = 1e-13 * np.max(np.abs(reference)) + 1e-16
    assert np.max(np.abs(stack - reference)) <= tol


@PROPERTY_SETTINGS
@given(chain_models())
def test_divergence_identity_on_generated_chains(bundle):
    sources = lstar_density(bundle.generator, bundle.ops)
    scale = max(np.linalg.norm(L) for L in sources)
    dev = divergence_identity_check(bundle.engine, bundle.generator, bundle.ops)
    assert dev <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(chain_models())
def test_sorted_index_matches_meshgrid_on_chains(bundle):
    first, second = _meshgrid_quadruples(bundle.spectrum)
    np.testing.assert_array_equal(bundle.engine.first_index, first)
    np.testing.assert_array_equal(bundle.engine.second_index, second)


@st.composite
def near_resonant_spectra(draw):
    """Sorted frequencies with sums and mirrors placed at and around +-tol."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.uniform(-3.0, 3.0, draw(st.integers(1, 5)))
    w = list(base) + list(-base) + [0.0]
    offsets = [
        tol,
        -tol,
        np.nextafter(tol, 1.0),
        -np.nextafter(tol, 1.0),
        np.nextafter(tol, 0.0),
        0.5 * tol,
        0.0,
    ]
    for _ in range(draw(st.integers(0, 12))):
        x, y = rng.choice(base, 2) * rng.choice([-1.0, 1.0], 2)
        delta = offsets[draw(st.integers(0, len(offsets) - 1))]
        w.append(x + y + delta if draw(st.booleans()) else delta - x)
    return BohrSpectrum(frequencies=np.unique(w), bin_tolerance=tol)


@PROPERTY_SETTINGS
@given(near_resonant_spectra())
def test_sorted_index_matches_meshgrid_near_tolerance(spectrum):
    for got, want in zip(_resonant_quadruples(spectrum), _meshgrid_quadruples(spectrum)):
        np.testing.assert_array_equal(got, want)


def test_sixteen_site_chain_is_reachable():
    """The bins^4 masks made N = 16 unbuildable; the sorted index does not."""
    rng = np.random.default_rng(16)
    bundle = make_bundle(16, rng.uniform(-1.0, 1.0, 16), potential=rng.normal(0.0, 0.3, 16))
    assert bundle.engine.observables.shape == (15, 16, 16)
    sources = lstar_density(bundle.generator, bundle.ops)
    scale = max(np.linalg.norm(L) for L in sources)
    dev = divergence_identity_check(bundle.engine, bundle.generator, bundle.ops)
    assert dev <= 1e-12 * scale
