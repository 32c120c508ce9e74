"""End-to-end acceptance checks.

Each test measures one contract of the package at its stated tolerance and
prints a single CRITERION line before asserting, so a verbose run reads as a
checklist.  Tolerances here are the shipped guarantees; the unit tests pin
much tighter values.
"""
import json

import numpy as np
import pytest

import lindcur as lc
from lindcur.cli import main
from conftest import make_bundle, random_density


def _report(number, slug, ok, detail):
    print(f"CRITERION {number} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _site_projector(n, site):
    rho = np.zeros((n, n), dtype=complex)
    rho[site, site] = 1.0
    return rho


def test_criterion_1_hamiltonian_continuity():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for n in (2, 4, 6):
        spec = lc.ChainSpec(n, 1.0, rng.normal(size=n), np.zeros(n))
        ops = lc.build_chain(spec)
        div = lc.discrete_divergence(list(ops.j_ops))
        for n_r, d in zip(ops.n_ops, div):
            residual = 1j * (ops.h @ n_r - n_r @ ops.h) + d
            worst = max(worst, float(np.max(np.abs(residual))))
    ok = worst <= 1e-14
    _report(1, "hamiltonian_continuity", ok, f"max residual {worst:.3e} <= 1e-14")


def test_criterion_2_generator_invariants(ref4):
    rng = np.random.default_rng(41)
    white = lc.gplus_table(lc.WhiteNoise(gamma=0.1), ref4.spectrum)
    coupling = lc.decompose(ref4.ops.v, ref4.eig, ref4.spectrum)
    generators = [ref4.generator, lc.build_generator(coupling, white, ref4.eig)]
    worst_trace = worst_unital = worst_herm = 0.0
    for G in generators:
        ident = np.eye(4, dtype=complex)
        worst_unital = max(
            worst_unital, float(np.max(np.abs(lc.apply_adjoint(G, ident))))
        )
        for _ in range(100):
            rho = random_density(rng, 4)
            image = G.apply_full(rho)
            worst_trace = max(worst_trace, abs(np.trace(image)))
            worst_herm = max(
                worst_herm, float(np.max(np.abs(image - image.conj().T)))
            )
    ok = worst_trace <= 1e-11 and worst_unital <= 1e-11 and worst_herm <= 1e-11
    _report(
        2,
        "generator_invariants",
        ok,
        f"trace {worst_trace:.3e}, unitality {worst_unital:.3e}, "
        f"hermiticity {worst_herm:.3e}, all <= 1e-11",
    )


def test_criterion_3_divergence_identity(ref4):
    worst = 0.0
    for bundle in (ref4, make_bundle(6, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])):
        sources = lc.lstar_density(bundle.generator, bundle.ops)
        scale = max(1.0, max(float(np.linalg.norm(L)) for L in sources))
        dev = lc.divergence_identity_check(
            bundle.engine, bundle.generator, bundle.ops
        )
        worst = max(worst, dev / scale)
    ok = worst <= 1e-9
    _report(3, "divergence_identity", ok, f"max relative deviation {worst:.3e} <= 1e-9")


def test_criterion_4_dual_route_agreement(ref4):
    with pytest.raises(lc.DegenerateKernel):
        lc.steady_state(ref4.generator)
    dt = 0.0025

    # stationary leg: the maximally mixed state is exactly stationary here
    # and carries no correction current, so all three routes sit at zero.
    mixed = np.eye(4, dtype=complex) / 4.0
    assert np.max(np.abs(ref4.generator.apply_full(mixed))) <= 1e-12
    je_s = lc.jd_expectation(ref4.engine, mixed)
    jc_s = lc.jd_cumulative_1d(ref4.generator, ref4.ops, mixed)
    oracle_s = lc.jd_finite_time_oracle(
        ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, mixed, t=50.0, dt=dt
    )
    ok_s = (
        float(np.max(np.abs(je_s - jc_s))) <= 1e-6
        and float(np.max(np.abs(oracle_s - je_s))) <= 1e-9
    )

    # transient leg: a corner occupation drives a nonzero correction
    rho = _site_projector(4, 0)
    je = lc.jd_expectation(ref4.engine, rho)
    jc = lc.jd_cumulative_1d(ref4.generator, ref4.ops, rho)
    route_gap = float(np.max(np.abs(je - jc)))
    offset = abs(float(np.mean(je - jc)))
    errs = {}
    for t in (50.0, 200.0):
        oracle = lc.jd_finite_time_oracle(
            ref4.ops, ref4.eig, ref4.spectrum, ref4.kernel, rho, t=t, dt=dt
        )
        errs[t] = np.abs(oracle - je)
    rel_final = float(np.max(errs[200.0] / np.abs(je)))
    ok_t = (
        route_gap <= 1e-6
        and offset <= 1e-6
        and np.all(errs[200.0] < errs[50.0])
        and rel_final <= 0.05
    )
    _report(
        4,
        "dual_route_agreement",
        ok_s and ok_t,
        f"stationary gap {np.max(np.abs(oracle_s - je_s)):.3e}; transient: "
        f"route gap {route_gap:.3e}, oracle rel err at t=200 {rel_final:.3%}",
    )


def test_criterion_5_finite_window_convergence(two_level):
    kappa = two_level.kernel.kappa
    coupling = two_level.engine.coupling
    w_max = float(np.max(np.abs(two_level.spectrum.frequencies)))
    dt = min(1.0 / kappa, np.pi / w_max) / 80.0
    windows = np.array([25.0, 50.0, 100.0, 200.0]) / kappa
    target = two_level.generator.dissipator.matrix
    dists = []
    for delta in windows:
        pre = lc.pre_lindblad_generator(coupling, two_level.kernel, delta, dt)
        dists.append(float(np.max(np.abs(pre - target))))
    dists = np.array(dists)
    slope = np.polyfit(np.log(windows), np.log(dists), 1)[0]
    ok = bool(np.all(np.diff(dists) < 0)) and -1.3 <= slope <= -0.7
    _report(
        5,
        "finite_window_convergence",
        ok,
        f"distances {np.array2string(dists, precision=3)}, slope {slope:.3f} in [-1.3, -0.7]",
    )


def test_criterion_6_long_horizon_continuity(ref4):
    eigvals = np.linalg.eigvals(ref4.generator.full_matrix())
    decays = -eigvals.real
    gamma_eff = float(np.min(decays[decays > 1e-10]))
    assert 0.028 < gamma_eff < 0.029
    t_final = 20.0 / gamma_eff
    traj = lc.evolve(ref4.generator, _site_projector(4, 0), t_final, dt=0.02)
    report = lc.continuity_report(ref4.generator, ref4.ops, ref4.engine, traj)
    raw, corrected = report.residual_raw, report.residual_corrected
    lstar = report.site_lstar_density
    raw_scale = float(np.max(np.abs(raw)))
    worst_corr = float(np.max(np.abs(corrected)))
    worst_src = float(np.max(np.abs(raw - lstar)))
    ok = worst_corr <= 1e-3 * raw_scale and worst_src <= 1e-9
    _report(
        6,
        "long_horizon_continuity",
        ok,
        f"t_final {t_final:.1f}, corrected {worst_corr:.3e} vs raw scale "
        f"{raw_scale:.3e}, raw-source gap {worst_src:.3e}",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    payload = {
        "model": {"n_sites": 4, "coupling": [1.0, -1.0, 1.0, -1.0]},
        "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        "run": {"t_final": 2.0, "dt": 0.002, "initial_state": "site:0"},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")

    assert main(["verify", "--config", str(cfg), "--suite", "all"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--config", str(cfg), "--suite", "all"]) == 0
    second = capsys.readouterr().out
    same_verify = first == second and first.count("PASS") == 9

    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    same_files = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("density.csv", "currents.csv")
    )
    ok = same_verify and same_files
    _report(
        7,
        "determinism",
        ok,
        f"verify stdout identical: {same_verify}; csv outputs identical: {same_files}",
    )
