import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindcur import cli, current, lindblad
from lindcur.cli import main
from lindcur.config import parse_config
from lindcur.current import ContinuityReport
from lindcur.errors import PositivityLost
from lindcur.lindblad import LindbladGenerator

CHECK_LINE = re.compile(
    r"^CHECK (\S+) measured=(-?\d\.\d{6}e[+-]\d{2,3})"
    r" threshold=(-?\d\.\d{6}e[+-]\d{2,3}) (PASS|FAIL)$"
)


def _config(tmp_path, payload, name="config.json"):
    payload.setdefault("output", {})["directory"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _reference_payload():
    return {
        "model": {"n_sites": 4, "coupling": [1.0, -1.0, 1.0, -1.0]},
        "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        "run": {"t_final": 2.0, "dt": 0.002, "initial_state": "site:0"},
    }


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_writes_tables(tmp_path):
    cfg = _config(
        tmp_path,
        {"model": {"n_sites": 3}, "run": {"t_final": 1.0, "dt": 0.005}},
    )
    assert main(["simulate", "--config", cfg]) == 0
    header, rows = _read_rows(tmp_path / "out" / "density.csv")
    assert header == "time,site,n,dn_dt,lstar_n,residual_raw,residual_corrected"
    assert len(rows) == 201 * 3
    assert [r[1] for r in rows[:3]] == ["0", "1", "2"]
    header, rows = _read_rows(tmp_path / "out" / "currents.csv")
    assert header == "time,bond,j_ham,j_diss,j_total"
    assert len(rows) == 201 * 2


def test_simulate_zero_coupling_has_no_correction(tmp_path):
    cfg = _config(
        tmp_path,
        {"model": {"n_sites": 3}, "run": {"t_final": 0.5, "dt": 0.005}},
    )
    assert main(["simulate", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "out" / "currents.csv")
    j_diss = np.array([float(r[3]) for r in rows])
    assert not np.any(j_diss)
    _, rows = _read_rows(tmp_path / "out" / "density.csv")
    lstar = np.array([float(r[4]) for r in rows])
    assert not np.any(lstar)


def test_simulate_accepts_coarse_steps(tmp_path, capsys):
    """Steps are exact, so dt only spaces the stored states."""
    payload = _reference_payload()
    payload["run"].update(t_final=5.0, dt=0.5)
    cfg = _config(tmp_path, payload)
    assert main(["simulate", "--config", cfg]) == 0
    assert "ERROR" not in capsys.readouterr().err
    _, rows = _read_rows(tmp_path / "out" / "density.csv")
    assert len(rows) == 11 * 4


def test_simulate_is_byte_deterministic(tmp_path):
    payload = _reference_payload()
    payload["run"]["t_final"] = 0.5
    cfg = _config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("density.csv", "currents.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_and_steady_read_no_dense_generator(tmp_path, monkeypatch):
    """The dense N^2 x N^2 views of the generator are off both commands'
    paths: with each of them raising, the tables come out the same."""
    payload = {
        "model": {"n_sites": 4, "coupling": [0.7, -1.1, 0.4, 0.9]},
        "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        "run": {"t_final": 1.0, "dt": 0.01, "initial_state": "site:0"},
    }
    cfg = _config(tmp_path, payload)
    for command in ("simulate", "steady"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0

    def dense(*args):
        raise AssertionError("dense generator read")

    monkeypatch.setattr(LindbladGenerator, "full_matrix", dense)
    for name in ("hamiltonian_part", "dissipator", "dissipator_adjoint"):
        monkeypatch.setattr(LindbladGenerator, name, property(dense), raising=False)
    for command in ("simulate", "steady"):
        out = tmp_path / f"{command}_guarded"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in ("density.csv", "currents.csv"):
            assert (out / name).read_bytes() == (tmp_path / command / name).read_bytes()


def test_out_flag_overrides_directory(tmp_path):
    cfg = _config(tmp_path, {"model": {"n_sites": 2}, "run": {"t_final": 0.2, "dt": 0.005}})
    target = tmp_path / "elsewhere"
    assert main(["simulate", "--config", cfg, "--out", str(target)]) == 0
    assert (target / "density.csv").exists()
    assert not (tmp_path / "out" / "density.csv").exists()


def test_steady_writes_single_time_block(tmp_path):
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 4, "coupling": [0.7, -1.1, 0.4, 0.9]},
            "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        },
    )
    assert main(["steady", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "out" / "density.csv")
    assert len(rows) == 4
    assert all(float(r[0]) == 0.0 for r in rows)
    # stationarity: density sources balance exactly
    residuals = np.array([float(r[5]) for r in rows])
    assert np.max(np.abs(residuals)) <= 1e-9


def test_steady_refuses_degenerate_model(tmp_path, capsys):
    cfg = _config(tmp_path, _reference_payload())
    assert main(["steady", "--config", cfg]) == 1
    assert "DegenerateKernel" in capsys.readouterr().err


def test_verify_all_passes_on_reference_model(tmp_path, capsys):
    cfg = _config(tmp_path, _reference_payload())
    assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    names = []
    for line in lines:
        m = CHECK_LINE.match(line)
        assert m, line
        assert m.group(4) == "PASS"
        names.append(m.group(1))
    assert names[:4] == [
        "continuity_raw_source",
        "continuity_corrected",
        "divergence_identity",
        "lstar_unitality",
    ]
    assert "oracle_spectral_vs_cumulative" in names
    assert "prelindblad_slope" in names


def test_verify_continuity_supports_flat_noise(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "hopping": 5.0, "coupling": [1.0, -1.0]},
            "bath": {"type": "white", "gamma": 0.2},
            "run": {"t_final": 2.0, "dt": 0.002, "initial_state": "site:1"},
        },
    )
    assert main(["verify", "--config", cfg, "--suite", "continuity"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_oracle_rejects_flat_noise(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "hopping": 5.0, "coupling": [1.0, -1.0]},
            "bath": {"type": "white", "gamma": 0.2},
        },
    )
    assert main(["verify", "--config", cfg, "--suite", "oracle"]) == 3
    captured = capsys.readouterr()
    assert "pointwise" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["oracle", "prelindblad", "all"])
def test_verify_rejects_flat_noise_before_building(tmp_path, capsys, monkeypatch, suite):
    """A white bath ends a pointwise suite with exit 3 before the workbench
    is built, so a model too large to build is refused the same way."""
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "hopping": 5.0, "coupling": [1.0, -1.0]},
            "bath": {"type": "white", "gamma": 0.2},
        },
    )

    def exhaust(cfg):
        raise MemoryError("Unable to allocate 1.27 GiB for an array")

    monkeypatch.setattr(cli, "build_workbench", exhaust)
    assert main(["verify", "--config", cfg, "--suite", suite]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "ERROR suite requires a pointwise-evaluable bath kernel; white noise has none"
    ]
    assert captured.out == ""


def _uniform_chain(coupling):
    """The zero-potential four-site chain of the uniform verify workload."""
    return {
        "model": {"n_sites": 4, "potential": [0.0] * 4, "coupling": list(coupling)},
        "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        "run": {"t_final": 10.0, "dt": 0.01, "initial_state": "site:0"},
    }


def test_verify_oracle_passes_where_the_error_oscillates(tmp_path, capsys):
    """On this chain the oracle's error oscillates under its 1 / t envelope
    and is larger at 200 / w_min than at 50 / w_min, so a comparison of
    those two point values fails; the envelope check passes."""
    coupling = [
        0.018742983402663116,
        0.8588781452149503,
        0.4182496300491896,
        0.20679161625823084,
    ]
    cfg = _config(tmp_path, _uniform_chain(coupling))
    assert main(["verify", "--config", cfg, "--suite", "oracle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [CHECK_LINE.match(line).group(4) for line in lines] == ["PASS"] * 3


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_oracle_checks_pass_on_uniform_chains(tmp_path_factory, coupling):
    directory = tmp_path_factory.mktemp("uniform")
    wb = cli.build_workbench(parse_config(_config(directory, _uniform_chain(coupling))))
    checks = cli._oracle_checks(wb)
    assert [c.name for c in checks] == [
        "oracle_spectral_vs_cumulative",
        "oracle_finite_time",
        "oracle_error_decreasing",
    ]
    assert all(c.passed for c in checks), checks


def test_verify_walks_each_finite_window_ladder_once(tmp_path, monkeypatch):
    """The oracle and pre-Lindblad checks each read their whole ladder off
    one sampled pass over its longest window."""
    draws = []
    sampled_window = lindblad.sampled_window

    def spy(V, k, t, dt, stacks):
        h, ends, chunks = sampled_window(V, k, t, dt, stacks)
        draws.append([np.max(t), 0])

        def counted():
            for chunk in chunks:
                draws[-1][1] += len(chunk[0])
                yield chunk

        return h, ends, counted()

    monkeypatch.setattr(lindblad, "sampled_window", spy)
    monkeypatch.setattr(current, "sampled_window", spy)
    wb = cli.build_workbench(
        parse_config(_config(tmp_path, _uniform_chain([0.3, -0.8, 0.5, 0.9])))
    )
    cli._oracle_checks(wb)
    assert len(draws) == 1
    cli._prelindblad_checks(wb)
    assert len(draws) == 2
    longest, samples = draws[1]
    n_longest = math.ceil(longest / cli._oracle_quadrature_dt(wb))
    assert longest == max(cli.PRELINDBLAD_LADDER) / wb.kernel.kappa
    assert samples == n_longest + 1


def test_verify_builds_the_jd_observables_once(tmp_path, monkeypatch, capsys):
    """The three checks that read O_b (the spectral expectation, the
    divergence identity and the continuity columns) share the stack that
    build_engine forms."""
    calls = []
    observables = current._observables

    def spy(*args):
        calls.append(1)
        return observables(*args)

    monkeypatch.setattr(current, "_observables", spy)
    cfg = parse_config(_config(tmp_path, _uniform_chain([0.3, -0.8, 0.5, 0.9])))
    cli.run_verify(cfg, "all")
    assert "CHECK divergence_identity" in capsys.readouterr().out
    assert len(calls) == 1


def test_workbench_decomposes_the_coupling_once(tmp_path, monkeypatch):
    """build_generator and build_engine share one decomposition."""
    calls = []
    decompose = cli.decompose

    def spy(*args):
        calls.append(1)
        return decompose(*args)

    monkeypatch.setattr(cli, "decompose", spy)
    monkeypatch.setattr(current, "decompose", spy)
    cli.build_workbench(parse_config(_config(tmp_path, _reference_payload())))
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "steady"])
def test_tables_never_form_the_resonance_index(tmp_path, monkeypatch, command):
    """simulate and steady read the engine's observables only; the
    resonance index is formed on access, off their path."""

    def refuse(spectrum):
        raise AssertionError("the resonance index was formed")

    monkeypatch.setattr(current, "_resonant_quadruples", refuse)
    payload = _reference_payload()
    payload["model"]["coupling"] = [0.7, -1.1, 0.4, 0.9]  # a unique steady state
    assert main([command, "--config", _config(tmp_path, payload)]) == 0


def test_verify_all_peaks_within_three_chunk_budgets(tmp_path, capsys):
    """Each finite-window quadrature holds one chunk's whole working set,
    CHUNK_BYTES, at a time, so a whole verify run on the uniform four-site
    chain peaks within a few of them."""
    coupling = [
        0.7899454815796774, 0.7208288735498751, -0.3572503553249733, -0.3662507829346431
    ]
    cfg = parse_config(_config(tmp_path, _uniform_chain(coupling)))
    tracemalloc.start()
    try:
        assert cli.run_verify(cfg, "all") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * lindblad.CHUNK_BYTES, peak


@pytest.mark.xfail(
    strict=True,
    reason="the pre-Lindblad ladder's slope is -1.37 on this chain, 0.365 from -1 "
    "against the threshold 0.3 (ROADMAP item 6)",
)
def test_prelindblad_slope_passes_on_a_uniform_chain(tmp_path):
    """The coupling of the uniform verify workload at seed 16."""
    coupling = [
        -0.7659660904974777, 0.5001929078994154, 0.7151349129295994, -0.8175210117497469
    ]
    wb = cli.build_workbench(parse_config(_config(tmp_path, _uniform_chain(coupling))))
    slope = {c.name: c for c in cli._prelindblad_checks(wb)}["prelindblad_slope"]
    assert slope.passed, slope


def test_verify_all_trivial_for_decoupled_bath(tmp_path, capsys):
    cfg = _config(
        tmp_path, {"model": {"n_sites": 3}, "run": {"t_final": 1.0, "dt": 0.005}}
    )
    assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("FAIL") == 0


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "ERROR ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "state",
    [
        {"re": [[0.5, 0.0], [0.0]]},
        {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.3], [0.3, 0.0]]},
    ],
    ids=["ragged", "non_hermitian"],
)
def test_malformed_state_file_exits_one(tmp_path, capsys, command, state):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state), encoding="utf-8")
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "coupling": [1.0, -1.0]},
            "run": {"t_final": 0.1, "initial_state": f"file:{state_path}"},
        },
    )
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ERROR ValidationError: run.initial_state")


KERNEL_HEADER = "tau,re_g,im_g\n"


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "text",
    [
        KERNEL_HEADER + "0,0.1,0\n1,abc,0\n",
        "tau,re,im\n0,0.1,0\n1,0.05,0\n",
        KERNEL_HEADER + "0.5,0.1,0\n1,0.05,0\n",
        KERNEL_HEADER + "0,0.1,0\n2,0.05,0\n1,0.01,0\n",
        KERNEL_HEADER + "0,0.1,0\n1,nan,0\n2,0.01,0\n",
        KERNEL_HEADER + "0,0.1,0\n",
        KERNEL_HEADER + "0,0.1,0\n1,0.05\n2,0.01,0\n",
        KERNEL_HEADER + "0,0.1,0,7\n1,0.05,0\n2,0.01,0\n",
    ],
    ids=[
        "bad_number",
        "bad_header",
        "grid_not_at_zero",
        "decreasing_grid",
        "nan_value",
        "one_sample",
        "short_row",
        "long_row",
    ],
)
def test_malformed_kernel_file_exits_one(tmp_path, capsys, command, text):
    csv_path = tmp_path / "kernel.csv"
    csv_path.write_text(text, encoding="utf-8")
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "coupling": [1.0, -1.0]},
            "bath": {"type": "tabulated", "file": str(csv_path)},
            "run": {"t_final": 0.1},
        },
    )
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ERROR ValidationError: bath.file")


def test_negative_bath_spectrum_exits_two(tmp_path, capsys):
    taus = np.linspace(0.0, 1.2, 400)
    vals = np.exp(-taus) * np.cos(10.0 * taus)
    csv_path = tmp_path / "kernel.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("tau,re_g,im_g\n")
        for t, v in zip(taus, vals):
            fh.write(f"{float(t)!r},{float(v)!r},0.0\n")
    cfg = _config(
        tmp_path,
        {
            "model": {"n_sites": 2, "hopping": 3.0, "coupling": [1.0, -1.0]},
            "bath": {"type": "tabulated", "file": str(csv_path)},
        },
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "PositivityViolation" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """Importing the CLI stays cheap: no scipy, and no formatter table."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, lindcur.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(lindcur.cli._format_tables.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "0"]


def _per_value_writer(report, n_sites, prec, out_dir):
    """The per-value f-string writer that the columnar _write_csvs replaced."""

    def fmt(x):
        return f"{x:.{prec}e}"

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "density.csv"), "w", encoding="utf-8") as fh:
        fh.write("time,site,n,dn_dt,lstar_n,residual_raw,residual_corrected\n")
        for t, time in enumerate(report.times):
            for r in range(n_sites):
                values = (
                    report.site_density[t, r],
                    report.dn_dt[t, r],
                    report.site_lstar_density[t, r],
                    report.residual_raw[t, r],
                    report.residual_corrected[t, r],
                )
                fh.write(",".join([fmt(time), str(r), *map(fmt, values)]) + "\n")
    with open(os.path.join(out_dir, "currents.csv"), "w", encoding="utf-8") as fh:
        fh.write("time,bond,j_ham,j_diss,j_total\n")
        for t, time in enumerate(report.times):
            for b in range(n_sites - 1):
                jh, jd = report.bond_j_ham[t, b], report.bond_j_diss[t, b]
                fh.write(",".join([fmt(time), str(b), fmt(jh), fmt(jd), fmt(jh + jd)]) + "\n")


def _crafted_report(n_states, n_sites):
    """A report with values over many decades and the edge values -0.0,
    1e-300 and 1e300, spread over more than one write block."""
    rng = np.random.default_rng(7)

    def values(*shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        flat = x.reshape(-1)
        flat[rng.integers(0, flat.size, 3)] = [-0.0, 1e-300, 1e300]
        return x

    site_fields = values(5, n_states, n_sites)
    bond_fields = values(2, n_states, n_sites - 1)
    times = np.cumsum(rng.uniform(0.0, 0.3, n_states))
    times[0] = -0.0
    return ContinuityReport(
        times=times,
        site_density=site_fields[0],
        dn_dt=site_fields[1],
        site_lstar_density=site_fields[2],
        bond_j_ham=bond_fields[0],
        bond_j_diss=bond_fields[1],
        residual_raw=site_fields[3],
        residual_corrected=site_fields[4],
    )


def _report_rows(report, part):
    """The report of the states in the slice part."""
    return ContinuityReport(
        **{f.name: getattr(report, f.name)[part] for f in dataclasses.fields(report)}
    )


@pytest.mark.parametrize("precision", [1, 2, 12, 13, 14, 17])
def test_columnar_csvs_match_per_value_writer(tmp_path, precision):
    """The block writer, given the crafted report in two uneven blocks."""
    report = _crafted_report(2 * cli.CSV_BLOCK + 3, 3)
    with cli._open_tables(str(tmp_path / "columnar"), precision) as write:
        write(_report_rows(report, slice(None, cli.CSV_BLOCK + 5)))
        write(_report_rows(report, slice(cli.CSV_BLOCK + 5, None)))
    _per_value_writer(report, 3, precision, str(tmp_path / "per_value"))
    for name in ("density.csv", "currents.csv"):
        got = (tmp_path / "columnar" / name).read_bytes()
        assert got == (tmp_path / "per_value" / name).read_bytes()


def _step(value, ulps):
    """value moved by ulps units in the last place."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


def _format_values(prec):
    """Floats over all exponents, and the values where a %e formatter goes
    wrong: decade edges and values just below them, near-ties of the last
    digit, round-ups into the next decade, and the specials."""
    exponent = st.integers(-300, 280)
    ulps = st.integers(-2, 2)
    magnitudes = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.builds(
            lambda k, d: float(np.nextafter(10.0**k, d)),
            st.integers(-307, 308),
            st.sampled_from([math.inf, -math.inf]),
        ),
        st.builds(
            lambda k, d, f: 10.0**k * (1.0 - f * 10.0**-d),
            exponent,
            st.integers(1, 17),
            st.floats(0.1, 9.9),
        ),
        st.builds(
            lambda m, k, u: _step((m + 0.5) * 10.0**k, u),
            st.integers(10**prec, 10 ** (prec + 1) - 1),
            exponent,
            ulps,
        ),
        st.builds(
            lambda k, u: _step((10 ** (prec + 1) - 0.5) * 10.0**k, u),
            exponent,
            ulps,
        ),
        st.sampled_from(
            [0.0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
             9.9999999999995e-3]
        ),
    )
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(1, 17).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_format_values(p), min_size=1, max_size=16))
))
def test_float_slots_hold_the_bytes_of_percent_e(case):
    prec, values = case
    slots = cli._float_slots(np.array(values), prec)
    for value, slot in zip(values, slots):
        assert bytes(slot[slot != 0]) == (f"%.{prec}e" % value).encode(), (prec, value)


def test_fast_path_formats_nearly_every_value(monkeypatch):
    fallback = []

    def spy(values, prec):
        fallback.extend(values.tolist())
        return real(values, prec)

    real = cli._format_fallback
    monkeypatch.setattr(cli, "_format_fallback", spy)
    rng = np.random.default_rng(3)
    x = rng.normal(size=10_000) * 10.0 ** rng.uniform(-6, 2, 10_000)
    slots = cli._float_slots(x, 12)
    assert bytes(slots[slots != 0]) == "".join("%.12e" % v for v in x).encode()
    assert len(fallback) < 0.02 * len(x)


def _write_csv(path, times, columns):
    """A header line, then _write_rows of the columns."""
    with open(path, "wb") as fh:
        fh.write(b"h\n")
        cli._write_rows(fh, 12, times, columns)


def test_csvs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    report = _crafted_report(700, 7)
    columns = [report.site_density, report.dn_dt, report.residual_raw]
    _write_csv(tmp_path / "default.csv", report.times, columns)
    monkeypatch.setattr(cli, "CSV_BLOCK", 1)
    _write_csv(tmp_path / "one_state.csv", report.times, columns)
    assert (tmp_path / "default.csv").read_bytes() == (
        tmp_path / "one_state.csv"
    ).read_bytes()


def _write_table_peak(path, n_states, n_sites):
    rng = np.random.default_rng(n_states + n_sites)
    times = np.arange(n_states) * 0.01
    columns = [
        rng.normal(size=(n_states, n_sites)) * 10.0 ** rng.uniform(-6, 2, (n_states, n_sites))
        for _ in range(5)
    ]
    tracemalloc.start()
    try:
        _write_csv(path, times, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_table_memory_is_bounded_by_rows(tmp_path):
    short = _write_table_peak(tmp_path / "short.csv", 2_001, 4)
    long = _write_table_peak(tmp_path / "long.csv", 10_001, 4)
    bound = 1.1 * min(short, long)
    assert max(short, long) <= bound, (short, long)
    assert _write_table_peak(tmp_path / "wide.csv", 201, 64) <= bound


def _simulate_config(tmp_path, n_sites, t_final, name="config.json"):
    coupling = np.random.default_rng(n_sites).uniform(-1.0, 1.0, n_sites)
    payload = {
        "model": {"n_sites": n_sites, "coupling": coupling.tolist()},
        "bath": {"type": "exponential", "gamma": 0.1, "kappa": 5.0},
        "run": {"t_final": t_final, "dt": 0.01, "initial_state": "site:0"},
    }
    return _config(tmp_path, payload, name)


def _simulate_peak(path):
    cfg = parse_config(path)
    tracemalloc.start()
    try:
        assert cli.run_simulate(cfg) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_depend_on_the_horizon(tmp_path):
    """A block of states is reported, written and dropped before the next
    one is propagated, so ten thousand steps peak where two thousand do."""
    _simulate_peak(_simulate_config(tmp_path, 4, 0.1, "warm.json"))
    short = _simulate_peak(_simulate_config(tmp_path, 4, 20.0, "short.json"))
    long = _simulate_peak(_simulate_config(tmp_path, 4, 100.0, "long.json"))
    assert max(short, long) <= 1.1 * min(short, long), (short, long)


def test_simulate_csvs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    cfg = _simulate_config(tmp_path, 7, 12.0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "CSV_BLOCK", 1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("density.csv", "currents.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "steady"])
def test_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    cfg = _config(tmp_path, _reference_payload())

    def refuse(*args, **kwargs):
        raise AssertionError("propagated before the output was opened")

    monkeypatch.setattr(cli, "evolve", refuse)
    monkeypatch.setattr(cli, "steady_state", refuse)
    out = str(blocker / "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR NotADirectoryError: "), err


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass."""


@pytest.mark.parametrize("command", ["simulate", "steady", "verify"])
def test_memory_error_ends_in_one_error_line(tmp_path, capsys, monkeypatch, command):
    """A model too large to build ends main with exit 1 and one line, not
    a traceback, whatever MemoryError subclass numpy raises."""
    cfg = _config(tmp_path, _reference_payload())

    def exhaust(cfg):
        raise _ArrayMemoryError("Unable to allocate 1.27 GiB for an array")

    monkeypatch.setattr(cli, "build_workbench", exhaust)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR MemoryError: Unable to allocate 1.27 GiB for an array"]


def test_failed_run_leaves_earlier_tables_unchanged(tmp_path, monkeypatch):
    """Rows already written when positivity is lost stay in temporaries,
    which are removed; the tables of the earlier run are kept."""
    payload = _reference_payload()
    payload["run"]["t_final"] = 3.0
    cfg = _config(tmp_path, payload)
    assert main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"
    before = {name: (out / name).read_bytes() for name in ("density.csv", "currents.csv")}
    guard = lindblad._guard_positivity
    calls = []

    def fail_third(chunk, first, h):
        calls.append(first)
        if len(calls) == 3:
            raise PositivityLost(f"injected at t={h * first:.6g}")
        guard(chunk, first, h)

    monkeypatch.setattr(lindblad, "_guard_positivity", fail_third)
    monkeypatch.setattr(cli, "CSV_BLOCK", 16 * 4)  # rows are written before the error
    assert main(["simulate", "--config", cfg]) == 2
    assert len(calls) == 3
    assert sorted(os.listdir(out)) == sorted(before)
    for name, data in before.items():
        assert (out / name).read_bytes() == data
