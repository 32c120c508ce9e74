import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindcur import cli
from lindcur.cli import main
from lindcur.config import parse_config
from lindcur.current import ContinuityReport

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


def test_simulate_is_byte_deterministic(tmp_path):
    payload = _reference_payload()
    payload["run"]["t_final"] = 0.5
    cfg = _config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("density.csv", "currents.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, lindcur.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_columnar_csvs_match_per_value_writer(tmp_path, monkeypatch, precision):
    cfg = parse_config(
        _config(tmp_path, {"model": {"n_sites": 3}, "run": {"t_final": 0.1, "dt": 0.005}})
    )
    cfg = dataclasses.replace(
        cfg, output=dataclasses.replace(cfg.output, precision=precision)
    )
    wb = cli.build_workbench(cfg)
    report = _crafted_report(2 * cli.CSV_BLOCK + 3, 3)
    monkeypatch.setattr(cli, "continuity_report", lambda *args: report)
    cli._write_csvs(wb, None, str(tmp_path / "columnar"))
    _per_value_writer(report, 3, precision, str(tmp_path / "per_value"))
    for name in ("density.csv", "currents.csv"):
        got = (tmp_path / "columnar" / name).read_bytes()
        assert got == (tmp_path / "per_value" / name).read_bytes()
