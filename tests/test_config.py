import json

import numpy as np
import pytest

from lindcur import Exponential, ParseError, Tabulated, ValidationError, WhiteNoise
from lindcur.config import make_kernel, parse_config, resolve_initial_state
from lindcur.linalg import hermitian_eigensystem


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _minimal(tmp_path, **overrides):
    payload = {"model": {"n_sites": 2}}
    payload.update(overrides)
    return _write(tmp_path, payload)


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(_minimal(tmp_path))
    assert cfg.model.n_sites == 2
    assert cfg.model.hopping == 1.0
    assert cfg.model.potential == (0.0, 0.0)
    assert cfg.model.coupling == (0.0, 0.0)
    assert cfg.bath.type == "exponential"
    assert cfg.bath.gamma == 0.1
    assert cfg.bath.kappa == 1.0
    assert cfg.bath.omega0 == 0.0
    assert cfg.run.t_final == 10.0
    assert cfg.run.dt == 0.01
    assert cfg.run.initial_state == "mixed"
    assert cfg.spectral.freq_tol is None
    assert cfg.tolerances.positivity == 1e-10
    assert cfg.tolerances.conservation == 1e-9
    assert cfg.output.directory == "out"
    assert cfg.output.precision == 12


def test_full_config_roundtrip(tmp_path):
    path = _write(
        tmp_path,
        {
            "model": {
                "n_sites": 3,
                "hopping": 2.0,
                "potential": [0.1, 0.0, -0.1],
                "coupling": [1.0, 0.0, -1.0],
            },
            "bath": {"type": "exponential", "gamma": 0.2, "kappa": 5.0, "omega0": 1.0},
            "run": {"t_final": 4.0, "dt": 0.002, "initial_state": "site:1"},
            "spectral": {"freq_tol": 1e-8},
            "tolerances": {"positivity": 1e-9, "conservation": 1e-8},
            "output": {"directory": "results", "precision": 15},
        },
    )
    cfg = parse_config(path)
    assert cfg.model.coupling == (1.0, 0.0, -1.0)
    assert cfg.bath.kappa == 5.0
    assert cfg.run.initial_state == "site:1"
    assert cfg.spectral.freq_tol == 1e-8
    assert cfg.output.precision == 15


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": {', encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        parse_config(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_config(str(tmp_path / "nope.json"))


def test_model_section_required(tmp_path):
    with pytest.raises(ValidationError, match="model: required"):
        parse_config(_write(tmp_path, {}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2}, "extra": 1}))
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2, "sites": 3}}))


def test_coupling_length_checked(tmp_path):
    path = _write(tmp_path, {"model": {"n_sites": 3, "coupling": [1.0, 2.0]}})
    with pytest.raises(ValidationError, match="model.coupling"):
        parse_config(path)


def test_exponential_bath_needs_kappa(tmp_path):
    path = _write(
        tmp_path, {"model": {"n_sites": 2}, "bath": {"type": "exponential", "gamma": 0.1}}
    )
    with pytest.raises(ValidationError, match="bath.kappa"):
        parse_config(path)


def test_white_bath_rejects_exponential_keys(tmp_path):
    path = _write(
        tmp_path, {"model": {"n_sites": 2}, "bath": {"type": "white", "kappa": 1.0}}
    )
    with pytest.raises(ValidationError, match="not applicable"):
        parse_config(path)


def test_tabulated_bath_needs_existing_file(tmp_path):
    payload = {"model": {"n_sites": 2}, "bath": {"type": "tabulated"}}
    with pytest.raises(ValidationError, match="bath.file"):
        parse_config(_write(tmp_path, payload))
    payload["bath"]["file"] = str(tmp_path / "missing.csv")
    with pytest.raises(ValidationError, match="no such file"):
        parse_config(_write(tmp_path, payload))


def test_bad_bath_type(tmp_path):
    path = _write(tmp_path, {"model": {"n_sites": 2}, "bath": {"type": "ohmic"}})
    with pytest.raises(ValidationError, match="bath.type"):
        parse_config(path)


def test_numeric_validation(tmp_path):
    with pytest.raises(ValidationError, match="model.n_sites"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 1}}))
    with pytest.raises(ValidationError, match="model.hopping"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2, "hopping": 0.0}}))
    with pytest.raises(ValidationError, match="run.dt"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2}, "run": {"dt": -0.1}}))
    with pytest.raises(ValidationError, match="spectral.freq_tol"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2}, "spectral": {"freq_tol": 0.0}}))
    with pytest.raises(ValidationError, match="output.precision"):
        parse_config(_write(tmp_path, {"model": {"n_sites": 2}, "output": {"precision": 20}}))


def test_initial_state_syntax(tmp_path):
    for bad in ("thermal", "site:x", 7):
        path = _write(tmp_path, {"model": {"n_sites": 2}, "run": {"initial_state": bad}})
        with pytest.raises(ValidationError, match="run.initial_state"):
            parse_config(path)
    path = _write(
        tmp_path,
        {"model": {"n_sites": 2}, "run": {"initial_state": f"file:{tmp_path}/none.json"}},
    )
    with pytest.raises(ValidationError, match="no such file"):
        parse_config(path)


def test_make_kernel_variants(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            {"model": {"n_sites": 2}, "bath": {"type": "exponential", "gamma": 0.2, "kappa": 3.0}},
        )
    )
    kernel = make_kernel(cfg.bath)
    assert isinstance(kernel, Exponential)
    assert (kernel.gamma, kernel.kappa, kernel.omega) == (0.2, 3.0, 0.0)

    cfg = parse_config(
        _write(tmp_path, {"model": {"n_sites": 2}, "bath": {"type": "white", "gamma": 0.4}})
    )
    assert make_kernel(cfg.bath) == WhiteNoise(0.4)

    csv_path = tmp_path / "kernel.csv"
    csv_path.write_text("tau,re_g,im_g\n0.0,1.0,0.0\n1.0,0.5,-0.1\n", encoding="utf-8")
    cfg = parse_config(
        _write(
            tmp_path,
            {"model": {"n_sites": 2}, "bath": {"type": "tabulated", "file": str(csv_path)}},
        )
    )
    kernel = make_kernel(cfg.bath)
    assert isinstance(kernel, Tabulated)
    np.testing.assert_allclose(kernel.values, [1.0, 0.5 - 0.1j])


def _eig_for(cfg):
    n = cfg.model.n_sites
    H = np.diag(np.array(cfg.model.potential, dtype=complex))
    for r in range(n - 1):
        H[r, r + 1] = H[r + 1, r] = -cfg.model.hopping
    return hermitian_eigensystem(H)


def test_resolve_mixed_and_ground(tmp_path):
    cfg = parse_config(_minimal(tmp_path))
    eig = _eig_for(cfg)
    np.testing.assert_allclose(resolve_initial_state(cfg, eig), np.eye(2) / 2.0)

    cfg = parse_config(
        _write(tmp_path, {"model": {"n_sites": 2}, "run": {"initial_state": "ground"}})
    )
    rho = resolve_initial_state(cfg, eig)
    expected = np.outer(eig.basis[:, 0], eig.basis[:, 0].conj())
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_resolve_site_index(tmp_path):
    cfg = parse_config(
        _write(tmp_path, {"model": {"n_sites": 3}, "run": {"initial_state": "site:2"}})
    )
    rho = resolve_initial_state(cfg, _eig_for(cfg))
    np.testing.assert_array_equal(np.diag(rho).real, [0.0, 0.0, 1.0])

    cfg = parse_config(
        _write(tmp_path, {"model": {"n_sites": 3}, "run": {"initial_state": "site:3"}})
    )
    with pytest.raises(ValidationError, match="outside"):
        resolve_initial_state(cfg, _eig_for(cfg))


def test_resolve_state_file(tmp_path):
    state_path = tmp_path / "state.json"
    re = [[0.5, 0.25], [0.25, 0.5]]
    im = [[0.0, 0.1], [-0.1, 0.0]]
    state_path.write_text(json.dumps({"re": re, "im": im}), encoding="utf-8")
    cfg = parse_config(
        _write(
            tmp_path,
            {"model": {"n_sites": 2}, "run": {"initial_state": f"file:{state_path}"}},
        )
    )
    rho = resolve_initial_state(cfg, _eig_for(cfg))
    np.testing.assert_allclose(rho, np.array(re) + 1j * np.array(im))


def test_resolve_state_file_shape_checked(tmp_path):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"re": [[1.0]]}), encoding="utf-8")
    cfg = parse_config(
        _write(
            tmp_path,
            {"model": {"n_sites": 2}, "run": {"initial_state": f"file:{state_path}"}},
        )
    )
    with pytest.raises(ValidationError, match="shape"):
        resolve_initial_state(cfg, _eig_for(cfg))


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"re": [[0.5, 0.0], [0.0, 0.5]]', "Expecting"),
        ('{"re": [[0.5, 0.0], [0.0]]}', "numbers"),
        ('{"re": [[0.5, "0"], [0.0, 0.5]]}', "numbers"),
        ('{"re": [[0.5, {}], [0.0, 0.5]]}', "numbers"),
        ('{"re": [[0.5, null], [0.0, 0.5]]}', "numbers"),
        ('{"re": [[0.5, false], [0.0, 0.5]]}', "numbers"),
        ('{"re": [[0.5, 1e400], [0.0, 0.5]]}', "non-finite"),
        ('{"re": [[0.5, 1%s], [0.0, 0.5]]}' % ("0" * 400), "too large"),
        ('{"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.3], [0.3, 0.0]]}', "Hermitian"),
        ('{"re": [[1.0, 0.0], [0.0, 1.0]]}', "trace"),
    ],
    ids=[
        "json", "ragged", "string", "object", "null", "bool", "infinite", "huge_int",
        "non_hermitian", "trace",
    ],
)
def test_resolve_state_file_rejects_malformed_content(tmp_path, content, message):
    state_path = tmp_path / "state.json"
    state_path.write_text(content, encoding="utf-8")
    cfg = parse_config(
        _write(
            tmp_path,
            {"model": {"n_sites": 2}, "run": {"initial_state": f"file:{state_path}"}},
        )
    )
    with pytest.raises(ValidationError, match=f"^run.initial_state: .*{message}"):
        resolve_initial_state(cfg, _eig_for(cfg))
