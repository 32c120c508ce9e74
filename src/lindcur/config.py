"""Strict JSON configuration for the command-line workflows.

Unknown keys are rejected everywhere: a typo that would silently fall back
to a default is a physics misconfiguration, not a convenience.  Absolute
paths are taken as given; relative paths resolve against the working
directory.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .lindblad import validate_density
from .reservoir import Exponential, Tabulated, WhiteNoise, load_tabulated_csv

BATH_TYPES = ("exponential", "white", "tabulated")
INITIAL_STATES = ("ground", "mixed")


@dataclass(frozen=True)
class ModelConfig:
    n_sites: int
    hopping: float = 1.0
    potential: tuple = ()
    coupling: tuple = ()


@dataclass(frozen=True)
class BathConfig:
    type: str = "exponential"
    gamma: float = 0.1
    kappa: float | None = 1.0
    omega0: float | None = 0.0
    file: str | None = None


@dataclass(frozen=True)
class RunConfig:
    t_final: float = 10.0
    dt: float = 0.01
    initial_state: str = "mixed"


@dataclass(frozen=True)
class SpectralConfig:
    freq_tol: float | None = None


@dataclass(frozen=True)
class TolerancesConfig:
    positivity: float = 1e-10
    conservation: float = 1e-9


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    precision: int = 12


@dataclass(frozen=True)
class Config:
    model: ModelConfig
    bath: BathConfig = field(default_factory=BathConfig)
    run: RunConfig = field(default_factory=RunConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    tolerances: TolerancesConfig = field(default_factory=TolerancesConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _require_dict(raw, name):
    if not isinstance(raw, dict):
        raise ValidationError(f"{name}: expected an object")
    return raw


def _reject_unknown(raw: dict, allowed, name: str):
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{name}.{key}: unknown key")


def _number(raw, name, *, minimum=None, strict_min=None):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(f"{name}: expected a number")
    val = float(raw)
    if not np.isfinite(val):
        raise ValidationError(f"{name}: must be finite")
    if minimum is not None and val < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        raise ValidationError(f"{name}: must be > {strict_min}")
    return val


def _integer(raw, name, minimum):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(f"{name}: expected an integer")
    if raw < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}")
    return raw


def _array(raw, name, length):
    if not isinstance(raw, list) or len(raw) != length:
        raise ValidationError(f"{name}: expected an array of length {length}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(raw))


def _parse_model(raw) -> ModelConfig:
    raw = _require_dict(raw, "model")
    _reject_unknown(raw, {"n_sites", "hopping", "potential", "coupling"}, "model")
    if "n_sites" not in raw:
        raise ValidationError("model.n_sites: required")
    n = _integer(raw["n_sites"], "model.n_sites", minimum=2)
    hopping = _number(raw.get("hopping", 1.0), "model.hopping", strict_min=0.0)
    potential = (
        _array(raw["potential"], "model.potential", n)
        if "potential" in raw
        else tuple(0.0 for _ in range(n))
    )
    coupling = (
        _array(raw["coupling"], "model.coupling", n)
        if "coupling" in raw
        else tuple(0.0 for _ in range(n))
    )
    return ModelConfig(n_sites=n, hopping=hopping, potential=potential, coupling=coupling)


def _parse_bath(raw) -> BathConfig:
    if raw is None:
        return BathConfig()
    raw = _require_dict(raw, "bath")
    _reject_unknown(raw, {"type", "gamma", "kappa", "omega0", "file"}, "bath")
    btype = raw.get("type", "exponential")
    if btype not in BATH_TYPES:
        raise ValidationError(f"bath.type: expected one of {BATH_TYPES}")
    gamma = _number(raw.get("gamma", 0.1), "bath.gamma", minimum=0.0)
    kappa = None
    omega0 = None
    path = None
    if btype == "exponential":
        if "file" in raw:
            raise ValidationError("bath.file: not applicable to an exponential bath")
        if "kappa" not in raw:
            raise ValidationError("bath.kappa: required for an exponential bath")
        kappa = _number(raw["kappa"], "bath.kappa", strict_min=0.0)
        omega0 = _number(raw.get("omega0", 0.0), "bath.omega0")
    elif btype == "white":
        for key in ("kappa", "omega0", "file"):
            if key in raw:
                raise ValidationError(f"bath.{key}: not applicable to a white bath")
    else:
        for key in ("kappa", "omega0"):
            if key in raw:
                raise ValidationError(f"bath.{key}: not applicable to a tabulated bath")
        if "file" not in raw:
            raise ValidationError("bath.file: required for a tabulated bath")
        path = raw["file"]
        if not isinstance(path, str):
            raise ValidationError("bath.file: expected a path string")
        if not os.path.isfile(path):
            raise ValidationError(f"bath.file: no such file: {path}")
    return BathConfig(type=btype, gamma=gamma, kappa=kappa, omega0=omega0, file=path)


def _parse_run(raw) -> RunConfig:
    if raw is None:
        return RunConfig()
    raw = _require_dict(raw, "run")
    _reject_unknown(raw, {"t_final", "dt", "initial_state"}, "run")
    t_final = _number(raw.get("t_final", 10.0), "run.t_final", minimum=0.0)
    dt = _number(raw.get("dt", 0.01), "run.dt", strict_min=0.0)
    state = raw.get("initial_state", "mixed")
    if not isinstance(state, str):
        raise ValidationError("run.initial_state: expected a string")
    if state not in INITIAL_STATES:
        if state.startswith("site:"):
            try:
                int(state[5:])
            except ValueError:
                raise ValidationError(
                    "run.initial_state: site index must be an integer"
                ) from None
        elif state.startswith("file:"):
            if not os.path.isfile(state[5:]):
                raise ValidationError(
                    f"run.initial_state: no such file: {state[5:]}"
                )
        else:
            raise ValidationError(
                "run.initial_state: expected ground, mixed, site:<k>, or file:<path>"
            )
    return RunConfig(t_final=t_final, dt=dt, initial_state=state)


def _parse_spectral(raw) -> SpectralConfig:
    if raw is None:
        return SpectralConfig()
    raw = _require_dict(raw, "spectral")
    _reject_unknown(raw, {"freq_tol"}, "spectral")
    tol = None
    if "freq_tol" in raw:
        tol = _number(raw["freq_tol"], "spectral.freq_tol", strict_min=0.0)
    return SpectralConfig(freq_tol=tol)


def _parse_tolerances(raw) -> TolerancesConfig:
    if raw is None:
        return TolerancesConfig()
    raw = _require_dict(raw, "tolerances")
    _reject_unknown(raw, {"positivity", "conservation"}, "tolerances")
    return TolerancesConfig(
        positivity=_number(
            raw.get("positivity", 1e-10), "tolerances.positivity", strict_min=0.0
        ),
        conservation=_number(
            raw.get("conservation", 1e-9), "tolerances.conservation", strict_min=0.0
        ),
    )


def _parse_output(raw) -> OutputConfig:
    if raw is None:
        return OutputConfig()
    raw = _require_dict(raw, "output")
    _reject_unknown(raw, {"directory", "precision"}, "output")
    directory = raw.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ValidationError("output.directory: expected a nonempty string")
    precision = 12
    if "precision" in raw:
        precision = _integer(raw["precision"], "output.precision", minimum=1)
        if precision > 17:
            raise ValidationError("output.precision: must be <= 17")
    return OutputConfig(directory=directory, precision=precision)


def parse_config(path: str) -> Config:
    """Load, strictly validate, and default-fill a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    raw = _require_dict(raw, "config")
    _reject_unknown(
        raw, {"model", "bath", "run", "spectral", "tolerances", "output"}, "config"
    )
    if "model" not in raw:
        raise ValidationError("model: required")
    return Config(
        model=_parse_model(raw["model"]),
        bath=_parse_bath(raw.get("bath")),
        run=_parse_run(raw.get("run")),
        spectral=_parse_spectral(raw.get("spectral")),
        tolerances=_parse_tolerances(raw.get("tolerances")),
        output=_parse_output(raw.get("output")),
    )


def make_kernel(bath: BathConfig):
    """Correlation kernel named by a bath section.

    A tabulated file that cannot be read or does not hold a valid sampled
    kernel raises ValidationError.
    """
    if bath.type == "exponential":
        return Exponential(gamma=bath.gamma, kappa=bath.kappa, omega=bath.omega0)
    if bath.type == "white":
        return WhiteNoise(gamma=bath.gamma)
    try:
        return load_tabulated_csv(bath.file)
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"bath.file: {exc}") from None


def _state_block(raw) -> np.ndarray:
    """A state-file matrix block; every entry must be a JSON number."""
    block = np.array(raw, dtype=object)
    if not all(type(x) in (int, float) for x in block.flat):
        raise ValueError("state entries must be numbers in a rectangular array")
    return block.astype(float)


def resolve_initial_state(cfg: Config, eig) -> np.ndarray:
    """Density matrix named by run.initial_state.

    A file: state that is unreadable, not numeric, or not a finite,
    Hermitian, unit-trace N x N matrix raises ValidationError.
    """
    N = cfg.model.n_sites
    state = cfg.run.initial_state
    if state == "mixed":
        return np.eye(N, dtype=complex) / N
    if state == "ground":
        u = eig.basis[:, 0]
        return np.outer(u, u.conj())
    if state.startswith("site:"):
        k = int(state[5:])
        if not 0 <= k < N:
            raise ValidationError(
                f"run.initial_state: site {k} outside 0..{N - 1}"
            )
        rho = np.zeros((N, N), dtype=complex)
        rho[k, k] = 1.0
        return rho
    try:
        with open(state[5:], encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "re" not in data:
            raise ValidationError('run.initial_state: state file needs "re" (and "im")')
        re = _state_block(data["re"])
        im = _state_block(data["im"]) if "im" in data else np.zeros_like(re)
    except (OSError, OverflowError, ValueError) as exc:
        raise ValidationError(f"run.initial_state: {exc}") from None
    if im.shape != re.shape:
        raise ValidationError(
            f"run.initial_state: im shape {im.shape} differs from re {re.shape}"
        )
    rho = re + 1j * im
    if rho.shape != (N, N):
        raise ValidationError(
            f"run.initial_state: state shape {rho.shape} vs {N} sites"
        )
    try:
        return validate_density(rho, N)
    except ValueError as exc:
        raise ValidationError(f"run.initial_state: {exc}") from None
