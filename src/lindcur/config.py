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
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .errors import ParseError, ValidationError
from .lindblad import validate_density
from .reservoir import Exponential, Tabulated, WhiteNoise, load_tabulated_csv

INITIAL_STATES = ("ground", "mixed")
# The keys that depend on a section's type: each type maps those it reads
# to whether it requires them, and rejects the others.
TYPE_KEYS = {
    "bath": {
        "exponential": {"kappa": True, "omega0": False},
        "white": {},
        "tabulated": {"file": True},
    },
}


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


def _object(raw, name, cls):
    """raw, which must be a JSON object whose keys are fields of cls."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{name}: expected an object")
    allowed = [f.name for f in fields(cls)]
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"{name}.{key}: unknown key")
    return raw


def _number(raw, name, *, minimum=None, strict_min=None):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(f"{name}: expected a number")
    try:
        val = float(raw)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"{name}: {exc}") from None
    if not np.isfinite(val):
        raise ValidationError(f"{name}: must be finite")
    if minimum is not None and val < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        raise ValidationError(f"{name}: must be > {strict_min}")
    return val


def _integer(raw, name, minimum, maximum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(f"{name}: expected an integer")
    if raw < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}")
    if maximum is not None and raw > maximum:
        raise ValidationError(f"{name}: must be <= {maximum}")
    return raw


def _array(raw, name, length):
    if not isinstance(raw, list) or len(raw) != length:
        raise ValidationError(f"{name}: expected an array of length {length}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(raw))


def _choice(raw, name, choices):
    if raw not in choices:
        raise ValidationError(f"{name}: expected one of {choices}")
    return raw


def _nonempty_string(raw, name):
    if not isinstance(raw, str) or not raw:
        raise ValidationError(f"{name}: expected a nonempty string")
    return raw


def _existing_file(raw, name):
    if not isinstance(raw, str):
        raise ValidationError(f"{name}: expected a path string")
    if not os.path.isfile(raw):
        raise ValidationError(f"{name}: no such file: {raw}")
    return raw


def _initial_state(state, name):
    """ground, mixed, site:<k> with k an optional - and ASCII digits, or
    file:<path> naming an existing file."""
    if not isinstance(state, str):
        raise ValidationError(f"{name}: expected a string")
    if state in INITIAL_STATES:
        return state
    if state.startswith("site:"):
        digits = state[5:].removeprefix("-")
        try:
            valid = digits.isascii() and digits.isdigit() and int(digits) >= 0
        except ValueError:  # more digits than int() reads
            valid = False
        if not valid:
            raise ValidationError(f"{name}: site index must be an integer")
    elif state.startswith("file:"):
        _existing_file(state[5:], name)
    else:
        raise ValidationError(
            f"{name}: expected ground, mixed, site:<k>, or file:<path>"
        )
    return state


# The check of a given value, called with it and its dotted key; the
# model's per-site arrays are checked by _parse_model.
_CHECKS = {
    "model.n_sites": partial(_integer, minimum=2),
    "model.hopping": partial(_number, strict_min=0.0),
    "bath.type": partial(_choice, choices=tuple(TYPE_KEYS["bath"])),
    "bath.gamma": partial(_number, minimum=0.0),
    "bath.kappa": partial(_number, strict_min=0.0),
    "bath.omega0": _number,
    "bath.file": _existing_file,
    "run.t_final": partial(_number, minimum=0.0),
    "run.dt": partial(_number, strict_min=0.0),
    "run.initial_state": _initial_state,
    "spectral.freq_tol": partial(_number, strict_min=0.0),
    "tolerances.positivity": partial(_number, strict_min=0.0),
    "tolerances.conservation": partial(_number, strict_min=0.0),
    "output.directory": _nonempty_string,
    "output.precision": partial(_integer, minimum=1, maximum=17),
}


def _section(cls, raw, name, checks=_CHECKS):
    """The section dataclass cls read from its JSON object raw.

    Unknown keys are refused first, then the fields are read in order: a
    given value passes its check, a missing one takes the field's default
    or, without one, is required.  In a section of TYPE_KEYS the type decides which
    type-specific keys apply; one that does not must be missing, and reads
    None.
    """
    raw = _object(raw, name, cls)
    kinds = TYPE_KEYS.get(name, {})
    typed = {key for keys in kinds.values() for key in keys}
    values = {}
    for f in fields(cls):
        key = f"{name}.{f.name}"
        if f.name in typed:
            kind = values["type"]
            whose = f"{'an' if kind[0] in 'aeiou' else 'a'} {kind} {name}"
            if f.name not in kinds[kind]:
                if f.name in raw:
                    raise ValidationError(f"{key}: not applicable to {whose}")
                values[f.name] = None
                continue
            if kinds[kind][f.name] and f.name not in raw:
                raise ValidationError(f"{key}: required for {whose}")
        if f.name in raw:
            values[f.name] = checks[key](raw[f.name], key)
        elif f.default is MISSING:
            raise ValidationError(f"{key}: required")
        else:
            values[f.name] = f.default
    return cls(**values)


def _parse_model(raw) -> ModelConfig:
    """The model section; potential and coupling hold one number per site,
    zeros when missing."""

    def per_site(value, key):  # n_sites is read before them
        return _array(value, key, raw["n_sites"])

    checks = {**_CHECKS, "model.potential": per_site, "model.coupling": per_site}
    model = _section(ModelConfig, raw, "model", checks)
    zeros = (0.0,) * model.n_sites
    return replace(
        model, potential=model.potential or zeros, coupling=model.coupling or zeros
    )


def parse_config(path: str) -> Config:
    """Load, strictly validate, and default-fill a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, RecursionError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    raw = _object(raw, "config", Config)
    if "model" not in raw:
        raise ValidationError("model: required")
    model = _parse_model(raw["model"])
    # the other sections may be missing or null, and then take their
    # defaults; each one's default_factory is its dataclass
    sections = {
        f.name: _section(f.default_factory, raw[f.name], f.name)
        for f in fields(Config)[1:]
        if raw.get(f.name) is not None
    }
    return Config(model=model, **sections)


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


def resolve_initial_state(cfg: Config, eig=None) -> np.ndarray | None:
    """Density matrix named by run.initial_state; ground, the one state
    that needs the eigensystem eig, reads None without it.

    A file: state that is unreadable, not numeric, has a key other than
    re and im, or is not a finite, Hermitian, unit-trace N x N matrix
    raises ValidationError.
    """
    N = cfg.model.n_sites
    state = cfg.run.initial_state
    if state == "mixed":
        return np.eye(N, dtype=complex) / N
    if state == "ground":
        if eig is None:
            return None
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
        extra = set(data) - {"re", "im"}
        if extra:
            raise ValidationError(f"run.initial_state: unknown key {min(extra)!r}")
        re = _state_block(data["re"])
        im = _state_block(data["im"]) if "im" in data else np.zeros_like(re)
    except (OSError, OverflowError, RecursionError, ValueError) as exc:
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
