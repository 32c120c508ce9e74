"""The four seeded workloads and the configs drawn for them.

Every workload draws its model from ``--seed`` alone and writes a strict
JSON config; the program never sees the seed.  The bath is exponential with
gamma = 0.1 and kappa = 5 throughout.  Random chains draw potentials from
N(0, 0.3^2) and couplings from U(-1, 1).
"""
from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import reference

GAMMA = 0.1
KAPPA = 5.0
STABILITY_BOUND = 0.1  # lindcur.lindblad refuses dt * ||L||_inf above this


@dataclasses.dataclass(frozen=True)
class Workload:
    """One row of the workload table; README.md says why each exists."""

    name: str
    command: str  # "simulate", "steady", "verify" or "dynamics" (library script)
    n_sites: int
    random_potential: bool
    t_final: float
    dt: float

    @property
    def evolve_steps(self) -> int:
        if self.command == "steady":
            return 0
        return max(1, math.ceil(self.t_final / self.dt - 1e-12))


WORKLOADS = (
    Workload("simulate-n4-long", "simulate", 4, True, 100.0, 0.01),
    Workload("steady-n8", "steady", 8, True, 0.0, 0.01),
    Workload("dynamics-n20", "dynamics", 20, True, 45.0, 0.015),
    Workload("verify-n4-uniform", "verify", 4, False, 10.0, 0.01),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def _generic(potential, coupling, dt):
    """True when the drawn chain has distinct Bohr frequencies and is stable.

    Distinct means every nonzero energy difference sits in its own bin,
    1 + N(N-1) bins in all, at least 1e-6 apart.  Stable means the step
    passes lindcur's dt * ||L||_inf bound with ten per cent to spare.
    """
    h, v = reference.chain_operators(potential, coupling)
    energies = np.linalg.eigvalsh(h)
    diffs = np.sort((energies[:, None] - energies[None, :]).ravel())
    n = len(energies)
    nonzero = np.delete(diffs, np.arange(n * (n - 1) // 2, n * (n + 1) // 2))
    if np.min(np.diff(nonzero)) < 1e-6:
        return False
    m = reference.generator(h, v, GAMMA, KAPPA)
    return dt * np.linalg.norm(m, np.inf) < 0.9 * STABILITY_BOUND


def draw_model(workload: Workload, seed: int):
    """Potential and coupling of the workload's chain for this seed.

    Random chains are redrawn from the same seeded stream until generic, so
    a seed always maps to the same model.
    """
    index = list(BY_NAME).index(workload.name)
    rng = np.random.default_rng([seed, index])
    n = workload.n_sites
    while True:
        coupling = rng.uniform(-1.0, 1.0, n)
        if not workload.random_potential:
            return np.zeros(n), coupling
        potential = rng.normal(0.0, 0.3, n)
        if _generic(potential, coupling, workload.dt):
            return potential, coupling


def write_config(workload: Workload, seed: int, directory: str) -> str:
    """Write the workload's strict JSON config and return its path."""
    potential, coupling = draw_model(workload, seed)
    payload = {
        "model": {
            "n_sites": workload.n_sites,
            "hopping": 1.0,
            "potential": potential.tolist(),
            "coupling": coupling.tolist(),
        },
        "bath": {"type": "exponential", "gamma": GAMMA, "kappa": KAPPA},
        "run": {
            "t_final": workload.t_final,
            "dt": workload.dt,
            "initial_state": "site:0",
        },
        "output": {"directory": os.path.join(directory, "out")},
    }
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path
