"""Correctness gate for one run's outputs.

A run passes when its outputs have the documented shape, its conservation
residuals sit within the configured tolerance, and its numbers agree with
the independent reference (``reference.py``) within the tolerances below.
Agreement is checked with a tolerance, never by digest, so an optimisation
that only changes rounding still passes.  Byte-identity between runs of one
invocation (determinism) is checked separately by the runner.
"""
from __future__ import annotations

import json
import math
import os
import re

import numpy as np

import reference

DENSITY_HEADER = "time,site,n,dn_dt,lstar_n,residual_raw,residual_corrected"
CURRENTS_HEADER = "time,bond,j_ham,j_diss,j_total"
DYNAMICS_DEFECT_TOL = 1e-9
# tolerance against the reference, relative to each column's largest
# magnitude: RK4 at the workloads' steps stays within about 5e-7 of the
# exact propagator; a stationary state agrees to rounding
REFERENCE_TOL = {"simulate": 1e-5, "steady": 1e-8, "dynamics": 1e-5}
ROUNDING_FLOOR = 1e-12
VERIFY_CHECKS = (
    "continuity_raw_source",
    "continuity_corrected",
    "divergence_identity",
    "lstar_unitality",
    "oracle_spectral_vs_cumulative",
    "oracle_finite_time",
    "oracle_error_decreasing",
    "prelindblad_monotone",
    "prelindblad_slope",
)
CHECK_LINE = re.compile(r"CHECK (\w+) measured=\S+ threshold=\S+ (PASS|FAIL)$")


def output_files(command: str) -> tuple:
    """Files (under the output directory) that hold a run's result."""
    if command == "dynamics":
        return ("trajectory.csv", "stationary.csv")
    if command == "verify":
        return ()
    return ("density.csv", "currents.csv")


def _model(cfg: dict):
    model = cfg["model"]
    h, v = reference.chain_operators(model["potential"], model["coupling"], model["hopping"])
    m = reference.generator(h, v, cfg["bath"]["gamma"], cfg["bath"]["kappa"])
    rho0 = np.zeros(h.shape, dtype=complex)
    k = int(cfg["run"]["initial_state"].split(":")[1])
    rho0[k, k] = 1.0
    return h, m, rho0


def _steps(cfg: dict):
    t_final, dt = cfg["run"]["t_final"], cfg["run"]["dt"]
    n = max(1, math.ceil(t_final / dt - 1e-12))
    return n, t_final / n


def _far(name, got, want, rtol, atol=ROUNDING_FLOOR):
    """Problem if got and want differ by more than rtol * max|want| + atol."""
    want = np.asarray(want)
    tol = rtol * float(np.max(np.abs(want))) + atol
    dev = float(np.max(np.abs(np.asarray(got) - want)))
    return [f"{name} deviates from the reference by {dev:.3e} > {tol:.3e}"] if dev > tol else []


def _read_table(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return None, [f"{os.path.basename(path)} header {first!r} != {header!r}"]
        return np.loadtxt(fh, delimiter=",", ndmin=2), []


def check_tables(command: str, cfg: dict, out_dir: str) -> list:
    """Gate for the simulate and steady CSV tables."""
    n = cfg["model"]["n_sites"]
    tol = cfg.get("tolerances", {}).get("conservation", 1e-9)
    dens, problems = _read_table(os.path.join(out_dir, "density.csv"), DENSITY_HEADER)
    curr, more = _read_table(os.path.join(out_dir, "currents.csv"), CURRENTS_HEADER)
    problems += more
    if problems:
        return problems
    h, m, rho0 = _model(cfg)
    if command == "steady":
        states = reference.stationary(m)[None]
        times = np.zeros(1)
    else:
        steps, step = _steps(cfg)
        states = reference.propagate(m, rho0, steps, step)
        times = step * np.arange(steps + 1)
    t = len(times)
    if dens.shape != (t * n, 7) or curr.shape != (t * (n - 1), 5):
        return [f"table shapes {dens.shape}, {curr.shape} do not hold {t} states"]
    if np.any(dens[:, 1] != np.tile(np.arange(n), t)) or np.any(
        curr[:, 1] != np.tile(np.arange(n - 1), t)
    ):
        return ["rows are not ordered time-major then by site/bond"]
    problems += _far("time", dens[:, 0], np.repeat(times, n), 0.0, 1e-9)
    worst = float(np.max(np.abs(dens[:, 6])))
    if worst > tol:
        problems.append(f"residual_corrected reaches {worst:.3e} > {tol:.0e}")
    gap = float(np.max(np.abs(dens[:, 5] - dens[:, 4])))
    if gap > tol:
        problems.append(f"residual_raw differs from lstar_n by {gap:.3e} > {tol:.0e}")
    ref = reference.observables(m, h, states)
    rtol = REFERENCE_TOL[command]
    for col, name in ((2, "n"), (3, "dn_dt"), (4, "lstar_n")):
        problems += _far(name, dens[:, col], ref[name].ravel(), rtol)
    problems += _far("j_ham", curr[:, 2], ref["j_ham"].ravel(), rtol)
    problems += _far("j_diss", curr[:, 3], ref["j_diss"].ravel(), rtol)
    problems += _far("j_total", curr[:, 4], curr[:, 2] + curr[:, 3], 1e-10)
    return problems


def check_dynamics(cfg: dict, out_dir: str) -> list:
    """Gate for the library-script outputs: drift, positivity, reference."""
    n = cfg["model"]["n_sites"]
    header = "time,trace_defect,herm_defect,herm_correction,trace_correction," + ",".join(
        f"n{r}" for r in range(n)
    )
    traj, problems = _read_table(os.path.join(out_dir, "trajectory.csv"), header)
    stat, more = _read_table(os.path.join(out_dir, "stationary.csv"), "row,col,re,im")
    problems += more
    if problems:
        return problems
    _, m, rho0 = _model(cfg)
    steps, step = _steps(cfg)
    if traj.shape != (steps + 1, 5 + n) or stat.shape != (n * n, 4):
        return [f"output shapes {traj.shape}, {stat.shape} are wrong"]
    worst = float(np.max(traj[:, 1:5]))
    if worst > DYNAMICS_DEFECT_TOL:
        problems.append(f"trace/Hermiticity defect {worst:.3e} > {DYNAMICS_DEFECT_TOL:.0e}")
    rho_ss = (stat[:, 2] + 1j * stat[:, 3]).reshape(n, n)
    low = float(np.min(np.linalg.eigvalsh((rho_ss + rho_ss.conj().T) / 2)))
    if low < -DYNAMICS_DEFECT_TOL:
        problems.append(f"stationary state has eigenvalue {low:.3e}")
    rtol = REFERENCE_TOL["dynamics"]
    states = reference.propagate(m, rho0, steps, step)
    problems += _far("time", traj[:, 0], step * np.arange(steps + 1), 0.0, 1e-9)
    problems += _far("n", traj[:, 5:], np.real(np.diagonal(states, axis1=1, axis2=2)), rtol)
    problems += _far("stationary state", rho_ss, reference.stationary(m), REFERENCE_TOL["steady"])
    return problems


def check_verify(stdout_text: str) -> list:
    """Gate for verify: every documented check printed, in order, and PASS."""
    lines = stdout_text.splitlines()
    found = [CHECK_LINE.match(line) for line in lines]
    if not all(found):
        return ["verify printed a line that is not a CHECK line"]
    names = tuple(f.group(1) for f in found)
    if names != VERIFY_CHECKS:
        return [f"verify checks {names} != {VERIFY_CHECKS}"]
    return [f"CHECK {f.group(1)} FAIL" for f in found if f.group(2) == "FAIL"]


def check(command: str, config_path: str, out_dir: str, stdout_path: str) -> list:
    """All gate problems of one run; an empty list means it passed."""
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    try:
        if command == "verify":
            with open(stdout_path, encoding="utf-8") as fh:
                return check_verify(fh.read())
        if command == "dynamics":
            return check_dynamics(cfg, out_dir)
        return check_tables(command, cfg, out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
