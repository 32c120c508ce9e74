"""Command-line front end: simulate, steady, verify.

Exit codes: 0 success (all checks pass), 1 failure or failed check,
2 positivity loss, 3 verify-suite incompatible with the configured bath.
All output files are byte-deterministic for a given config: fixed float
formatting at the configured precision, rows ordered time-major then by
site/bond index.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .config import Config, make_kernel, parse_config, resolve_initial_state
from .current import (
    build_engine,
    continuity_report,
    divergence_identity_check,
    jd_cumulative_1d,
    jd_expectation,
    jd_finite_time_oracle,
    lstar_density,
)
from .errors import LindcurError, PositivityLost, PositivityViolation
from .lattice import ChainSpec, build_chain
from .linalg import hermitian_eigensystem
from .lindblad import (
    Trajectory,
    build_generator,
    evolve,
    pre_lindblad_generator,
    steady_state,
)
from .reservoir import WhiteNoise, decay_rate, gplus_table, resolution_bound
from .spectral import bohr_frequencies, decompose, default_freq_tol

POINTWISE_SUITES = ("oracle", "prelindblad", "all")
ORACLE_LADDER = (50.0, 100.0, 200.0)
PRELINDBLAD_LADDER = (25.0, 50.0, 100.0, 200.0)
ABSOLUTE_FLOOR = 1e-12
CSV_BLOCK = 256


@dataclasses.dataclass(frozen=True)
class Workbench:
    """Everything the workflows need, built once from a config."""

    cfg: Config
    ops: object
    eig: object
    spectrum: object
    kernel: object
    gplus: object
    generator: object
    engine: object


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold


def build_workbench(cfg: Config) -> Workbench:
    ops = build_chain(
        ChainSpec(
            n_sites=cfg.model.n_sites,
            hopping=cfg.model.hopping,
            potential=np.array(cfg.model.potential),
            coupling=np.array(cfg.model.coupling),
        )
    )
    eig = hermitian_eigensystem(ops.h)
    freq_tol = cfg.spectral.freq_tol
    if freq_tol is None:
        freq_tol = default_freq_tol(eig)
    spectrum = bohr_frequencies(eig, freq_tol)
    kernel = make_kernel(cfg.bath)
    gplus = gplus_table(kernel, spectrum)
    coupling = decompose(ops.v, eig, spectrum)
    generator = build_generator(
        coupling, gplus, eig, positivity_tol=cfg.tolerances.positivity
    )
    engine = build_engine(ops, eig, spectrum, gplus)
    return Workbench(cfg, ops, eig, spectrum, kernel, gplus, generator, engine)


def _write_table(path, header, prec, times, columns) -> None:
    """One CSV: a row per (time, index) with the (T, n) columns' values.

    Rows are formatted CSV_BLOCK states at a time with one %-template, so
    the text held at once stays bounded on long trajectories.
    """
    n = columns[0].shape[1]
    row = f"%.{prec}e,%d" + f",%.{prec}e" * len(columns) + "\n"
    index = list(range(n))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, len(times), CSV_BLOCK):
            block = slice(start, start + CSV_BLOCK)
            rows = zip(
                np.repeat(times[block], n).tolist(),
                index * len(times[block]),
                *(c[block].ravel().tolist() for c in columns),
            )
            fh.write("".join(row % r for r in rows))


def _write_csvs(wb: Workbench, traj: Trajectory, out_dir: str) -> None:
    prec = wb.cfg.output.precision
    report = continuity_report(wb.generator, wb.ops, wb.engine, traj)
    j_ham, j_diss = report.bond_j_ham, report.bond_j_diss
    os.makedirs(out_dir, exist_ok=True)
    _write_table(
        os.path.join(out_dir, "density.csv"),
        "time,site,n,dn_dt,lstar_n,residual_raw,residual_corrected\n",
        prec,
        report.times,
        [
            report.site_density,
            report.dn_dt,
            report.site_lstar_density,
            report.residual_raw,
            report.residual_corrected,
        ],
    )
    _write_table(
        os.path.join(out_dir, "currents.csv"),
        "time,bond,j_ham,j_diss,j_total\n",
        prec,
        report.times,
        [j_ham, j_diss, j_ham + j_diss],
    )


def run_simulate(cfg: Config) -> int:
    """Integrate the configured model and emit density and current tables."""
    wb = build_workbench(cfg)
    rho0 = resolve_initial_state(cfg, wb.eig)
    traj = evolve(wb.generator, rho0, cfg.run.t_final, cfg.run.dt)
    _write_csvs(wb, traj, cfg.output.directory)
    return 0


def run_steady(cfg: Config) -> int:
    """Emit the simulate tables for the unique stationary state, at time 0."""
    wb = build_workbench(cfg)
    rho = steady_state(wb.generator)
    traj = Trajectory(
        times=np.array([0.0]),
        states=[rho],
        herm_defects=np.array([0.0]),
        trace_defects=np.array([0.0]),
    )
    _write_csvs(wb, traj, cfg.output.directory)
    return 0


def _continuity_checks(wb: Workbench) -> list:
    cfg = wb.cfg
    rho0 = resolve_initial_state(cfg, wb.eig)
    traj = evolve(wb.generator, rho0, cfg.run.t_final, cfg.run.dt)
    report = continuity_report(wb.generator, wb.ops, wb.engine, traj)
    raw_vs_source = float(
        np.max(np.abs(report.residual_raw - report.site_lstar_density))
    )
    raw_scale = float(np.max(np.abs(report.residual_raw)))
    corrected = float(np.max(np.abs(report.residual_corrected)))
    sources = lstar_density(wb.generator, wb.ops)
    dev = divergence_identity_check(wb.engine, wb.generator, wb.ops)
    scale = max(max(float(np.linalg.norm(L)) for L in sources), 1.0)
    unitality = float(np.linalg.norm(sum(sources)))
    return [
        CheckResult("continuity_raw_source", raw_vs_source, cfg.tolerances.conservation),
        CheckResult(
            "continuity_corrected",
            corrected,
            max(1e-3 * raw_scale, ABSOLUTE_FLOOR),
        ),
        CheckResult(
            "divergence_identity", dev / scale, cfg.tolerances.conservation
        ),
        CheckResult("lstar_unitality", unitality, 1e-11),
    ]


def _oracle_quadrature_dt(wb: Workbench) -> float:
    return resolution_bound(wb.kernel, wb.spectrum) / 4.0


def _oracle_checks(wb: Workbench) -> list:
    cfg = wb.cfg
    rho0 = resolve_initial_state(cfg, wb.eig)
    je = jd_expectation(wb.engine, rho0)
    jc = jd_cumulative_1d(wb.generator, wb.ops, rho0)
    results = [
        CheckResult(
            "oracle_spectral_vs_cumulative", float(np.max(np.abs(je - jc))), 1e-6
        )
    ]
    freqs = wb.spectrum.frequencies
    nonzero = np.abs(freqs) > wb.spectrum.bin_tolerance
    scale = float(np.max(np.abs(je)))
    if not np.any(nonzero):
        results.append(CheckResult("oracle_finite_time", 0.0, ABSOLUTE_FLOOR))
        results.append(CheckResult("oracle_error_decreasing", 0.0, ABSOLUTE_FLOOR))
        return results
    w_min = float(np.min(np.abs(freqs[nonzero])))
    dt = _oracle_quadrature_dt(wb)
    errors = []
    for factor in ORACLE_LADDER:
        jo = jd_finite_time_oracle(
            wb.ops, wb.eig, wb.spectrum, wb.kernel, rho0, factor / w_min, dt
        )
        errors.append(float(np.max(np.abs(jo - je))))
    if scale <= ABSOLUTE_FLOOR:
        results.append(
            CheckResult("oracle_finite_time", errors[-1], ABSOLUTE_FLOOR)
        )
        results.append(
            CheckResult(
                "oracle_error_decreasing",
                max(errors[-1] - errors[0], 0.0),
                ABSOLUTE_FLOOR,
            )
        )
        return results
    results.append(CheckResult("oracle_finite_time", errors[-1] / scale, 0.05))
    results.append(
        CheckResult(
            "oracle_error_decreasing", (errors[-1] - errors[0]) / scale, 0.0
        )
    )
    return results


def _prelindblad_checks(wb: Workbench) -> list:
    rate = decay_rate(wb.kernel)
    dt = _oracle_quadrature_dt(wb)
    reference = wb.generator.dissipator.matrix
    coupling = wb.engine.coupling
    distances = []
    for factor in PRELINDBLAD_LADDER:
        window = pre_lindblad_generator(coupling, wb.kernel, factor / rate, dt)
        distances.append(float(np.max(np.abs(window.matrix - reference))))
    distances = np.array(distances)
    if np.all(distances < 1e-14):
        # nothing to fit; a zero dissipator is matched at every window
        return [
            CheckResult("prelindblad_monotone", 0.0, ABSOLUTE_FLOOR),
            CheckResult("prelindblad_slope", 0.0, 0.3),
        ]
    monotone = float(np.max(np.diff(distances)))
    slope = float(
        np.polyfit(np.log(np.array(PRELINDBLAD_LADDER)), np.log(distances), 1)[0]
    )
    return [
        CheckResult("prelindblad_monotone", monotone, 0.0),
        CheckResult("prelindblad_slope", abs(slope + 1.0), 0.3),
    ]


def run_verify(cfg: Config, suite: str) -> int:
    """Run an acceptance-check suite and print one summary line per check."""
    wb = build_workbench(cfg)
    if suite in POINTWISE_SUITES and isinstance(wb.kernel, WhiteNoise):
        print(
            "ERROR suite requires a pointwise-evaluable bath kernel; "
            "white noise has none",
            file=sys.stderr,
        )
        return 3
    checks = []
    if suite in ("continuity", "all"):
        checks.extend(_continuity_checks(wb))
    if suite in ("oracle", "all"):
        checks.extend(_oracle_checks(wb))
    if suite in ("prelindblad", "all"):
        checks.extend(_prelindblad_checks(wb))
    all_passed = True
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(
            f"CHECK {c.name} measured={c.measured:.6e} "
            f"threshold={c.threshold:.6e} {verdict}"
        )
        all_passed = all_passed and c.passed
    return 0 if all_passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindcur",
        description="Markovian chain dynamics with conserved-current reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "integrate the master equation and write CSV tables"),
        ("steady", "solve for the stationary state and write CSV tables"),
        ("verify", "run conservation and convergence checks"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        if name == "verify":
            p.add_argument(
                "--suite",
                default="all",
                choices=["continuity", "oracle", "prelindblad", "all"],
                help="which check family to run",
            )
        else:
            p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if getattr(args, "out", None):
            cfg = dataclasses.replace(
                cfg, output=dataclasses.replace(cfg.output, directory=args.out)
            )
        if args.command == "simulate":
            return run_simulate(cfg)
        if args.command == "steady":
            return run_steady(cfg)
        return run_verify(cfg, args.suite)
    except (PositivityViolation, PositivityLost) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LindcurError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
