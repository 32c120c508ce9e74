"""Command-line front end: simulate, steady, verify.

Exit codes: 0 success (all checks pass), 1 failure, failed check or an
output that cannot be written, 2 positivity loss, 3 verify-suite
incompatible with the configured bath.  All output files are
byte-deterministic for a given config: fixed float formatting at the
configured precision, rows ordered time-major then by site/bond index.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import math
import os
import sys

import numpy as np

from .config import Config, make_kernel, parse_config, resolve_initial_state
from .current import (
    ContinuityReport,
    build_engine,
    continuity_columns,
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
    build_generator,
    evolve,
    pre_lindblad_generator,
    steady_state,
)
from .reservoir import decay_rate, gplus_table, resolution_bound
from .spectral import bohr_frequencies, decompose, default_freq_tol

POINTWISE_SUITES = ("oracle", "prelindblad", "all")
ORACLE_LADDER = (50.0, 100.0, 200.0)  # window lengths, in units of 1 / w_min
ORACLE_PER_OCTAVE = 32
PRELINDBLAD_LADDER = (25.0, 50.0, 100.0, 200.0)
ABSOLUTE_FLOOR = 1e-12
CSV_BLOCK = 4096  # rows formatted per write
POW10_MIN, POW10_MAX = -300, 308  # decimal powers the formatter scales by
EXP_MAX = 300  # largest |exponent| in the formatter's table
TABLES = (
    ("density.csv", "time,site,n,dn_dt,lstar_n,residual_raw,residual_corrected\n"),
    ("currents.csv", "time,bond,j_ham,j_diss,j_total\n"),
)


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
    engine = build_engine(ops, coupling, gplus)
    return Workbench(cfg, ops, eig, spectrum, kernel, gplus, generator, engine)


def _byte_table(texts, dtype) -> np.ndarray:
    """The equal-length ASCII texts as one dtype-wide word each, so that a
    gather of words followed by a uint8 view yields their bytes."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=dtype).copy()


@functools.cache
def _format_tables():
    """Lookup tables of the vectorised %e formatter, built on first use."""
    powers = np.array([float(f"1e{k}") for k in range(POW10_MIN, POW10_MAX + 1)])
    # the 10 000 4-digit groups as pairs of the 100 2-digit ones: 10 000
    # transient strings would leave most of a megabyte of heap behind
    pairs = _byte_table((f"{i:02d}" for i in range(100)), np.uint16)
    groups = np.empty((100, 100, 2), np.uint16)
    groups[:, :, 0] = pairs[:, None]
    groups[:, :, 1] = pairs
    groups = groups.view(np.uint32).ravel()
    exponents = _byte_table(
        (f"{e:+03d}".ljust(4, "\0") for e in range(-EXP_MAX, EXP_MAX + 1)),
        np.uint32,
    )
    leads = _byte_table(
        (f"{sign}{d}" for sign in ("\0", "-") for d in range(10)), np.uint16
    )
    return powers, groups, exponents, leads


def _format_fallback(values, prec) -> np.ndarray:
    """'%.{prec}e' % v of each value by Python itself, as (k, prec + 8)
    uint8 slots padded with zero bytes."""
    width = prec + 8
    text = (f"%-{width}.{prec}e" * len(values)) % tuple(values.tolist())
    slots = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, width).copy()
    slots[slots == ord(" ")] = 0
    return slots


def _float_slots(x, prec) -> np.ndarray:
    """'%.{prec}e' % v of each value of the 1-D float array x, as
    (len(x), prec + 8) uint8 slots padded with zero bytes.

    e = floor(log10|x|) is corrected by one where the scaled value
    s = |x| 10^(prec - e) falls outside [10^prec, 10^(prec + 1)), and
    m = rint(s) holds the digits.  The power comes from a table of
    correctly rounded 1e<k>, so s carries two roundings and lies within
    10^(prec + 1) 2.3e-16 of its exact value.  m is therefore the
    correctly rounded mantissa (the certificate) wherever
    |frac(s) - 1/2| > 10^(prec + 1) 4.5e-16, m < 10^(prec + 1) and
    1e-290 <= |x| < 1e290.  Zeros are exact.  Every other value goes to
    _format_fallback and lands in the same slot: near-ties, round-ups into
    the next decade, nan, inf, extreme exponents, about nine in ten values
    at prec = 14 and every one from prec = 15, where the margin exceeds 1/2.
    """
    powers, groups, exponents, leads = _format_tables()
    a = np.abs(x)
    zero = a == 0.0
    regular = (a >= 1e-290) & (a < 1e290)
    safe = np.where(regular, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)
    s = safe * powers[prec - e - POW10_MIN]
    e += (s >= 10.0 ** (prec + 1)).astype(np.intp) - (s < 10.0**prec)
    s = safe * powers[prec - e - POW10_MIN]
    m = np.rint(s)
    fast = (
        regular
        & (np.abs(s - np.floor(s) - 0.5) > 10.0 ** (prec + 1) * 4.5e-16)
        & (m < 10.0 ** (prec + 1))
    )
    # zeros, and the placeholders of the values left to the fallback
    m = np.where(fast, m, 0.0)
    e = np.where(fast, e, 0)
    # digits: the lead digit, then the prec-digit rest in 4-digit groups,
    # by float division, which is exact on integers below 2^53
    lead = np.floor(m / 10.0**prec)
    rest = m - lead * 10.0**prec
    n_groups = -(-prec // 4)
    words = np.empty((len(x), n_groups), np.uint32)
    for j in range(n_groups):
        unit = 10.0 ** (4 * (n_groups - 1 - j))
        g = np.floor(rest / unit)
        rest -= g * unit
        words[:, j] = groups[g.astype(np.intp)]
    digits = words.view(np.uint8)[:, 4 * n_groups - prec :]
    slots = np.empty((len(x), prec + 8), np.uint8)
    slots[:, :2] = leads[lead.astype(np.intp) + 10 * np.signbit(x)].view(
        np.uint8
    ).reshape(-1, 2)
    slots[:, 2] = ord(".")
    slots[:, 3 : 3 + prec] = digits
    slots[:, 3 + prec] = ord("e")
    slots[:, 4 + prec :] = exponents[e + EXP_MAX].view(np.uint8).reshape(-1, 4)
    slow = ~(fast | zero)
    if slow.any():
        slots[slow] = _format_fallback(x[slow], prec)
    return slots


def _write_rows(fh, prec, times, columns) -> None:
    """The rows of the (T, n) columns' values, one per (time, index), to
    the binary file fh.

    A block of rows is one uint8 array in which every field has a
    fixed-width slot padded with zero bytes: the time (formatted once per
    state by _float_slots and repeated over its n rows), the index '%d,'
    from a table, then each column's '%.{prec}e' slot, each float slot
    followed by ',' or, at the end of the row, '\n'.  Dropping the zero
    bytes leaves the text, which is written as bytes.  A block holds
    CSV_BLOCK rows (whole states, at least one), so the slots held at once
    stay bounded at any T and N.
    """
    n = columns[0].shape[1]
    width = prec + 9
    index_width = len(str(n - 1)) + 1
    index = _byte_table(
        (f"{i},".ljust(index_width, "\0") for i in range(n)), np.uint8
    ).reshape(n, index_width)
    states = max(1, CSV_BLOCK // n)
    for start in range(0, len(times), states):
        block = slice(start, start + states)
        t = len(times[block])
        rows = np.empty((t, n, width * (1 + len(columns)) + index_width), np.uint8)
        rows[:, :, : width - 1] = _float_slots(times[block], prec)[:, None]
        rows[:, :, width - 1] = ord(",")
        rows[:, :, width : width + index_width] = index
        for k, column in enumerate(columns):
            at = width + index_width + k * width
            rows[:, :, at : at + width - 1] = _float_slots(
                column[block].ravel(), prec
            ).reshape(t, n, -1)
            rows[:, :, at + width - 1] = ord(",")
        rows[:, :, -1] = ord("\n")
        fh.write(rows[rows != 0])


def _write_csvs(files, prec, report: ContinuityReport) -> None:
    """The rows of one block's report, appended to the open density and
    currents tables."""
    density, currents = files
    _write_rows(
        density,
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
    j_ham, j_diss = report.bond_j_ham, report.bond_j_diss
    _write_rows(currents, prec, report.times, [j_ham, j_diss, j_ham + j_diss])


@contextlib.contextmanager
def _open_tables(out_dir: str, prec: int):
    """Open the run's tables in out_dir, creating it, and yield
    write(report), which appends the rows of one block's report to them.

    Each table is written under its name plus '.tmp' and renamed into
    place with os.replace once the block has ended; on any error the
    temporaries are removed, so a failed run leaves no truncated table and
    the tables of an earlier run as they were.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name, _ in TABLES]
    files = []
    try:
        for path, (_, header) in zip(paths, TABLES):
            fh = open(path + ".tmp", "wb")
            files.append(fh)
            fh.write(header.encode("ascii"))
        yield lambda report: _write_csvs(files, prec, report)
        for fh in files:
            fh.close()
        for path in paths:
            os.replace(path + ".tmp", path)
    except BaseException:
        for fh, path in zip(files, paths):
            fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")
        raise


class _Blocks:
    """A consumer for evolve that passes its chunks of states on to
    sink(times, states) in blocks of a fixed number of states.

    The chunks are copied into one buffer of a block, sink gets views of
    it each time it fills, and close() passes on the rest.
    """

    def __init__(self, sink, size: int, n: int):
        self.sink = sink
        self.times = np.empty(size)
        self.states = np.empty((size, n, n), dtype=complex)
        self.filled = 0

    def __call__(self, times, states) -> None:
        while len(times):
            take = min(len(times), len(self.times) - self.filled)
            part = slice(self.filled, self.filled + take)
            self.times[part] = times[:take]
            self.states[part] = states[:take]
            self.filled += take
            times, states = times[take:], states[take:]
            if self.filled == len(self.times):
                self.close()

    def close(self) -> None:
        if self.filled:
            self.sink(self.times[: self.filled], self.states[: self.filled])
            self.filled = 0


def run_simulate(cfg: Config) -> int:
    """Integrate the configured model and emit density and current tables.

    The states are reported and written a block of CSV_BLOCK // N of them
    at a time and then dropped, so memory does not depend on the horizon.
    """
    wb = build_workbench(cfg)
    rho0 = resolve_initial_state(cfg, wb.eig)
    N = cfg.model.n_sites
    with _open_tables(cfg.output.directory, cfg.output.precision) as write:
        columns = continuity_columns(wb.generator, wb.ops, wb.engine)
        blocks = _Blocks(
            lambda times, states: write(columns(times, states)),
            max(1, CSV_BLOCK // N),
            N,
        )
        evolve(wb.generator, rho0, cfg.run.t_final, cfg.run.dt, blocks)
        blocks.close()
    return 0


def run_steady(cfg: Config) -> int:
    """Emit the simulate tables for the unique stationary state, at time 0."""
    wb = build_workbench(cfg)
    with _open_tables(cfg.output.directory, cfg.output.precision) as write:
        rho = steady_state(wb.generator)
        columns = continuity_columns(wb.generator, wb.ops, wb.engine)
        write(columns(np.zeros(1), rho[None]))
    return 0


def _continuity_checks(wb: Workbench) -> list:
    cfg = wb.cfg
    rho0 = resolve_initial_state(cfg, wb.eig)
    columns = continuity_columns(wb.generator, wb.ops, wb.engine)
    # running maxima of |residual_raw - lstar_n|, |residual_raw| and
    # |residual_corrected| over evolve's chunks of states
    peaks = np.zeros(3)

    def track(times, states):
        r = columns(times, states)
        np.maximum(
            peaks,
            [
                np.max(np.abs(r.residual_raw - r.site_lstar_density)),
                np.max(np.abs(r.residual_raw)),
                np.max(np.abs(r.residual_corrected)),
            ],
            out=peaks,
        )

    evolve(wb.generator, rho0, cfg.run.t_final, cfg.run.dt, track)
    raw_vs_source, raw_scale, corrected = map(float, peaks)
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
    # ORACLE_PER_OCTAVE log-spaced windows per octave, from the first to the
    # last length of the ladder, read off one pass over the longest window
    shortest, middle, longest = ORACLE_LADDER
    octaves = np.arange(round(math.log2(longest / shortest) * ORACLE_PER_OCTAVE) + 1)
    factors = shortest * 2.0 ** (octaves / ORACLE_PER_OCTAVE)
    _, jo = jd_finite_time_oracle(
        wb.ops, wb.eig, wb.spectrum, wb.kernel, rho0, factors / w_min,
        _oracle_quadrature_dt(wb),
    )
    errors = np.max(np.abs(jo - je), axis=1)
    # the error oscillates under a 1/t envelope, so the early and late
    # halves of the ladder are compared by their largest values
    late, early = errors[factors >= middle], errors[factors <= middle]
    growth = float(np.max(late) - np.max(early))
    final = float(errors[-1])
    if scale <= ABSOLUTE_FLOOR:
        results.append(CheckResult("oracle_finite_time", final, ABSOLUTE_FLOOR))
        results.append(
            CheckResult("oracle_error_decreasing", max(growth, 0.0), ABSOLUTE_FLOOR)
        )
        return results
    results.append(CheckResult("oracle_finite_time", final / scale, 0.05))
    results.append(CheckResult("oracle_error_decreasing", growth / scale, 0.0))
    return results


def _prelindblad_checks(wb: Workbench) -> list:
    rate = decay_rate(wb.kernel)
    dt = _oracle_quadrature_dt(wb)
    reference = wb.generator.dissipator.matrix
    # every window of the ladder read off one pass over the longest
    lengths, maps = pre_lindblad_generator(
        wb.engine.coupling, wb.kernel, np.array(PRELINDBLAD_LADDER) / rate, dt
    )
    distances = np.max(np.abs(maps - reference), axis=(1, 2))
    if np.all(distances < 1e-14):
        # nothing to fit; a zero dissipator is matched at every window
        return [
            CheckResult("prelindblad_monotone", 0.0, ABSOLUTE_FLOOR),
            CheckResult("prelindblad_slope", 0.0, 0.3),
        ]
    monotone = float(np.max(np.diff(distances)))
    slope = float(
        np.polyfit(np.log(lengths), np.log(distances), 1)[0]
    )
    return [
        CheckResult("prelindblad_monotone", monotone, 0.0),
        CheckResult("prelindblad_slope", abs(slope + 1.0), 0.3),
    ]


def run_verify(cfg: Config, suite: str) -> int:
    """Run an acceptance-check suite and print one summary line per check."""
    if suite in POINTWISE_SUITES and cfg.bath.type == "white":
        print(
            "ERROR suite requires a pointwise-evaluable bath kernel; "
            "white noise has none",
            file=sys.stderr,
        )
        return 3
    wb = build_workbench(cfg)
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
    except (LindcurError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the backstop for a model too large for this machine; numpy's
        # _ArrayMemoryError is reported under the builtin's name
        print(f"ERROR MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
