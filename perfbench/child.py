"""One workload run inside a fresh interpreter.

Usage: python3 child.py <spec.json>

The spec names the command, the config, the output directory, the record
file and the mode: "run" (untraced), "trace" (every layer function
wrapped) or "import" (load the package and exit, to warm the bytecode and
file caches).  The untraced run records one instant, the monotonic time
at which set-up ends, so the parent can subtract its own spawn time; at
exit every run also records its own peak resident memory.
"""
from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_kb() -> int:
    """This process's own resident high-water mark (VmHWM).

    getrusage's ru_maxrss is not used: at exec the kernel folds the
    spawning parent's high-water mark into it, so a child of a large
    parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def run_dynamics(config_path: str, out_dir: str, ready) -> int:
    """README quick-start without the J_D engine: build, evolve, stationary state."""
    import numpy as np

    import lindcur as lc
    from lindcur.config import make_kernel, parse_config, resolve_initial_state

    cfg = parse_config(config_path)
    ops = lc.build_chain(
        lc.ChainSpec(
            cfg.model.n_sites,
            cfg.model.hopping,
            np.array(cfg.model.potential),
            np.array(cfg.model.coupling),
        )
    )
    eig = lc.hermitian_eigensystem(ops.h)
    spectrum = lc.bohr_frequencies(eig, lc.default_freq_tol(eig))
    gplus = lc.gplus_table(make_kernel(cfg.bath), spectrum)
    G = lc.build_generator(
        lc.decompose(ops.v, eig, spectrum),
        gplus,
        eig,
        positivity_tol=cfg.tolerances.positivity,
    )
    ready()
    traj = lc.evolve(G, resolve_initial_state(cfg, eig), cfg.run.t_final, cfg.run.dt)
    rho_ss = lc.steady_state(G)

    os.makedirs(out_dir, exist_ok=True)
    n = cfg.model.n_sites
    with open(os.path.join(out_dir, "trajectory.csv"), "w", encoding="utf-8") as fh:
        fh.write(
            "time,trace_defect,herm_defect,herm_correction,trace_correction,"
            + ",".join(f"n{r}" for r in range(n))
            + "\n"
        )
        for k, rho in enumerate(traj.states):
            row = [
                traj.times[k],
                abs(np.trace(rho) - 1.0),
                np.max(np.abs(rho - rho.conj().T)),
                traj.herm_defects[k],
                traj.trace_defects[k],
                *np.real(np.diag(rho)),
            ]
            fh.write(",".join(f"{x:.17e}" for x in row) + "\n")
    with open(os.path.join(out_dir, "stationary.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,re,im\n")
        for i in range(n):
            for j in range(n):
                fh.write(f"{i},{j},{rho_ss[i, j].real:.17e},{rho_ss[i, j].imag:.17e}\n")
    return 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "import":
        import lindcur.cli  # noqa: F401

        return 0
    record = {}
    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def ready():
        record["ready"] = time.monotonic()

    if spec["command"] == "dynamics":
        rc = run_dynamics(spec["config"], spec["out"], ready)
    else:
        from lindcur import cli

        build = cli.build_workbench

        def build_and_mark(cfg):
            wb = build(cfg)
            ready()
            return wb

        cli.build_workbench = build_and_mark
        rc = cli.main([spec["command"], "--config", spec["config"]])
    if tracer is not None:
        record.update(tracer.record())
    record["peak_rss_kb"] = peak_rss_kb()
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
