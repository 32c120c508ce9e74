"""The program surface that the benchmark in perfbench/ relies on.

Each case runs perfbench/child.py, the benchmark's own per-run entry point,
in trace mode on a shortened four-site workload, and checks what the
benchmark needs from that run: a clean exit, the set-up and memory record,
the traced size counters, and a pass from the benchmark's correctness gate.
An API change that breaks the benchmark's library script or its tracer
fails here.  Nothing under perfbench/ is modified; its modules are only
imported.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import workloads  # noqa: E402

SHORT = {
    "simulate": dataclasses.replace(
        workloads.BY_NAME["simulate-n4-long"], t_final=1.0
    ),
    "steady": dataclasses.replace(workloads.BY_NAME["steady-n8"], n_sites=4),
    "dynamics": dataclasses.replace(
        workloads.BY_NAME["dynamics-n20"], n_sites=4, t_final=1.0
    ),
    # zero potential: bins hold several coherences, so the generator has
    # blocks larger than one besides the population block
    "dynamics-uniform": dataclasses.replace(
        workloads.BY_NAME["dynamics-n20"],
        n_sites=4,
        t_final=1.0,
        random_potential=False,
    ),
    "verify": dataclasses.replace(
        workloads.BY_NAME["verify-n4-uniform"], t_final=1.0
    ),
}
COUNTERS = {
    "simulate": {
        "spectral.bins",
        "current.quadruples",
        "lindblad.evolve_steps",
        "lindblad.generator_bytes",
    },
    "steady": {"spectral.bins", "current.quadruples", "lindblad.generator_bytes"},
    "dynamics": {"spectral.bins", "lindblad.evolve_steps", "lindblad.generator_bytes"},
    "verify": {
        "spectral.bins",
        "current.quadruples",
        "lindblad.evolve_steps",
        "lindblad.generator_bytes",
    },
}


@pytest.mark.parametrize("case", sorted(SHORT))
def test_traced_child_run_passes_the_gate(tmp_path, case):
    workload = SHORT[case]
    command = workload.command
    config = workloads.write_config(workload, 0, str(tmp_path))
    spec = {
        "command": command,
        "config": config,
        "out": str(tmp_path / "out"),
        "record": str(tmp_path / "record.json"),
        "mode": "trace",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    stdout_path = tmp_path / "stdout.txt"
    with open(stdout_path, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), str(spec_path)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(tmp_path),
            timeout=120,
        )
    assert proc.returncode == 0, proc.stderr.decode()
    record = json.loads((tmp_path / "record.json").read_text(encoding="utf-8"))
    assert "ready" in record and record["peak_rss_kb"] > 0
    assert COUNTERS[command] <= set(record["counts"])
    if command != "steady":
        assert record["counts"]["lindblad.evolve_steps"] == workload.evolve_steps
    assert gate.check(command, config, spec["out"], str(stdout_path)) == []
