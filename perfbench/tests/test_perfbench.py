"""Tests of the benchmark itself: gate, trace coverage and span bookkeeping.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They use a shortened simulate workload (t_final = 1, 101 stored states), so
each child run takes about two seconds.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SHORT = dataclasses.replace(workloads.BY_NAME["simulate-n4-long"], t_final=1.0)


@pytest.fixture
def session():
    s = run.Session(SHORT, 0, ROOT)
    yield s
    s.close()


def test_corrupted_density_cell_fails_gate(session):
    first = session.child("run")
    assert first["problems"] == []
    path = os.path.join(session.out, "density.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    cells = lines[57].rstrip("\n").split(",")
    cells[6] = f"{float(cells[6]) + 1e-6:.12e}"
    lines[57] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    problems = gate.check("simulate", session.config, session.out, "")
    assert any("residual_corrected" in p for p in problems)


def test_output_differing_from_first_run_counts_as_failed(session):
    session.child("run")
    session.first_digest = "0" * 64  # as if the first run had written other bytes
    second = session.child("run")
    assert "output is not byte-identical to the first run" in second["problems"]
    result = run._result(session, trace=False, sizes={})
    assert result["failed"] == 1 and result["attempted"] == 2 and not result["correct"]


def test_verify_fail_line_fails_gate():
    lines = [f"CHECK {n} measured=1e-12 threshold=1e-09 PASS" for n in gate.VERIFY_CHECKS]
    assert gate.check_verify("\n".join(lines)) == []
    lines[5] = lines[5].replace("PASS", "FAIL")
    assert gate.check_verify("\n".join(lines)) == ["CHECK oracle_finite_time FAIL"]


def test_traced_run_emits_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    result = run.measure(SHORT, 0, 0.0, True, ROOT)
    assert result["correct"]
    assert set(result["metrics"]) == declared


def test_self_times_are_nonnegative_and_sum_to_covered_wall(session):
    traced = session.child("trace")
    assert traced["problems"] == []
    summary = traced["summary"]
    assert min(summary["self"].values()) >= -1e-9
    covered = traced["wall_s"] - summary["uncovered_s"]
    assert sum(summary["self"].values()) == pytest.approx(covered, abs=1e-9)
    assert summary["uncovered_s"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "steady-n8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
