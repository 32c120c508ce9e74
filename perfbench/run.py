"""lindcur benchmark: seeded workloads, end-to-end metrics, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload steady-n8 --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Each run of the program is a fresh child interpreter (one at a time, BLAS
and OpenMP pinned to one thread) working in a temporary directory under
``.perfbench_tmp/`` that is removed afterwards.  ``--trace 0`` reports
wall_s, setup_s and peak_rss_mb; ``--trace 1`` alternates untraced and
traced runs and reports the per-layer split.  Every run passes through the
correctness gate (``gate.py``) and a byte-identity check against the
invocation's first run; a run that fails either, or exits nonzero, counts
in ``failed``.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gate
import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = 1
MIN_RUNS = 3  # a median that one slow run cannot move; byte-identity needs two
DEADLINE_S = 160.0  # stop starting runs that could end past this
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def problem_sizes(workload, config_path: str) -> dict:
    """N, bins, resonant quadruples, evolve steps and stored states.

    Bins and quadruples are counted from the reference spectrum with the
    engine's definitions, so the count exists even where no engine is
    built: first family w_J + w_1 = w_2 with w_rho = 0, second family
    w_1 = w_2 with w_rho = -w_J, both with w_J nonzero.  The first family
    is counted by a sorted search, in O(bins^2) memory.
    """
    import numpy as np

    with open(config_path, encoding="utf-8") as fh:
        model = json.load(fh)["model"]
    h, _ = reference.chain_operators(model["potential"], model["coupling"], model["hopping"])
    energies = np.linalg.eigvalsh(h)
    _, w = reference.bohr_bins(energies)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(energies))))
    nonzero = np.abs(w) > tol
    sums = (w[nonzero][:, None] + w[None, :]).ravel()
    nearest = np.clip(np.searchsorted(w, sums), 1, len(w) - 1)
    gap = np.minimum(np.abs(sums - w[nearest - 1]), np.abs(sums - w[nearest]))
    first = int(np.sum(gap <= tol))
    second = int(np.sum(nonzero)) * len(w)
    steps = workload.evolve_steps
    return {
        "n_sites": workload.n_sites,
        "bins": len(w),
        "quadruples": first + second,
        "evolve_steps": steps,
        "stored_states": steps + 1,
    }


class Session:
    """One invocation: a temporary work area, its config, and its runs."""

    def __init__(self, workload, seed: int, root: str):
        self.workload = workload
        os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_tmp"))
        self.config = workloads.write_config(workload, seed, self.tmp)
        self.out = os.path.join(self.tmp, "out")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: str(THREADS) for var in THREAD_VARS})
        self.first_digest = None
        self.first_problems = None
        self.csv_bytes = 0
        self.runs = []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other invocations may still use it
            os.rmdir(os.path.dirname(self.tmp))

    def child(self, mode: str) -> dict:
        """Run the workload once in a fresh interpreter and gate its output."""
        shutil.rmtree(self.out, ignore_errors=True)
        spec_path = os.path.join(self.tmp, "spec.json")
        record_path = os.path.join(self.tmp, "record.json")
        stdout_path = os.path.join(self.tmp, "stdout.txt")
        for path in (record_path, stdout_path):
            if os.path.exists(path):
                os.remove(path)
        spec = {
            "command": self.workload.command,
            "config": self.config,
            "out": self.out,
            "record": record_path,
            "mode": mode,
        }
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
        with open(stdout_path, "wb") as stdout:
            spawned = time.monotonic()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, env=self.env, cwd=self.tmp)
            # a blocking wait returns as soon as the child exits; a timed
            # wait would poll, adding up to 50 ms to the measured wall time
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                returncode = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        run = {"mode": mode, "wall_s": wall, "problems": []}
        if returncode != 0:
            run["problems"].append(f"exit code {returncode}")
        try:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            run["setup_s"] = record["ready"] - spawned
            run["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
        except (OSError, KeyError, ValueError):
            run["problems"].append("no set-up record")
            record = {}
        if not run["problems"]:
            run["problems"] += self._gate(stdout_path)
        if mode == "trace" and "spans" in record:
            run["summary"] = tracer.summarize(record, wall)
        self.runs.append(run)
        return run

    def _gate(self, stdout_path: str) -> list:
        files = [os.path.join(self.out, f) for f in gate.output_files(self.workload.command)]
        digest = hashlib.sha256()
        try:
            for path in files or [stdout_path]:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        except OSError as exc:
            return [f"missing output: {exc}"]
        digest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
            self.first_problems = gate.check(
                self.workload.command, self.config, self.out, stdout_path
            )
            if self.workload.command in ("simulate", "steady"):
                self.csv_bytes = sum(os.path.getsize(p) for p in files)
        elif digest != self.first_digest:
            return ["output is not byte-identical to the first run"]
        return list(self.first_problems)


def _median(runs, key):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else None


def measure(workload, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Run one workload for about ``seconds`` and return metrics and counts."""
    session = Session(workload, seed, root)
    begun = time.monotonic()
    try:
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
        session.child("import")  # warm-up: bytecode and file cache, not counted
        session.runs.clear()
        modes = ("run", "trace") if trace else ("run",)
        start = time.monotonic()
        last = 0.0
        while True:
            done = len(session.runs)
            elapsed = time.monotonic() - start
            if done >= max(MIN_RUNS, len(modes)) and (
                elapsed >= seconds or time.monotonic() - begun + last > DEADLINE_S
            ):
                break
            last = session.child(modes[done % len(modes)])["wall_s"]
        sizes = problem_sizes(workload, session.config)
        return _result(session, trace, sizes)
    finally:
        session.close()


def _result(session: Session, trace: bool, sizes: dict) -> dict:
    runs = session.runs
    failed = sum(bool(r["problems"]) for r in runs)
    full = [r for r in runs if r["mode"] == "run"]
    samples = {
        "wall_s": len(full),
        "setup_s": sum("setup_s" in r for r in runs),
        "peak_rss_mb": len(full),
    }
    if trace:
        traced = [r for r in runs if "summary" in r]
        per_run = [tracer.layer_metrics(r["summary"]) for r in traced]
        metrics = {
            name: {"value": statistics.median(v[name] for v in per_run), "unit": unit}
            for name, _, _, unit in tracer.LAYER_METRICS
        } if per_run else {}
        if per_run:
            metrics["cli.csv_bytes"] = {"value": session.csv_bytes, "unit": "bytes"}
            metrics["trace.overhead_s"] = {
                "value": _median(traced, "wall_s") - _median(full, "wall_s"),
                "unit": "s",
            }
            metrics["trace.uncovered_s"] = {
                "value": statistics.median(r["summary"]["uncovered_s"] for r in traced),
                "unit": "s",
            }
        samples = {name: len(per_run) for name in metrics}
    else:
        metrics = {
            "wall_s": {"value": _median(full, "wall_s"), "unit": "s"},
            "setup_s": {"value": _median(runs, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(full, "peak_rss_mb"), "unit": "MB"},
        }
    problems = sorted({p for r in runs for p in r["problems"]})
    return {
        "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "sizes": sizes,
        "problems": problems,
    }


def report(name: str, result: dict) -> None:
    """Human-readable lines: sizes, each metric with unit and sample count."""
    sizes = " ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"sizes workload={name} {sizes}")
    for metric, entry in result["metrics"].items():
        print(
            f"metric workload={name} {metric}={entry['value']:.6g} {entry['unit']} "
            f"(median of {result['samples'][metric]})"
        )
    rate = result["failed"] / result["attempted"]
    print(
        f"metric workload={name} error_rate={rate:.6g} "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    for problem in result["problems"]:
        print(f"problem workload={name} {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lindcur", "cli.py")):
        print("perfbench: no lindcur sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    names = list(workloads.BY_NAME) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(
            workloads.BY_NAME[name], args.seed, args.seconds, bool(args.trace), root
        )
        report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
