"""Paired benchmark runs of two checkouts, and the verdict on each metric.

Run from anywhere:

    python3 bench/pairs.py ROOT_A ROOT_B --pairs 10 --seconds 10

ROOT_A is the base (the parent commit), ROOT_B the change; both are
repository roots.  Pair i runs

    python3 perfbench/run.py --workload all --seed i --seconds S --trace 0

in each root, one after the other, ROOT_A first on even pairs and ROOT_B
first on odd ones, so that neither side always runs on a warmer or a
cooler host.  For every workload and every end-to-end metric that ROOT_A's
BENCHMARK.json lists, it then prints each side's median and quartiles over
the pairs, the pairs that the change wins, whether the medians differ by
more than the base's interquartile range, and whether the change is worse
than the base by more than the metric's bound.  Runs that the benchmark
counts as failed are printed per side.  Seeds 16, 34 and 164 make verify
fail on every checkout (see ROADMAP.md), so keep --pairs at 16 or less.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def run_side(root: str, seed: int, seconds: float) -> dict:
    """The JSON result (the last line of output) of one benchmark run of
    every workload in the checkout at root."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", "all",
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(base: list, change: list, better: str, bound: float) -> dict:
    """Compare one metric's paired values: base[i] and change[i] come from
    pair i.  better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = np.percentile(base, [25, 50, 75])
    c1, c_median, c3 = np.percentile(change, [25, 50, 75])
    gain = sign * (median - c_median)  # positive when the change is better
    return {
        "base": (float(median), float(q1), float(q3)),
        "change": (float(c_median), float(c1), float(c3)),
        "wins": int(sum(sign * (a - b) > 0 for a, b in zip(base, change))),
        "pairs": len(base),
        "beyond_iqr": bool(abs(gain) > q3 - q1),
        "beyond_bound": bool(-gain > bound),
    }


def describe(workload: str, metric: str, unit: str, v: dict) -> str:
    median, q1, q3 = v["base"]
    c_median, c1, c3 = v["change"]
    return (
        f"{workload} {metric}: base {median:.4g} [{q1:.4g}, {q3:.4g}] {unit}, "
        f"change {c_median:.4g} [{c1:.4g}, {c3:.4g}] {unit}; "
        f"change wins {v['wins']}/{v['pairs']}; "
        f"beyond base IQR: {'yes' if v['beyond_iqr'] else 'no'}; "
        f"worse beyond bound: {'yes' if v['beyond_bound'] else 'no'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="repository root of the base checkout")
    parser.add_argument("change", help="repository root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    roots = {side: os.path.abspath(getattr(args, side)) for side in ("base", "change")}
    with open(os.path.join(roots["base"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    results = {"base": [], "change": []}
    for seed in range(args.pairs):
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for side in order:
            result = run_side(roots[side], seed, args.seconds)
            results[side].append(result)
            print(
                f"pair {seed} {side}: correct={result['correct']} "
                f"failed={result['failed']} of {result['attempted']}",
                flush=True,
            )
    for workload in bench["workloads"]:
        for spec in bench["end_to_end"]:
            key = f"{workload['name']}.{spec['name']}"
            base, change = (
                [r["metrics"][key]["value"] for r in results[side]]
                for side in ("base", "change")
            )
            v = verdict(base, change, spec["better"], spec["bound"])
            print(describe(workload["name"], spec["name"], spec["unit"], v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
