"""The verdict of bench/pairs.py on canned paired numbers; no benchmark runs."""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

import pairs  # noqa: E402


def test_a_clear_memory_gain_wins_every_pair_beyond_the_spread():
    base = [45.1, 45.0, 45.2, 45.1, 45.3, 45.1, 45.0, 45.2, 45.1, 45.1]
    change = [b - 9.3 for b in base]
    v = pairs.verdict(base, change, "lower", 0.05)
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["base"][0] == pytest.approx(45.1)
    assert v["change"][0] == pytest.approx(35.8)
    assert v["base"][1] <= v["base"][0] <= v["base"][2]
    assert v["beyond_iqr"]
    assert not v["beyond_bound"]


def test_noise_within_the_spread_is_no_gain_and_no_loss():
    base = [0.30, 0.31, 0.29, 0.33, 0.30, 0.28, 0.32, 0.30, 0.31, 0.29]
    change = [0.31, 0.30, 0.30, 0.32, 0.29, 0.29, 0.33, 0.31, 0.30, 0.30]
    v = pairs.verdict(base, change, "lower", 0.25)
    assert 0 < v["wins"] < 10
    assert not v["beyond_iqr"]
    assert not v["beyond_bound"]


def test_a_loss_beyond_the_bound_is_flagged_whichever_way_is_better():
    base = [1.0, 1.1, 0.9, 1.0]
    worse_when_lower = [1.4, 1.5, 1.3, 1.4]
    v = pairs.verdict(base, worse_when_lower, "lower", 0.25)
    assert v["wins"] == 0 and v["beyond_iqr"] and v["beyond_bound"]
    v = pairs.verdict(base, worse_when_lower, "higher", 0.25)
    assert v["wins"] == 4 and v["beyond_iqr"] and not v["beyond_bound"]
    v = pairs.verdict(base, [b + 0.2 for b in base], "lower", 0.25)
    assert v["beyond_iqr"] and not v["beyond_bound"]


def test_ties_are_not_wins():
    v = pairs.verdict([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], "lower", 0.05)
    assert v["wins"] == 0
    assert not v["beyond_iqr"] and not v["beyond_bound"]
    line = pairs.describe("steady-n8", "wall_s", "s", v)
    assert line.startswith("steady-n8 wall_s: base 2 [2, 2] s, change 2 [2, 2] s;")
    assert "change wins 0/3" in line


def test_pairs_take_consecutive_seeds_and_alternate_the_first_side():
    assert pairs.schedule(0, 3) == [
        (0, ("base", "change")),
        (1, ("change", "base")),
        (2, ("base", "change")),
    ]
    # held-out seeds keep the alternation of the pair index
    held_out = pairs.schedule(100, 64)
    assert [seed for seed, _ in held_out] == list(range(100, 164))
    assert held_out[0][1] == ("base", "change") and held_out[1][1] == ("change", "base")
    # the seeds on which verify fails on every checkout stay out of both
    # documented schedules
    for first, count in ((0, 16), (100, 64)):
        seeds = {seed for seed, _ in pairs.schedule(first, count)}
        assert not seeds & {16, 34, 164}


def test_main_runs_the_pairs_from_the_first_seed(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seeds = []

    class Done(Exception):
        pass

    def fake_run(checkout, seed, seconds):
        seeds.append(seed)
        if len(seeds) == 4:  # both sides of both pairs: stop before the verdicts
            raise Done
        return {"correct": True, "failed": 0, "attempted": 1}

    monkeypatch.setattr(pairs, "run_side", fake_run)
    with pytest.raises(Done):
        pairs.main([root, root, "--pairs", "2", "--first-seed", "7"])
    assert seeds == [7, 7, 8, 8]
    seeds.clear()
    with pytest.raises(Done):
        pairs.main([root, root, "--pairs", "2"])
    assert seeds == [0, 0, 1, 1]
