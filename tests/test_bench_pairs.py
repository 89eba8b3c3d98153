"""The gain-claim rule of ``scripts/bench_pairs.py`` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [4.6, 4.8, 5.2, 4.7, 4.9, 5.0, 4.5, 5.3, 4.8, 4.7]


def test_clear_gain_holds():
    change = [x * 0.8 for x in PARENT]
    res = bench_pairs.claim(PARENT, change, "lower")
    assert res["wins"] == 10 and res["holds"]
    assert res["ratios"] == pytest.approx([0.8] * 10)


def test_nine_of_ten_wins_is_enough_eight_is_not():
    change = [x * 0.8 for x in PARENT]
    change[0] = PARENT[0] * 1.01
    assert bench_pairs.claim(PARENT, change, "lower")["holds"]
    change[1] = PARENT[1] * 1.01
    res = bench_pairs.claim(PARENT, change, "lower")
    assert res["wins"] == 8 and not res["holds"]


def test_gap_within_parent_spread_does_not_hold():
    # the change wins every pair, by less than the parent's own spread
    change = [x - 0.05 for x in PARENT]
    res = bench_pairs.claim(PARENT, change, "lower")
    assert res["wins"] == 10
    assert res["gap"] < res["iqr"] and not res["holds"]


def test_ties_are_not_wins():
    res = bench_pairs.claim(PARENT, list(PARENT), "lower")
    assert res["wins"] == 0 and not res["holds"]


def test_higher_is_better_flips_the_rule():
    change = [x * 1.25 for x in PARENT]
    assert bench_pairs.claim(PARENT, change, "higher")["holds"]
    assert not bench_pairs.claim(PARENT, change, "lower")["holds"]


def test_quartiles():
    q1, med, q3 = bench_pairs.quartiles(PARENT)
    assert med == pytest.approx(4.8)
    assert q1 < med < q3


def test_unpaired_samples_rejected():
    with pytest.raises(ValueError):
        bench_pairs.claim(PARENT, PARENT[:-1], "lower")
