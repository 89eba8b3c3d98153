"""The gain-claim rule of ``scripts/bench_pairs.py`` on synthetic pairs."""

import importlib.util
import json
import subprocess
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


def test_each_side_runs_on_its_own_fresh_bytecode_cache(monkeypatch,
                                                         tmp_path):
    calls = []
    line = json.dumps({"correct": True, "failed": 0, "metrics": {
        m: {"value": 1.0} for m in ("run_s", "setup_s", "peak_rss_mb")}})

    def fake_run(cmd, cwd=None, env=None, **kw):
        calls.append((list(cmd), Path(cwd), dict(env)))
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = (tmp_path / "parent").resolve()
    change = (tmp_path / "change").resolve()
    assert bench_pairs.main([str(parent), str(change), "--workload",
                             "tileio-macro-512", "--pairs", "2"]) == 0

    compiles = [i for i, c in enumerate(calls) if "compileall" in c[0]]
    runs = [i for i, c in enumerate(calls) if "compileall" not in c[0]]
    assert sorted(calls[i][1] for i in compiles) == [change, parent]
    assert max(compiles) < min(runs)
    # one unmeasured warm-up run a side, then two measured pairs
    assert len(runs) == 2 + 2 * 2
    prefix = {calls[i][1]: calls[i][2]["PYTHONPYCACHEPREFIX"]
              for i in compiles}
    assert prefix[parent] != prefix[change]
    for _cmd, cwd, env in calls:
        assert env["PYTHONPYCACHEPREFIX"] == prefix[cwd]
        assert "PYTHONDONTWRITEBYTECODE" not in env
