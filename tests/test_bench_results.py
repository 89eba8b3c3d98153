"""``BENCH_*.json`` writer: smoke and full results never clobber each other."""

from __future__ import annotations

import importlib.util
import json
import pathlib
from types import SimpleNamespace

import pytest

COMMON = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py"


@pytest.fixture(scope="module")
def common():
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_modes_are_kept_apart(common, tmp_path):
    out = tmp_path / "BENCH_x.json"
    common.write_mode_result(out, "x", "full", {"wall_s": 9.0})
    common.write_mode_result(out, "x", "smoke", {"wall_s": 0.1})
    common.write_mode_result(out, "x", "smoke", {"wall_s": 0.2})
    doc = json.loads(out.read_text())
    assert doc["benchmark"] == "x"
    assert doc["full"]["wall_s"] == 9.0
    assert doc["smoke"]["wall_s"] == 0.2
    for mode in ("smoke", "full"):
        entry = doc[mode]
        assert entry["mode"] == mode
        assert {"git_rev", "cpus", "python", "machine"} <= set(entry)


def test_single_result_layout_is_migrated(common, tmp_path):
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"benchmark": "x", "mode": "full",
                               "wall_s": 9.0}))
    common.write_mode_result(out, "x", "smoke", {"wall_s": 0.1})
    doc = json.loads(out.read_text())
    assert doc["full"]["wall_s"] == 9.0
    assert doc["smoke"]["wall_s"] == 0.1
    assert "mode" not in doc


HOTPATH = COMMON.parent / "bench_hotpath.py"


@pytest.fixture
def hotpath(monkeypatch, tmp_path):
    """``bench_hotpath`` with two fake configs and its files in tmp_path."""
    monkeypatch.syspath_prepend(str(COMMON.parent))
    spec = importlib.util.spec_from_file_location("bench_hotpath", HOTPATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    metrics = {"write_bandwidth": "1.0", "read_bandwidth": "0.0",
               "elapsed_total": "0.5", "events": 10, "messages": 4,
               "bytes_written": 64, "file_sha256": ""}
    ref = {"configs": {k: metrics for k in ("a_smoke", "b_smoke")}}
    (tmp_path / "ref.json").write_text(json.dumps(ref))
    (tmp_path / "base.json").write_text(json.dumps(
        {"a_smoke": 100.0, "b_smoke": 100.0}))
    monkeypatch.setattr(mod, "CONFIGS", {"a": None, "b": None})
    monkeypatch.setattr(mod, "REF", tmp_path / "ref.json")
    monkeypatch.setattr(mod, "SMOKE_BASELINE", tmp_path / "base.json")
    monkeypatch.setattr(mod, "OUT", tmp_path / "BENCH_hotpath.json")
    monkeypatch.setattr(mod, "SMOKE_OUT",
                        tmp_path / "logs" / "BENCH_hotpath_smoke.json")
    perf = dict.fromkeys(
        ("effects_dispatched", "events_per_sec", "heap_pushes",
         "heap_bypasses", "exact_matches", "wildcard_matches",
         "segments_vectorized", "rounds_planned", "macro_rounds",
         "messages_coalesced", "gc_pause_s"), 0)

    def stub(diverge):
        """``run_config`` whose result differs where ``diverge(name,
        collective_mode)`` says so."""
        def run_config(name, smoke=False, perf_out=None,
                       collective_mode=None):
            if perf_out is not None:
                perf_out.append(SimpleNamespace(gc_collections=(0, 0, 0),
                                                **perf))
            out = dict(metrics)
            if diverge(name, collective_mode):
                out["elapsed_total"] = "0.75"
            return out

        monkeypatch.setattr(mod, "run_config", run_config)

    return mod, stub


def test_hotpath_status_is_per_config(hotpath, capsys):
    mod, stub = hotpath
    # config a misses the reference; b matches it
    stub(lambda name, mode: name == "a" and mode is None)
    assert mod.main(["--smoke"]) == 1
    lines = capsys.readouterr().out.splitlines()
    status = {line.split(":")[0].strip(): line.rsplit("[", 1)[1][:-1]
              for line in lines if line.endswith("]")}
    assert status == {"a_smoke": "DETERMINISM MISMATCH", "b_smoke": "ok"}
    doc = json.loads(mod.SMOKE_OUT.read_text())
    assert doc["smoke"]["determinism_ok"] is False
    assert not mod.OUT.exists()


def test_hotpath_macro_divergence_is_not_a_reference_mismatch(hotpath):
    mod, stub = hotpath
    # every config matches the reference, but b's macro run differs
    # from its detailed run
    stub(lambda name, mode: name == "b" and mode == "macro")
    assert mod.main(["--smoke"]) == 1
    entry = json.loads(mod.SMOKE_OUT.read_text())["smoke"]
    assert entry["determinism_ok"] is True
    assert entry["macro_equivalence"]["a_smoke"]["bit_identical"] is True
    assert entry["macro_equivalence"]["b_smoke"]["bit_identical"] is False


SHARDED = COMMON.parent / "bench_sharded_scaling.py"


@pytest.fixture
def sharded(monkeypatch, tmp_path):
    """``bench_sharded_scaling`` on a stubbed probe and fake clocks.

    The unsharded run takes 10 s wall and 8 s CPU; each sharded run
    takes 6 s wall, 0.5 s of coordinator CPU and 2 s in its slowest
    shard.
    """
    monkeypatch.syspath_prepend(str(COMMON.parent))
    spec = importlib.util.spec_from_file_location("bench_sharded_scaling",
                                                  SHARDED)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    clock = {"wall": 0.0, "cpu": 0.0}

    def run_shard_scale(nprocs, shards):
        clock["wall"] += 10.0 if shards == 1 else 6.0
        clock["cpu"] += 8.0 if shards == 1 else 0.5
        return {"nprocs": nprocs, "shards": shards, "wall_s": 0.0,
                "events": 1, "events_per_sec": 1.0, "messages": 4,
                "elapsed_total": "0.5", "write_bandwidth": "1.0",
                "shard": None if shards == 1 else {"max_shard_cpu": 2.0}}

    monkeypatch.setattr(mod, "run_shard_scale", run_shard_scale)
    monkeypatch.setattr(mod, "time", SimpleNamespace(
        perf_counter=lambda: clock["wall"],
        process_time=lambda: clock["cpu"]))
    monkeypatch.setattr(mod, "OUT", tmp_path / "BENCH_sharded_scaling.json")
    monkeypatch.setattr(mod, "SMOKE_OUT",
                        tmp_path / "logs" / "BENCH_sharded_scaling_smoke.json")
    return mod


def test_sharded_smoke_keeps_the_full_result(sharded):
    sharded.OUT.write_text(json.dumps(
        {"benchmark": "sharded_scaling", "mode": "full", "nprocs": 4096}))
    tracked = sharded.OUT.read_bytes()
    assert sharded.main(["--smoke"]) == 0
    # the smoke entry goes to the git-ignored log: the tracked full
    # result stays byte-identical
    assert sharded.OUT.read_bytes() == tracked
    doc = json.loads(sharded.SMOKE_OUT.read_text())
    assert doc["smoke"]["nprocs"] == 512
    assert "full" not in doc


def test_sharded_critical_path_is_cpu_over_cpu(sharded):
    assert sharded.main(["--smoke"]) == 0
    entry = json.loads(sharded.SMOKE_OUT.read_text())["smoke"]
    assert [r["cpu_s"] for r in entry["results"]] == [8.0, 0.5, 0.5]
    # unsharded CPU over slowest shard CPU plus coordinator CPU, not the
    # unsharded wall (10 s) over the shard CPU (2 s)
    assert entry["critical_path_speedup_4_shards"] == round(8.0 / 2.5, 2)
    assert entry["wall_speedup_4_shards"] == round(10.0 / 6.0, 2)
