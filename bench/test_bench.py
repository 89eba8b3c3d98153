"""Self-test of the benchmark: ``python -m pytest bench/ -q``.

Kept outside the tier-1 ``testpaths`` so the suite does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from workloads import WORKLOADS

REPRO_ROOT = run.ROOT / "src" / "repro"


def test_every_repro_module_maps_to_a_layer():
    assert layers.unmapped_modules(str(REPRO_ROOT)) == []


def test_layer_lookup_prefers_exact_names_and_rejects_strays():
    assert layers.layer_of_module("mpiio.two_phase") == "mpiio.two_phase"
    assert layers.layer_of_module("mpiio.protocols.nodeagg") == "mpiio.file"
    assert layers.layer_of_module("sim") == "sim.engine"
    assert layers.layer_of_module("sim.new_module") is None
    assert layers.layer_of_module("newpkg.mod") is None


def test_traced_self_time_adds_up_to_the_traced_wall():
    rec = run.run_child("tiny", 0, "trace")
    attributed = sum(v["self_s"] for v in rec["layers"].values())
    assert attributed == pytest.approx(rec["run_s"], rel=0.05)
    assert set(rec["layers"]) == set(layers.LAYERS)
    assert rec["layers"]["simmpi.p2p"]["calls"] > 0


def test_fingerprint_repeats_across_processes():
    a = run.run_child("tiny", 0)
    b = run.run_child("tiny", 0)
    assert a["errors"] == b["errors"] == []
    assert a["fingerprint"] == b["fingerprint"]
    c = run.run_child("tiny", 1)
    assert c["fingerprint"]["sha256"] != a["fingerprint"]["sha256"]


def test_setup_children_count_towards_setup_s_only():
    runs = [run.run_child("tiny", 0), run.run_child("tiny", 0, "setup")]
    assert set(runs[1]) == {"setup_s"}
    res = run.summarize("tiny", 0, runs, {})
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert res["setup_s"]["n"] == 2 and res["run_s"]["n"] == 1


def _result(run_s: list[float]) -> dict:
    workload = {"error_rate": 0.0,
                "run_s": run.timing(run_s, "best"),
                "setup_s": run.timing([0.2, 0.21, 0.2], "median"),
                "peak_rss_mb": run.timing([50.0, 50.0, 50.0], "max")}
    return {"e2e": {"workloads": {n: workload for n in WORKLOADS}}}


def _compare(tmp_path, a: dict, b: dict, capsys) -> tuple[int, list[str]]:
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = run.compare(str(pa), str(pb))
    return code, capsys.readouterr().out.splitlines()[1:]


def test_compare_passes_identical_results(tmp_path, capsys):
    base = _result([2.0, 2.02, 2.04, 2.01, 2.03])
    code, rows = _compare(tmp_path, base, base, capsys)
    assert code == 0
    assert len(rows) == 4 * (len(run.E2E) + 1)
    assert all(r.endswith(" ok") for r in rows)


def test_compare_flags_a_run_s_regression_beyond_its_bound(tmp_path, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")
    samples = [2.0, 2.02, 2.04, 2.01, 2.03]
    slower = [(1 + bound + 0.05) * s for s in samples]
    code, rows = _compare(tmp_path, _result(samples), _result(slower), capsys)
    assert code == 1
    for r in rows:
        assert r.endswith(" worse" if r.startswith("run_s ") else " ok")


def test_compare_calls_a_noisy_baseline_unresolved(tmp_path, capsys):
    noisy = _result([2.0, 2.5, 3.0, 2.2, 2.8])
    _code, rows = _compare(tmp_path, noisy, noisy, capsys)
    assert all(r.endswith(" unresolved") for r in rows if r.startswith("run_s "))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        m: unit for m, (unit, _stat) in run.E2E.items()}
    fake = {"layers": {L: {"self_s": 1.0, "share": 0.1, "calls": 1}
                       for L in layers.LAYERS},
            "counters": dict.fromkeys(run.COUNTERS, 1),
            "trace.overhead": 2.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_v, unit) in run.trace_metrics(fake).items()}


def test_reference_reproduces_the_hotpath_gate():
    # benchmarks/ref_hotpath.json:tileio_detailed, the repo's
    # determinism gate, is the same config at seed 0
    ref = run.load_reference()["tileio-detailed-256"]["0"]
    assert ref["elapsed_total"] == "0.4723583449304935"
    assert ref["messages"] == 207871
    assert ref["write_bandwidth"] == "2342171343.9269514"
    assert set(run.load_reference()) == set(run.WORKLOADS)


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
