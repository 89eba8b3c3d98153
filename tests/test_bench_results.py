"""``BENCH_*.json`` writer: smoke and full results never clobber each other."""

from __future__ import annotations

import importlib.util
import json
import pathlib

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
