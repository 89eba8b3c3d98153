"""The example scripts must keep running (they are the public quickstart).

Each is executed in-process with its ``main()`` so failures surface as
ordinary test errors; only the examples that finish in a few seconds
run here (the heavier runs are exercised by the benchmarks)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["quickstart", "aggregator_placement",
                                  "btio_checkpoint", "tile_visualization",
                                  "diagnose_collective_wall"])
def test_example_runs(name, capsys):
    mod = load_example(name)
    mod.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_quickstart_verifies_bytes(capsys):
    mod = load_example("quickstart")
    mod.main()
    out = capsys.readouterr().out
    assert "verified byte-for-byte" in out
    assert "ParColl-8" in out


def test_aggregator_placement_matches_figure5(capsys):
    mod = load_example("aggregator_placement")
    mod.main()
    out = capsys.readouterr().out
    assert "N0(P0), N1(P2)" in out
    assert "N2(P6)" in out
