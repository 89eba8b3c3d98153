"""Wall-clock cost of the collective-fidelity backends (fig-9-style sweep).

Runs the same tile-IO collective-write experiment through the
``detailed`` and ``analytic`` backends at growing rank counts and
records *host* wall-clock per run — the point of the cheaper backend is
simulator speed, not simulated time.  Results land in the
stamped ``full`` entry of ``BENCH_backend_fastpath.json`` at the repo
root.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_backend_fastpath.py

The rank ladder stops growing once the slowest backend (detailed)
exceeds the time budget, so the sweep always finishes quickly; the JSON
records the largest rank count where both backends completed.
"""

from __future__ import annotations

import pathlib
import sys
import time
from functools import partial

from _common import write_mode_result
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.report import mb_per_s
from repro.workloads import TileIOConfig, tile_io_program

MODES = ("detailed", "analytic")
RANKS = (32, 64, 128, 256)
BUDGET_S = 60.0  # per-run ceiling for the slowest backend
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backend_fastpath.json"


def run_point(nprocs: int, mode: str) -> dict:
    cfg = ExperimentConfig(nprocs=nprocs, collective_mode=mode,
                           lustre={"n_osts": 16, "default_stripe_count": 16})
    wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                      hints={"protocol": "ext2ph"})
    t0 = time.perf_counter()
    res = run_experiment(cfg, partial(tile_io_program, wl))
    wall = time.perf_counter() - t0
    return {
        "backend": res.backend,
        "wall_s": round(wall, 3),
        "sim_write_mb_s": round(mb_per_s(res.write_bandwidth), 1),
        "engine_events": res.events,
        "messages": res.messages,
    }


def main() -> int:
    sweep = []
    for p in RANKS:
        point = {"nprocs": p, "modes": {}}
        for mode in MODES:
            r = run_point(p, mode)
            point["modes"][mode] = r
            print(f"p={p:4d} {mode:>8}: {r['wall_s']:7.3f}s wall, "
                  f"{r['engine_events']:>8} events, "
                  f"{r['sim_write_mb_s']:8.1f} sim MB/s")
        sweep.append(point)
        if point["modes"]["detailed"]["wall_s"] > BUDGET_S:
            print(f"stopping: detailed exceeded {BUDGET_S:.0f}s at p={p}")
            break

    top = sweep[-1]["modes"]
    ok = top["analytic"]["wall_s"] < top["detailed"]["wall_s"]
    out = {
        "workload": "tile-IO collective write, ext2ph, 256x192 tiles x64B",
        "budget_s": BUDGET_S,
        "top_nprocs": sweep[-1]["nprocs"],
        "fastpath_wins_at_top": ok,
        "sweep": sweep,
    }
    write_mode_result(OUT, "backend_fastpath", "full", out)
    print(f"\nwrote the full entry of {OUT}")
    if not ok:
        print("FAIL: analytic not faster than detailed at top rank count",
              file=sys.stderr)
        return 1
    speedup = top["detailed"]["wall_s"] / top["analytic"]["wall_s"]
    print(f"at p={sweep[-1]['nprocs']}: analytic {speedup:.1f}x faster "
          f"than detailed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
