"""Wall-clock of serial vs process-pool vs warm-cache sweep execution.

Runs a fig-9-style sweep (tile-IO collective write: ext2ph baseline plus
two ParColl group-count candidates per process count) three ways:

* ``serial``    — ``ExperimentExecutor(jobs=1)``, no cache (the old
  strictly-serial behavior of the figure functions);
* ``parallel``  — ``jobs=N`` (default 4, override with ``REPRO_JOBS``),
  no cache;
* ``warm``      — ``jobs=1`` against a pre-filled run cache (the
  re-assembly / CI-re-run case: every point is a cache hit).

All three must produce bit-identical metrics (asserted), since every
point is a deterministic simulation.  Results land in the stamped
``full`` entry of ``BENCH_parallel_sweep.json`` at the repo root, whose
stamp includes the host's CPU count — process-pool speedup is bounded by
physical parallelism, so a single-core container reports ~1x for
``parallel`` while ``warm`` stays ~free everywhere.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

from _common import write_mode_result
from repro.harness.parallel import (ExperimentExecutor, ExperimentTask,
                                    RunCache)
from repro.harness.report import mb_per_s
from repro.harness.runner import ExperimentConfig, RunResult
from repro.workloads import TileIOConfig

PROCS = (64, 128, 256)
JOBS = int(os.environ.get("REPRO_JOBS", "4") or 4)
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel_sweep.json"


def build_tasks() -> list[ExperimentTask]:
    """The fig-9 shape: baseline + ParColl candidates per process count."""
    tasks = []
    for p in PROCS:
        variants = [{"protocol": "ext2ph"}]
        variants += [{"protocol": "parcoll", "parcoll_ngroups": g}
                     for g in sorted({max(2, p // 32), max(2, p // 16)})]
        for hints in variants:
            wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                              hints=hints)
            cfg = ExperimentConfig(
                nprocs=p,
                lustre={"n_osts": 16, "default_stripe_count": 16})
            tasks.append(ExperimentTask(cfg, "tile_io", wl))
    return tasks


def fingerprint(results: list[RunResult]) -> list[tuple]:
    """The metrics that must be bit-identical across execution modes."""
    return [(r.write_bandwidth, r.elapsed_total, r.events, r.messages,
             tuple(sorted((k, v["sum"]) for k, v in r.breakdown.items())))
            for r in results]


def timed(executor: ExperimentExecutor,
          tasks: list[ExperimentTask]) -> tuple[float, list[RunResult]]:
    t0 = time.perf_counter()
    results = executor.run_many(tasks)
    return time.perf_counter() - t0, results


def main() -> int:
    tasks = build_tasks()
    cpus = os.cpu_count() or 1
    print(f"{len(tasks)} sweep points, jobs={JOBS}, host cpus={cpus}")

    serial_s, ref = timed(ExperimentExecutor(jobs=1, cache=False), tasks)
    print(f"serial (jobs=1, no cache):  {serial_s:7.3f}s")

    parallel_s, par = timed(ExperimentExecutor(jobs=JOBS, cache=False), tasks)
    print(f"parallel (jobs={JOBS}, no cache): {parallel_s:7.3f}s")

    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(tmp)
        fill_s, filled = timed(ExperimentExecutor(jobs=JOBS, cache=cache),
                               tasks)
        warm_s, warm = timed(ExperimentExecutor(jobs=1, cache=cache), tasks)
        hits = cache.hits
    print(f"cold fill (jobs={JOBS}, cache):  {fill_s:7.3f}s")
    print(f"warm (jobs=1, all cached):  {warm_s:7.3f}s ({hits} hits)")

    identical = (fingerprint(ref) == fingerprint(par)
                 == fingerprint(filled) == fingerprint(warm))
    if not identical:
        print("FAIL: execution modes disagree on metrics", file=sys.stderr)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cache_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
    out = {
        "workload": "fig-9-style tile-IO sweep: ext2ph + 2 ParColl "
                    "candidates per process count",
        "jobs": JOBS,
        "points": len(tasks),
        "procs": list(PROCS),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cold_fill_s": round(fill_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "parallel_speedup": round(speedup, 2),
        "warm_cache_speedup": round(cache_speedup, 1),
        "bit_identical_across_modes": identical,
        "sim_write_mb_s": [round(mb_per_s(r.write_bandwidth), 1)
                           for r in ref],
        "note": ("process-pool speedup is bounded by cpus; the "
                 "warm-cache path is hardware-independent"),
    }
    write_mode_result(OUT, "parallel_sweep", "full", out)
    print(f"\nparallel {speedup:.2f}x, warm cache {cache_speedup:.0f}x "
          f"vs cold serial; wrote the full entry of {OUT}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
