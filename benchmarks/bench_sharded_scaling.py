"""Sharded-DES scaling benchmark: wall time vs shard count.

Runs the detailed-physics shard probe
(:func:`repro.harness.hotpath.shard_scale_config` — parcoll tile-IO,
world collectives analytic, everything inside an FA subgroup at
per-message fidelity) at 4096 ranks with 1, 2 and 4 engine shards, and
checks three things:

1. **Bit-identity** — every sharded run must reproduce the unsharded
   run's virtual-time metrics (elapsed, bandwidth, message count)
   exactly.  A shard count is a partitioning choice, not a model
   change.  Dispatched-effect counts are deliberately *not* gated:
   they measure engine execution, and the worker/coordinator
   round-trip adds a few bookkeeping effects per file-system call that
   the single-engine run does not need.
2. **Speedup** — with 4 shards the run must beat the single-engine
   baseline by at least 2x.  The measured wall only shows this on a
   machine with enough cores to actually run the shards concurrently;
   on smaller hosts (CI containers are often pinned to one core) the
   gate falls back to the *critical path*: the unsharded run's CPU
   seconds over the slowest shard's CPU seconds plus the coordinator's,
   which is what the wall ratio becomes once each shard has a core to
   itself.  Both ratios compare like with like (wall over wall, CPU
   over CPU).  The JSON records both, along with the host's core count,
   so the numbers are honest either way.
3. **Scale** — one run at >= 16384 ranks must complete; its wall time
   and shard block are recorded as the Jaguar-direction headline.

The full result lands in ``BENCH_sharded_scaling.json`` at the repo
root.  A smoke run writes its entry to the git-ignored
``benchmarks/logs/BENCH_sharded_scaling_smoke.json`` instead, so it
leaves the tree clean and never replaces the full result.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_sharded_scaling.py
    PYTHONPATH=src python benchmarks/bench_sharded_scaling.py --smoke

``--smoke`` shrinks the probe to 512 ranks (and skips the 16384-rank
run) so CI exercises the same code path in seconds; the bit-identity
assertions are exact in both modes, the speedup gate only applies at
full scale.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from _common import write_mode_result
from repro.harness.hotpath import run_shard_scale

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE.parent / "BENCH_sharded_scaling.json"
SMOKE_OUT = HERE / "logs" / "BENCH_sharded_scaling_smoke.json"

#: virtual-time metrics that must be identical at every shard count
_EXACT = ("elapsed_total", "write_bandwidth", "messages")

SPEEDUP_FLOOR = 2.0


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def critical_path_speedup(base: dict, sharded: dict) -> float | None:
    """Unsharded CPU seconds over the sharded run's critical path: its
    slowest shard's CPU seconds plus the coordinator's."""
    shard_cpu = (sharded["shard"] or {}).get("max_shard_cpu")
    if not shard_cpu:
        return None
    return round(base["cpu_s"] / (shard_cpu + sharded["cpu_s"]), 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="512 ranks, no 16384-rank scale run (CI)")
    parser.add_argument("--nprocs", type=int, default=None,
                        help="override the probe's rank count")
    parser.add_argument("--scale-nprocs", type=int, default=16384,
                        help="rank count of the scale run (default 16384)")
    args = parser.parse_args(argv)

    nprocs = args.nprocs or (512 if args.smoke else 4096)
    cpus = _cpus()
    errors: list[str] = []
    rows = []
    for shards in (1, 2, 4):
        t0 = time.perf_counter()
        c0 = time.process_time()
        row = run_shard_scale(nprocs=nprocs, shards=shards)
        # this process's CPU: the whole run unsharded (it runs
        # in-process), the coordinator's share when sharded
        row["cpu_s"] = round(time.process_time() - c0, 4)
        row["wall_s"] = round(time.perf_counter() - t0, 4)
        rows.append(row)
        sh = row["shard"] or {}
        print(f"{nprocs} ranks, {shards} shard(s): wall {row['wall_s']}s"
              + (f", max shard cpu {sh.get('max_shard_cpu')}s, "
                 f"{sh.get('sync_rounds')} sync rounds" if sh else ""))

    base = rows[0]
    for row in rows[1:]:
        for key in _EXACT:
            if row[key] != base[key]:
                errors.append(
                    f"MISMATCH at {row['shards']} shards: {key} "
                    f"{row[key]!r} != unsharded {base[key]!r}")

    # measured wall speedup, and the critical-path projection: unsharded
    # CPU over the slowest shard's CPU plus the coordinator's (the wall
    # ratio on a host with >= shards cores)
    four = rows[-1]
    wall_speedup = round(base["wall_s"] / four["wall_s"], 2) \
        if four["wall_s"] else None
    crit_speedup = critical_path_speedup(base, four)
    effective = wall_speedup if cpus >= 4 else (crit_speedup or wall_speedup)
    if not args.smoke and effective is not None \
            and effective < SPEEDUP_FLOOR:
        errors.append(
            f"4-shard speedup {effective}x below the {SPEEDUP_FLOOR}x "
            f"floor (wall {wall_speedup}x, critical path "
            f"{crit_speedup}x on {cpus} core(s))")

    scale = None
    if not args.smoke:
        t0 = time.perf_counter()
        scale = run_shard_scale(nprocs=args.scale_nprocs, shards=4)
        scale["wall_s"] = round(time.perf_counter() - t0, 4)
        print(f"scale run: {args.scale_nprocs} ranks, 4 shards, "
              f"wall {scale['wall_s']}s")

    mode = "smoke" if args.smoke else "full"
    payload = {
        "cpus": cpus,
        "nprocs": nprocs,
        "bit_identity_ok": not errors
        or not any("MISMATCH" in e for e in errors),
        "results": rows,
        "wall_speedup_4_shards": wall_speedup,
        "critical_path_speedup_4_shards": crit_speedup,
    }
    if scale is not None:
        payload["scale_run"] = scale
    out = SMOKE_OUT if args.smoke else OUT
    write_mode_result(out, "sharded_scaling", mode, payload)
    print(f"wrote the {mode} entry of {out}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    if wall_speedup is not None:
        print(f"headline: 4 shards {wall_speedup}x wall"
              + (f" ({crit_speedup}x critical path on {cpus} core(s))"
                 if crit_speedup else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
