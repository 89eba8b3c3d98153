"""Resilience under injected faults: ParColl vs flat extended two-phase.

Two claims, both absent from the paper but implied by its partitioning
argument:

* **retry recovers a flaky OST** — under a flaky-RPC plan (every RPC to
  OST 0 lost with probability 0.5), the client-side retry/timeout/
  backoff machinery completes the run at a finite fraction of healthy
  bandwidth, while a no-retry client (platform
  ``retry={"max_attempts": 1}``) aborts with
  :class:`~repro.errors.FaultExhaustedError`;
* **partitioning contains a straggler OST** — with one OST serving at
  10% of nominal rate, flat ext2ph re-couples every rank to the slow
  aggregator on every collective call (the median rank degrades like
  the worst one), while ParColl confines the damage to the one subgroup
  whose File Area holds the slow OST — its median rank keeps (nearly)
  full speed and strictly fewer ranks are affected.

Scale comes from ``REPRO_SCALE`` (small | paper), parallelism from
``REPRO_JOBS`` / ``REPRO_RUNCACHE`` — fault runs hit the same run cache
and are bit-identical at any job count.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_fault_resilience.py

Results land in the stamped ``full`` entry of
``BENCH_fault_resilience.json`` at the repo root; exit status 1 if either
claim fails.
"""

from __future__ import annotations

import pathlib
import sys

from _common import executor, scale, write_mode_result

from repro.errors import FaultExhaustedError
from repro.harness.fault_sweep import (_median, fault_class, fault_sweep,
                                       rank_elapsed, scale_info, sweep_tasks)

OUT = (pathlib.Path(__file__).resolve().parent.parent
       / "BENCH_fault_resilience.json")

#: loss probability of the flaky-OST plan (aborts a no-retry client
#: almost surely, survivable with a deepened attempt budget)
FLAKY_PROB = 0.5
#: straggler severity: OST 0 at 10% of nominal service rate
STRAGGLER_SEVERITY = 0.9


def _run_point(fc, severity: float, proto: str, retry: dict | None):
    """One (fault, severity, protocol) cell through the executor."""
    tasks = sweep_tasks(fc, (severity,), scale(), protocols=(proto,),
                        retry=retry)
    return executor().run_many(tasks)[0]


def flaky_retry_claim() -> dict:
    """Claim (a): retry/backoff completes where no-retry aborts."""
    fc = fault_class("flaky")
    healthy = _run_point(fc, 0.0, "ext2ph", None)
    recovered = _run_point(fc, FLAKY_PROB, "ext2ph", fc.retry)
    fr = recovered.breakdown.get("fault_retry", {})

    no_retry_error = None
    try:
        _run_point(fc, FLAKY_PROB, "ext2ph", {"max_attempts": 1})
    except FaultExhaustedError as exc:
        no_retry_error = {"ost": exc.ost, "attempts": exc.attempts,
                          "virtual_time": exc.virtual_time,
                          "message": str(exc)}

    recovered_bw = recovered.write_bandwidth
    ok = no_retry_error is not None and recovered_bw > 0
    print(f"flaky (p={FLAKY_PROB}): healthy "
          f"{healthy.write_bandwidth / 1e6:.1f} MB/s, with retry "
          f"{recovered_bw / 1e6:.1f} MB/s "
          f"({fr.get('count', 0):.0f} lost RPCs recovered, "
          f"{fr.get('sum', 0.0):.3f} s in retries); no-retry "
          f"{'aborted: ' + no_retry_error['message'] if no_retry_error else 'DID NOT ABORT'}")
    return {
        "flaky_prob": FLAKY_PROB,
        "healthy_bw": healthy.write_bandwidth,
        "with_retry": {
            "bw": recovered_bw,
            "fraction_of_healthy": (recovered_bw / healthy.write_bandwidth
                                    if healthy.write_bandwidth else 0.0),
            "retry_seconds": fr.get("sum", 0.0),
            "lost_rpcs": int(fr.get("count", 0)),
            "retry_policy": dict(fc.retry or {}),
        },
        "no_retry": {"error": no_retry_error},
        "claim_retry_recovers_throughput": ok,
    }


def straggler_containment_claim() -> dict:
    """Claim (b): ParColl degrades strictly less than flat ext2ph."""
    fc = fault_class("straggler")
    sweep = fault_sweep("straggler",
                        severities=(0.0, 0.5, STRAGGLER_SEVERITY),
                        scale=scale(), executor=executor())
    retained = sweep.series
    flat = retained["ext2ph retained"][STRAGGLER_SEVERITY]
    part = retained["parcoll retained"][STRAGGLER_SEVERITY]

    info = scale_info(scale())
    flat_res = _run_point(fc, STRAGGLER_SEVERITY, "ext2ph", None)
    part_res = _run_point(fc, STRAGGLER_SEVERITY, "parcoll", None)
    flat_h = _median(rank_elapsed(_run_point(fc, 0.0, "ext2ph", None)))
    part_h = _median(rank_elapsed(_run_point(fc, 0.0, "parcoll", None)))
    flat_aff = sum(1 for e in rank_elapsed(flat_res) if e > 1.5 * flat_h)
    part_aff = sum(1 for e in rank_elapsed(part_res) if e > 1.5 * part_h)

    ok = part > flat and part_aff < flat_aff
    print(f"straggler (severity {STRAGGLER_SEVERITY}): median rank keeps "
          f"{100 * flat:.1f}% under ext2ph vs {100 * part:.1f}% under "
          f"parcoll; affected ranks {flat_aff}/{info['nprocs']} vs "
          f"{part_aff}/{info['nprocs']}")
    print(sweep.to_table())
    return {
        "severity": STRAGGLER_SEVERITY,
        "median_retained": {"ext2ph": flat, "parcoll": part},
        "affected_ranks": {"ext2ph": flat_aff, "parcoll": part_aff,
                           "nprocs": info["nprocs"]},
        "degradation_curves": {
            "headers": sweep.headers,
            "rows": sweep.rows,
            "series": sweep.series,
        },
        "claim_parcoll_contains_straggler": ok,
    }


def main() -> int:
    flaky = flaky_retry_claim()
    straggler = straggler_containment_claim()
    ok = (flaky["claim_retry_recovers_throughput"]
          and straggler["claim_parcoll_contains_straggler"])
    out = {
        "scale": scale(),
        "flaky": flaky,
        "straggler": straggler,
        "claims_ok": ok,
    }
    write_mode_result(OUT, "fault_resilience", "full", out)
    print(f"\nwrote the full entry of {OUT}")
    if not ok:
        print("FAIL: a resilience claim did not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
