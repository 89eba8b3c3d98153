"""Ablation A: detailed vs analytic collective timing models.

The large-scale sweeps use the analytic (LogP-style) collective model;
this ablation validates it against the detailed model (real message
schedules) on a workload both can afford, and reports the event-count
saving that justifies the cheaper backend at scale.
"""

from functools import partial

from _common import record, run_once

from repro.harness.figures import FigureResult
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.report import mb_per_s
from repro.workloads import TileIOConfig, tile_io_program

LUSTRE = {"n_osts": 16, "default_stripe_count": 16}


def compare_models(nprocs: int = 32) -> FigureResult:
    rows = []
    series = {}
    for mode in ("analytic", "detailed"):
        cfg = ExperimentConfig(nprocs=nprocs, collective_mode=mode,
                               lustre=LUSTRE)
        wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                          hints={"protocol": "ext2ph"})
        res = run_experiment(cfg, partial(tile_io_program, wl))
        bw = mb_per_s(res.write_bandwidth)
        series[mode] = {"bw": bw, "events": res.events,
                        "sync": res.breakdown["sync"]["max"],
                        "backend": res.backend}
        rows.append([mode, round(bw, 0),
                     round(res.breakdown["sync"]["max"], 4), res.events])
    return FigureResult(
        figure="Ablation A",
        title=f"Collective model fidelity (tile-IO, {nprocs} procs)",
        headers=["model", "write MB/s", "sync max (s)", "engine events"],
        rows=rows,
        series=series,
        notes="analytic must track detailed closely at a fraction of the "
              "cost",
    )


def test_ablation_collective_models(benchmark):
    result = run_once(benchmark, compare_models)
    record(result)
    a = result.series["analytic"]
    d = result.series["detailed"]
    # bandwidths agree within 2x in either direction
    assert 0.5 < a["bw"] / d["bw"] < 2.0
    # and the cheaper backend really is cheaper to simulate
    assert a["events"] < d["events"]
