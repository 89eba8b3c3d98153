"""Ablation D: node-level request consolidation (paper Section 6 future work).

The paper proposes consolidating I/O requests from the cores of one node
to better use injection bandwidth in the multi-core era.  This ablation
quantifies the ``nodeagg`` protocol, which implements it, on a
many-cores-per-node machine: ParColl alone against node leaders running
ParColl over node-merged requests, both with 8 FA subgroups.  The
message count must drop by at least the cores-per-node factor; the
bandwidth effect at the simulated scale is reported.
"""

from functools import partial

from _common import record, run_once

from repro.harness.figures import FigureResult, PAPER_LUSTRE
from repro.harness.report import mb_per_s
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workloads import TileIOConfig, tile_io_program

CORES = 4


def compare_consolidation(nprocs: int = 64,
                          cores: int = CORES) -> FigureResult:
    rows = []
    series = {}
    for protocol in ("parcoll", "nodeagg"):
        cfg = ExperimentConfig(nprocs=nprocs, cores_per_node=cores,
                               lustre=dict(PAPER_LUSTRE))
        wl = TileIOConfig(tile_rows=1024, tile_cols=768, element_size=64,
                          hints={"protocol": protocol,
                                 "parcoll_ngroups": 8})
        res = run_experiment(cfg, partial(tile_io_program, wl))
        series[protocol] = {
            "bw": mb_per_s(res.write_bandwidth),
            "messages": res.messages,
        }
        rows.append([protocol, round(series[protocol]["bw"], 0),
                     res.messages,
                     round(res.breakdown["exchange"]["max"], 4)])
    return FigureResult(
        figure="Ablation D",
        title=f"Node-level consolidation (tile-IO, {nprocs} procs, "
              f"{cores} cores/node, ParColl-8)",
        headers=["protocol", "write MB/s", "messages", "exchange max (s)"],
        rows=rows,
        series=series,
        notes="Section-6 future work implemented: nodeagg leaders merge "
              "their node's requests before the inter-node exchange",
    )


def test_ablation_node_consolidation(benchmark):
    result = run_once(benchmark, compare_consolidation)
    record(result)
    on, off = result.series["nodeagg"], result.series["parcoll"]
    # consolidation reduces message traffic without tanking bandwidth
    assert on["messages"] < off["messages"]
    assert on["bw"] > 0.5 * off["bw"]
    # messages drop by at least the cores-per-node factor
    assert on["messages"] * CORES <= off["messages"]
