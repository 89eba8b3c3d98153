#!/usr/bin/env python
"""Visualization output (MPI-Tile-IO scenario): find the best group count.

A parallel renderer writes one tile of a dense 2-D frame per process —
the paper's motivating visualization workload (Figures 7-9).  This
example sweeps the ParColl subgroup count for one frame and prints the
bandwidth curve with its interior optimum.

Run:  python examples/tile_visualization.py
"""

from functools import partial

from repro.harness import ExperimentConfig, format_table, mb_per_s, run_experiment
from repro.workloads import TileIOConfig, tile_io_program

NPROCS = 64
LUSTRE = {"n_osts": 72, "default_stripe_count": 64}


def run_with_groups(ngroups):
    hints = ({"protocol": "ext2ph"} if ngroups == 1
             else {"protocol": "parcoll", "parcoll_ngroups": ngroups})
    wl = TileIOConfig(tile_rows=1024, tile_cols=768, element_size=64,
                      hints=hints)
    cfg = ExperimentConfig(nprocs=NPROCS, lustre=LUSTRE)
    res = run_experiment(cfg, partial(tile_io_program, wl))
    return res


def main():
    rows = []
    best = (None, 0.0)
    for g in (1, 2, 4, 8, 16, 32):
        res = run_with_groups(g)
        bw = mb_per_s(res.write_bandwidth)
        if bw > best[1]:
            best = (g, bw)
        rows.append([g, round(bw), round(res.breakdown["sync"]["max"], 3),
                     round(100 * res.category_share("sync"), 1)])
    print(format_table(
        ["groups", "write MB/s", "sync max (s)", "sync %"], rows,
        title=f"One 3 GB frame from {NPROCS} renderers (48 MB tiles)"))
    print(f"\nswept optimum: {best[0]} groups at {best[1]:.0f} MB/s")


if __name__ == "__main__":
    main()
