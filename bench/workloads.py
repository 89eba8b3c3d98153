"""The benchmark's workloads and the virtual-time fingerprint of a run.

Every workload is built from the public API only (``ExperimentConfig``,
``repro.workloads``), never from ``repro.harness.hotpath``, so a later
refactor of ``src/`` cannot quietly change what the benchmark measures.
The seed reaches ``ExperimentConfig.seed`` (OST service jitter) and,
where the workload has one, ``BTIOConfig.seed``.  ``repro`` is imported
inside the builders: ``bench/run.py`` reads the names here without
putting the simulator on its own path.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Any, Callable


def _tileio(seed: int, nprocs: int, collective_mode: str, n_osts: int,
            rows: int, cols: int, hints: dict):
    from repro.harness.runner import ExperimentConfig
    from repro.workloads import TileIOConfig, tile_io_program

    cfg = ExperimentConfig(nprocs=nprocs, collective_mode=collective_mode,
                           seed=seed, lustre={"n_osts": n_osts,
                                              "default_stripe_count": n_osts})
    wl = TileIOConfig(tile_rows=rows, tile_cols=cols, element_size=64,
                      hints=hints)
    return cfg, partial(tile_io_program, wl), nprocs * wl.tile_bytes, 0


def _btio_verified_rw(seed: int):
    from repro.harness.runner import ExperimentConfig
    from repro.workloads import BTIOConfig, btio_program

    cfg = ExperimentConfig(nprocs=64, collective_mode="analytic", seed=seed,
                           validate=True,
                           lustre={"store_data": True, "n_osts": 16,
                                   "default_stripe_count": 16})
    wl = BTIOConfig(grid_points=96, nsteps=3, verify_read=True, seed=seed,
                    hints={"protocol": "parcoll", "parcoll_ngroups": 4})
    nbytes = wl.nsteps * wl.step_bytes()
    return cfg, partial(btio_program, wl), nbytes, nbytes


_EXT2PH = {"protocol": "ext2ph"}

#: name -> builder(seed) returning (ExperimentConfig, program, expected
#: bytes written, expected bytes read)
WORKLOADS: dict[str, Callable[[int], tuple]] = {
    # per-message DES path; seed 0 is ref_hotpath.json:tileio_detailed
    "tileio-detailed-256": partial(
        _tileio, nprocs=256, collective_mode="detailed", n_osts=16,
        rows=256, cols=192, hints=_EXT2PH),
    # closed-form round replay: many messages in few engine events
    "tileio-macro-512": partial(
        _tileio, nprocs=512, collective_mode="macro", n_osts=32,
        rows=256, cols=192, hints=_EXT2PH),
    # world-size overhead plus ParColl planning (the shard probe, 1 shard)
    "parcoll-detailed-1024": partial(
        _tileio, nprocs=1024,
        collective_mode="scoped:world=analytic,default=detailed", n_osts=32,
        rows=128, cols=96,
        hints={"protocol": "parcoll", "parcoll_ngroups": 8}),
    # real bytes through the oracle, with a read-back pass beside the writes
    "btio-verified-rw": _btio_verified_rw,
}

#: builders the child accepts: the workloads plus the self-test's
#: sub-second config
BUILDERS: dict[str, Callable[[int], tuple]] = {
    **WORKLOADS,
    "tiny": partial(_tileio, nprocs=16, collective_mode="detailed", n_osts=4,
                    rows=32, cols=24, hints=_EXT2PH),
}


def fingerprint(world, per_rank: list, cfg: Any, violations: list) -> dict:
    """sha256 over a run's virtual-time results, plus its headline values.

    Event and effect counts are deliberately left out: a change that
    coalesces events without moving virtual time keeps the fingerprint.
    """
    from repro.harness.runner import RunResult
    from repro.simmpi.timers import summarize

    res = RunResult(config=cfg, per_rank=per_rank,
                    breakdown=summarize(world.breakdowns), events=0,
                    messages=world.network.messages_sent,
                    elapsed_total=world.engine.now)
    parts = [
        repr(res.elapsed_total),
        str(res.messages),
        json.dumps([[s.bytes_written, s.bytes_read, repr(s.io_seconds)]
                    for s in per_rank]),
        repr(res.write_bandwidth),
        repr(res.read_bandwidth),
        json.dumps(res.breakdown, sort_keys=True),
        json.dumps(violations, sort_keys=True, default=str),
    ]
    h = hashlib.sha256("\n".join(parts).encode())
    return {"sha256": h.hexdigest(),
            "elapsed_total": repr(res.elapsed_total),
            "messages": res.messages,
            "write_bandwidth": repr(res.write_bandwidth)}
