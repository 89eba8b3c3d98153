"""NAS BT-IO (full mode): diagonal multi-partitioning output (Section 5.3).

BT runs on ``P = q^2`` processes over an ``N^3`` grid of cells with 5
doubles per cell.  The grid divides into ``q`` z-slabs of ``q x q``
blocks; process ``(i, j)`` owns one block per slab, shifted diagonally so
no two of its blocks align — its file segments therefore spread across the
whole solution array.  This is the paper's pattern (c): direct file-area
partitioning is impossible and ParColl must switch to intermediate file
views.

The benchmark appends the full solution every ``wr_interval`` steps
(class C: 162^3 grid, 40 steps, every 5).  Sizes here are configurable so
verified tests stay small while model-mode sweeps scale up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from repro.datatypes import BYTE, Struct, Subarray
from repro.errors import ConfigError
from repro.workloads.base import (AccessTimes, WorkloadIOStats,
                                  compute_phase_time, payload_for)

#: bytes per grid cell: 5 solution components, double precision
CELL_BYTES = 5 * 8


@dataclass(frozen=True)
class BTIOConfig:
    """BT-IO parameters. ``grid_points`` is N (the cube side in cells)."""

    grid_points: int = 24
    nsteps: int = 2
    #: solver time between dumps (the real benchmark runs 5 BT timesteps
    #: per dump); per-rank imbalance is base + Exp(jitter) seconds
    compute_seconds: float = 0.0
    compute_jitter: float = 0.0
    #: read every dump back collectively at the end and (in verified mode)
    #: compare against what was written — BT-IO full mode's verify phase
    verify_read: bool = False
    seed: int = 0
    filename: str = "btio.dat"
    hints: dict | None = None

    def __post_init__(self) -> None:
        if self.grid_points <= 0 or self.nsteps <= 0:
            raise ConfigError("grid_points and nsteps must be positive")
        if self.compute_seconds < 0 or self.compute_jitter < 0:
            raise ConfigError("compute times must be >= 0")

    @staticmethod
    def q_of(nprocs: int) -> int:
        q = int(round(math.sqrt(nprocs)))
        if q * q != nprocs:
            raise ConfigError(f"BT-IO needs a square process count, got {nprocs}")
        return q

    def cells_per_block(self, nprocs: int) -> int:
        q = self.q_of(nprocs)
        if self.grid_points % q:
            raise ConfigError(
                f"grid_points {self.grid_points} not divisible by q={q}"
            )
        side = self.grid_points // q
        return side ** 3

    def step_bytes(self) -> int:
        return self.grid_points ** 3 * CELL_BYTES

    def total_bytes(self, nprocs: int) -> int:
        return self.nsteps * self.step_bytes()


def bt_block_coords(q: int, rank: int) -> list[tuple[int, int, int]]:
    """Block coordinates (bz, by, bx) per slab for this rank.

    Diagonal multi-partitioning as in NPB BT: in slab ``s`` the process
    owns the block at ``x=(rank+s) mod q``, ``y=rank div q`` — a bijection
    per slab, diagonal across slabs.  Consecutive ranks own x-adjacent
    blocks, so a band of ``q`` consecutive ranks covers whole y-rows in
    every slab (which is what makes subgroup aggregation produce dense,
    coalescible writes under ParColl's intermediate views).
    """
    return [(s, rank // q, (rank % q + s) % q) for s in range(q)]


def bt_filetype(cfg: BTIOConfig, nprocs: int, rank: int):
    """This rank's q diagonal blocks as one derived datatype.

    The global array is (N, N, N) cells in C order (z, y, x) with
    CELL_BYTES per cell; each block is a Subarray, and the blocks combine
    as a Struct at displacement 0 (their extents all span the full array).
    """
    q = cfg.q_of(nprocs)
    n = cfg.grid_points
    side = n // q
    blocks = []
    for (bz, by, bx) in bt_block_coords(q, rank):
        blocks.append(Subarray(
            (n, n, n * CELL_BYTES),
            (side, side, side * CELL_BYTES),
            (bz * side, by * side, bx * side * CELL_BYTES),
            BYTE,
        ))
    if len(blocks) == 1:
        return blocks[0]
    return Struct([1] * len(blocks), [0] * len(blocks), blocks)


def btio_program(cfg: BTIOConfig, comm, io
                 ) -> Generator[Any, Any, WorkloadIOStats]:
    """One rank's BT-IO run: append the solution ``nsteps`` times."""
    verified = io.fs.params.store_data
    stats = WorkloadIOStats()
    ft = bt_filetype(cfg, comm.size, comm.rank)
    f = yield from io.open(comm, cfg.filename, hints=cfg.hints)
    f.set_view(0, BYTE, ft)
    per_step = ft.size
    t0 = comm.now
    for step in range(cfg.nsteps):
        solver = compute_phase_time(comm.rank, step, cfg.compute_seconds,
                                    cfg.compute_jitter, cfg.seed)
        if solver > 0:
            yield from comm.proc.compute(solver)
        data = payload_for(comm.rank, per_step, verified, salt=step)
        # successive steps land in successive filetype tiles (the view's
        # extent is the whole solution array), exactly like BT-IO appends
        tw = comm.now
        n = yield from f.write_all(data, nbytes=per_step)
        del data  # every piece still in flight is a copy
        stats.io_seconds += comm.now - tw
        stats.bytes_written += n
    stats.write_times = AccessTimes(t0, comm.now)
    if cfg.verify_read:
        # BT-IO full mode ends with a read-back verification pass
        f.set_view(0, BYTE, ft)  # reset the individual file pointer
        t0 = comm.now
        for step in range(cfg.nsteps):
            tw = comm.now
            got = yield from f.read_all(per_step)
            stats.io_seconds += comm.now - tw
            stats.bytes_read += per_step
            if got is not None:
                import numpy as np

                expected = payload_for(comm.rank, per_step, True, salt=step)
                same = np.array_equal(got, expected)
                # both arrays die here, not when the next step's read
                # returns and rebinds them
                del got, expected
                if not same:
                    raise AssertionError(
                        f"BT-IO verification failed: rank {comm.rank} "
                        f"step {step} read back different bytes"
                    )
        stats.read_times = AccessTimes(t0, comm.now)
    yield from f.close()
    return stats
