"""MPI-Tile-IO: tiled access to a dense 2-D dataset (Section 5.2).

Every process renders one tile of ``tile_rows x tile_cols`` elements of
``element_size`` bytes (the paper: 1024x768 elements of 64 B, i.e.
48 MB/process).  The process grid is ``grid_rows x grid_cols``; the file
holds the dense global array row-major, so a tile's rows interleave with
its horizontal neighbours' — pattern (b) of Figure 4, and the workload
behind Figures 1, 2, 7, 8 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.datatypes import BYTE, Subarray
from repro.errors import ConfigError
from repro.workloads.base import AccessTimes, WorkloadIOStats, payload_for


def default_grid(nprocs: int) -> tuple[int, int]:
    """Near-square process grid, wider than tall (MPI-Tile-IO convention)."""
    rows = int(math.sqrt(nprocs))
    while rows > 1 and nprocs % rows:
        rows -= 1
    return rows, nprocs // rows


@dataclass(frozen=True)
class TileIOConfig:
    """Tile dimensions are in elements; the paper uses 1024x768 x 64 B."""

    tile_rows: int = 64
    tile_cols: int = 48
    element_size: int = 64
    grid: Optional[tuple[int, int]] = None
    mode: str = "write"  # 'write' | 'read' | 'both'
    filename: str = "tile.dat"
    hints: dict | None = None

    def __post_init__(self) -> None:
        if min(self.tile_rows, self.tile_cols, self.element_size) <= 0:
            raise ConfigError("tile dimensions must be positive")
        if self.mode not in ("write", "read", "both"):
            raise ConfigError(f"unknown mode {self.mode!r}")

    def resolved_grid(self, nprocs: int) -> tuple[int, int]:
        grid = self.grid or default_grid(nprocs)
        if grid[0] * grid[1] != nprocs:
            raise ConfigError(
                f"grid {grid} does not match {nprocs} processes"
            )
        return grid

    @property
    def tile_bytes(self) -> int:
        return self.tile_rows * self.tile_cols * self.element_size

    def total_bytes(self, nprocs: int) -> int:
        return nprocs * self.tile_bytes


def tile_filetype(cfg: TileIOConfig, nprocs: int, rank: int) -> Subarray:
    """This rank's tile as a subarray of the global byte array."""
    gr, gc = cfg.resolved_grid(nprocs)
    pr, pc = divmod(rank, gc)
    rows = gr * cfg.tile_rows
    cols_bytes = gc * cfg.tile_cols * cfg.element_size
    return Subarray(
        (rows, cols_bytes),
        (cfg.tile_rows, cfg.tile_cols * cfg.element_size),
        (pr * cfg.tile_rows, pc * cfg.tile_cols * cfg.element_size),
        BYTE,
    )


def tile_io_program(cfg: TileIOConfig, comm, io
                    ) -> Generator[Any, Any, WorkloadIOStats]:
    """One rank's tile write and/or read (single collective call each)."""
    verified = io.fs.params.store_data
    stats = WorkloadIOStats()
    ft = tile_filetype(cfg, comm.size, comm.rank)
    f = yield from io.open(comm, cfg.filename, hints=cfg.hints)
    f.set_view(0, BYTE, ft)
    nbytes = cfg.tile_bytes
    if cfg.mode in ("write", "both"):
        data = payload_for(comm.rank, nbytes, verified)
        t0 = comm.now
        n = yield from f.write_at_all(0, data, nbytes=nbytes)
        del data  # not held through the read phase
        stats.write_times = AccessTimes(t0, comm.now)
        stats.io_seconds += comm.now - t0
        stats.bytes_written = n
    if cfg.mode in ("read", "both"):
        t0 = comm.now
        out = yield from f.read_at_all(0, nbytes)
        stats.read_times = AccessTimes(t0, comm.now)
        stats.bytes_read = nbytes if out is None else out.size
    yield from f.close()
    return stats
