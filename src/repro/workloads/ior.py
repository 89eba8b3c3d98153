"""IOR: contiguous shared-file I/O in fixed transfer units (Section 5.1).

The paper's configuration: every process collectively writes a contiguous
buffer (512 MB in the paper, scaled here) into a shared file in 4 MB
units.  Rank ``r``'s region is ``[r*block_size, (r+1)*block_size)``
(IOR's segmented layout).  Contiguous I/O gains nothing from aggregation —
the experiment isolates the *synchronization* cost of collective I/O,
which is exactly what ParColl removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ConfigError
from repro.workloads.base import AccessTimes, WorkloadIOStats, payload_for


@dataclass(frozen=True)
class IORConfig:
    """IOR parameters (sizes in bytes)."""

    block_size: int = 1 << 20
    transfer_size: int = 1 << 18
    read_back: bool = False
    filename: str = "ior.dat"
    hints: dict | None = None

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.transfer_size <= 0:
            raise ConfigError("IOR sizes must be positive")
        if self.block_size % self.transfer_size:
            raise ConfigError(
                f"block_size {self.block_size} must be a multiple of "
                f"transfer_size {self.transfer_size}"
            )

    @property
    def transfers_per_block(self) -> int:
        return self.block_size // self.transfer_size

    def total_bytes(self, nprocs: int) -> int:
        return nprocs * self.block_size


def ior_program(cfg: IORConfig, comm, io) -> Generator[Any, Any, WorkloadIOStats]:
    """One rank's IOR run: write (and optionally read back) its block."""
    verified = io.fs.params.store_data
    stats = WorkloadIOStats()
    f = yield from io.open(comm, cfg.filename, hints=cfg.hints)
    base = comm.rank * cfg.block_size
    t0 = comm.now
    for t in range(cfg.transfers_per_block):
        offset = base + t * cfg.transfer_size
        data = payload_for(comm.rank, cfg.transfer_size, verified, salt=t)
        tw = comm.now
        n = yield from f.write_at_all(offset, data, nbytes=cfg.transfer_size)
        del data  # not held into the next transfer or the read phase
        stats.io_seconds += comm.now - tw
        stats.bytes_written += n
    stats.write_times = AccessTimes(t0, comm.now)
    if cfg.read_back:
        t0 = comm.now
        for t in range(cfg.transfers_per_block):
            offset = base + t * cfg.transfer_size
            out = yield from f.read_at_all(offset, cfg.transfer_size)
            stats.bytes_read += cfg.transfer_size if out is None else out.size
            del out
        stats.read_times = AccessTimes(t0, comm.now)
    yield from f.close()
    return stats
