"""hdf5lite: a minimal HDF5-like container layout for Flash I/O.

Real Flash writes its checkpoint through HDF5, whose library costs are
dominated by (a) a serialized superblock/metadata write path and (b) one
collective data write per dataset.  This model keeps exactly that
structure: a fixed-size header, a per-dataset metadata record written by
rank 0 (independent I/O through the same simulated file system), and
aligned dataset extents addressed collectively by all ranks.

The layout is a pure function of the dataset creation sequence, so every
rank computes identical offsets without extra communication — as HDF5
does when all ranks create datasets collectively with the same arguments.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.errors import ConfigError

HEADER_BYTES = 2048
DATASET_META_BYTES = 512
DATASET_ALIGNMENT = 4096


class Hdf5LiteWriter:
    """Dataset layout planner + metadata writer over an open MPIFile."""

    def __init__(self, mpifile, comm):
        self.f = mpifile
        self.comm = comm
        self._cursor = HEADER_BYTES
        self.datasets: dict[str, tuple[int, int]] = {}

    def _align(self, off: int) -> int:
        return -(-off // DATASET_ALIGNMENT) * DATASET_ALIGNMENT

    def create_dataset(self, name: str, total_bytes: int
                       ) -> Generator[Any, Any, int]:
        """Reserve space and write the metadata record; returns the base.

        Collective: every rank must call with the same arguments.  Under
        collective I/O only rank 0 touches the metadata region (HDF5's
        coordinated metadata path); in *independent* mode every rank
        flushes its own metadata-cache update to the same region — the
        extent-lock ping-pong that collapses uncoordinated HDF5 output
        (the paper's "Cray w/o Coll" disaster case).
        """
        if name in self.datasets:
            raise ConfigError(f"dataset {name!r} already exists")
        if total_bytes < 0:
            raise ConfigError("total_bytes must be >= 0")
        meta_at = self._cursor
        base = self._align(meta_at + DATASET_META_BYTES)
        self.datasets[name] = (base, total_bytes)
        self._cursor = base + total_bytes
        independent = self.f.hints.protocol == "independent"
        if self.comm.rank == 0 or independent:
            verified = self.f.io.fs.params.store_data
            meta = (np.full(DATASET_META_BYTES, 0x4D, dtype=np.uint8)
                    if verified else None)
            yield from self.f.write_at(meta_at, meta,
                                       nbytes=DATASET_META_BYTES)
        return base

    def write_header(self) -> Generator[Any, Any, None]:
        """Rank 0 writes the superblock."""
        if self.comm.rank == 0:
            verified = self.f.io.fs.params.store_data
            hdr = (np.full(HEADER_BYTES, 0x89, dtype=np.uint8)
                   if verified else None)
            yield from self.f.write_at(0, hdr, nbytes=HEADER_BYTES)

    @property
    def file_bytes(self) -> int:
        return self._cursor
