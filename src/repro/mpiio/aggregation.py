"""I/O aggregator selection and file-domain partitioning (ROMIO analogs).

Default aggregator choice follows ROMIO on clusters: one process per
physical node, in node order, optionally capped by the ``cb_nodes`` hint
or replaced outright by an explicit ``cb_config_ranks`` list.

File domains: the accessed byte range ``[fd_min, fd_max)`` is divided
evenly into one contiguous domain per aggregator.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import Machine
from repro.errors import ConfigError, MPIIOError
from repro.mpiio.hints import IOHints


def default_aggregators(member_world_ranks: list[int], machine: Machine,
                        hints: IOHints) -> list[int]:
    """Aggregators as *communicator ranks*, lowest rank per node first.

    With ``cb_config_ranks`` the user's list is validated and used as-is.
    Otherwise one process per node is chosen (node order), then the list
    is truncated to ``cb_nodes`` if given.
    """
    size = len(member_world_ranks)
    if hints.cb_config_ranks is not None:
        for r in hints.cb_config_ranks:
            if not 0 <= r < size:
                raise MPIIOError(
                    f"cb_config_ranks entry {r} out of range for size {size}"
                )
        return list(hints.cb_config_ranks)
    ranks = np.asarray(member_world_ranks, dtype=np.int64)
    bad = ranks[(ranks < 0) | (ranks >= machine.nprocs)]
    if bad.size:
        raise ConfigError(
            f"rank {int(bad[0])} out of range [0, {machine.nprocs})")
    # first member on each node, nodes ascending
    _nodes, first = np.unique(machine.node_of[ranks], return_index=True)
    aggs = first.tolist()
    if hints.cb_nodes is not None:
        aggs = aggs[: hints.cb_nodes]
    return aggs


def partition_file_domains(fd_min: int, fd_max: int, naggs: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Split ``[fd_min, fd_max)`` into ``naggs`` contiguous domains.

    Returns ``(starts, ends)`` arrays of length ``naggs`` (empty domains
    allowed: start == end).
    """
    if naggs <= 0:
        raise MPIIOError(f"need at least one aggregator, got {naggs}")
    if fd_max < fd_min:
        raise MPIIOError(f"invalid file range [{fd_min}, {fd_max})")
    span = fd_max - fd_min
    base = span // naggs
    rem = span % naggs
    sizes = np.full(naggs, base, dtype=np.int64)
    sizes[:rem] += 1
    bounds = np.empty(naggs + 1, dtype=np.int64)
    bounds[0] = fd_min
    np.cumsum(sizes, out=bounds[1:])
    bounds[1:] += fd_min
    return bounds[:-1].copy(), bounds[1:].copy()


def domain_of_offsets(offsets: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray) -> np.ndarray:
    """Index of the domain containing each offset (domains contiguous, sorted).

    The first domain whose end lies past the offset: empty domains are
    skipped, and offsets past the last domain map to the last one.
    """
    return np.minimum(np.searchsorted(ends, offsets, side="right"),
                      starts.size - 1)
