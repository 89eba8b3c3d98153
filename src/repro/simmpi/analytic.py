"""LogP-style analytic cost model for collective operations.

Used by every communicator whose collectives run at the ``analytic``
fidelity (see :mod:`repro.simmpi.backends`): a collective becomes a
synchronization site whose exit time is ``max(entry times) + cost(op, p,
sizes)``.  The formulas follow the standard algorithms MPICH/ROMIO uses
(dissemination, recursive doubling, binomial gather, ring and pairwise
exchange), so detailed and analytic modes agree to first order — an
agreement that tests and an ablation benchmark check explicitly.

Notation: ``p`` group size, ``o`` per-message overhead (send+recv), ``L``
wire latency, ``G`` seconds/byte.
"""

from __future__ import annotations

import math

from repro.cluster.network import NetworkParams


def _olg(params: NetworkParams) -> tuple[float, float, float]:
    o = params.send_overhead + params.recv_overhead
    return o, params.latency, 1.0 / params.bandwidth


def log2ceil(p: int) -> int:
    return max(0, math.ceil(math.log2(p))) if p > 1 else 0


def barrier_cost(params: NetworkParams, p: int) -> float:
    """Dissemination barrier: ceil(log2 p) rounds of one message each."""
    o, lat, _ = _olg(params)
    return log2ceil(p) * (o + lat)


def allreduce_cost(params: NetworkParams, p: int, nbytes: int) -> float:
    """Recursive doubling: log2 p rounds, full vector each round."""
    o, lat, g = _olg(params)
    return log2ceil(p) * (o + lat + nbytes * g)


def gather_cost(params: NetworkParams, p: int, nbytes_each: int) -> float:
    """Binomial gather: log p latency terms, (p-1) blocks through the root."""
    o, lat, g = _olg(params)
    return log2ceil(p) * (o + lat) + (p - 1) * nbytes_each * g


def allgather_cost(params: NetworkParams, p: int, nbytes_each: int) -> float:
    """Recursive-doubling allgather: log p startups, (p-1) blocks of data."""
    o, lat, g = _olg(params)
    return log2ceil(p) * (o + lat) + (p - 1) * nbytes_each * g


def allgatherv_cost(params: NetworkParams, p: int, total_bytes: int,
                    own_bytes: int) -> float:
    """Ring allgatherv: p-1 startups, everyone forwards all-but-own bytes."""
    o, lat, g = _olg(params)
    return max(0, p - 1) * (o + lat) + max(0, total_bytes - own_bytes) * g


def alltoall_cost(params: NetworkParams, p: int, nbytes_each: int) -> float:
    """Alltoall of ``nbytes_each`` per peer: best of pairwise and Bruck.

    MPICH switches to the Bruck algorithm (log p rounds, ~half the data
    forwarded each round) for small payloads — which is what the per-round
    count exchange inside two-phase I/O is.  Model both and take the
    cheaper, as the library would.
    """
    o, lat, g = _olg(params)
    if p <= 1:
        return 0.0
    pairwise = (p - 1) * (o + lat) + (p - 1) * nbytes_each * g
    rounds = log2ceil(p)
    bruck = rounds * (o + lat) + rounds * (p * nbytes_each / 2) * g
    return min(pairwise, bruck)


def alltoallv_cost(params: NetworkParams, p: int, max_send_bytes: int,
                   max_recv_bytes: int) -> float:
    """Pairwise exchange bounded by the busiest sender/receiver."""
    o, lat, g = _olg(params)
    return max(0, p - 1) * (o + lat) + max(max_send_bytes, max_recv_bytes) * g
