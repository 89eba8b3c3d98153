"""Analytic collective cost model: sanity and monotonicity properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import NetworkParams
from repro.simmpi import analytic

P = NetworkParams(latency=5e-6, bandwidth=2e9, send_overhead=1e-6,
                  recv_overhead=1e-6)

ALL_COSTS = [
    ("barrier", lambda p, n: analytic.barrier_cost(P, p)),
    ("allreduce", lambda p, n: analytic.allreduce_cost(P, p, n)),
    ("gather", lambda p, n: analytic.gather_cost(P, p, n)),
    ("allgather", lambda p, n: analytic.allgather_cost(P, p, n)),
    ("alltoall", lambda p, n: analytic.alltoall_cost(P, p, n)),
]


def test_log2ceil():
    assert analytic.log2ceil(1) == 0
    assert analytic.log2ceil(2) == 1
    assert analytic.log2ceil(3) == 2
    assert analytic.log2ceil(8) == 3
    assert analytic.log2ceil(1024) == 10


@pytest.mark.parametrize("name,fn", ALL_COSTS)
def test_single_rank_is_free(name, fn):
    assert fn(1, 1024) == 0.0


@pytest.mark.parametrize("name,fn", ALL_COSTS)
@given(st.integers(2, 2048), st.integers(0, 1 << 20))
def test_costs_nonnegative(name, fn, p, n):
    assert fn(p, n) >= 0.0


@pytest.mark.parametrize("name,fn", ALL_COSTS)
def test_costs_grow_with_procs(name, fn):
    n = 4096
    assert fn(1024, n) >= fn(8, n)


@pytest.mark.parametrize("name,fn",
                         [c for c in ALL_COSTS if c[0] != "barrier"])
def test_costs_grow_with_size(name, fn):
    assert fn(64, 1 << 20) > fn(64, 8)


def test_alltoall_uses_bruck_for_small_payloads():
    """For tiny per-peer payloads the log-round algorithm must win."""
    p = 1024
    o, lat = P.send_overhead + P.recv_overhead, P.latency
    pairwise = (p - 1) * (o + lat)
    assert analytic.alltoall_cost(P, p, 8) < pairwise


def test_alltoall_pairwise_for_large_payloads():
    """For huge payloads Bruck's log-factor data blowup must not be used."""
    p = 64
    cost = analytic.alltoall_cost(P, p, 1 << 20)
    g = 1.0 / P.bandwidth
    # pairwise moves (p-1) blocks; Bruck would move ~log2(p)*p/2 blocks
    assert cost <= (p - 1) * (P.send_overhead + P.recv_overhead + P.latency) \
        + (p - 1) * (1 << 20) * g + 1e-9


def test_allgatherv_scales_with_total_bytes():
    small = analytic.allgatherv_cost(P, 16, total_bytes=1 << 10, own_bytes=64)
    big = analytic.allgatherv_cost(P, 16, total_bytes=1 << 24, own_bytes=64)
    assert big > small


def test_alltoallv_bounded_by_busiest_endpoint():
    lo = analytic.alltoallv_cost(P, 16, max_send_bytes=1 << 10,
                                 max_recv_bytes=1 << 10)
    hi = analytic.alltoallv_cost(P, 16, max_send_bytes=1 << 10,
                                 max_recv_bytes=1 << 24)
    assert hi > lo
