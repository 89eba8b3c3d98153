"""Unit tests for the machine model, mappings and network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineConfig, NetworkModel, NetworkParams
from repro.cluster.machine import compute_mapping
from repro.errors import ConfigError
from repro.sim import Engine
from repro.sim.resources import ServiceProfile


class TestMapping:
    def test_block_mapping_matches_figure5(self):
        # Figure 5: 8 processes, 2 cores/node, block: N0(P0,P1) N1(P2,P3)...
        node_of = compute_mapping(8, 2, "block")
        np.testing.assert_array_equal(node_of, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_cyclic_mapping_matches_figure5(self):
        # Figure 5: cyclic: N0(P0,P4) N1(P1,P5) N2(P2,P6) N3(P3,P7)
        node_of = compute_mapping(8, 2, "cyclic")
        np.testing.assert_array_equal(node_of, [0, 1, 2, 3, 0, 1, 2, 3])

    def test_uneven_last_node(self):
        node_of = compute_mapping(5, 2, "block")
        np.testing.assert_array_equal(node_of, [0, 0, 1, 1, 2])

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigError):
            compute_mapping(4, 2, "scatter")


class TestMachine:
    def test_nnodes_rounds_up(self):
        assert MachineConfig(nprocs=5, cores_per_node=2).nnodes == 3
        assert MachineConfig(nprocs=4, cores_per_node=2).nnodes == 2

    def test_ranks_on_node_inverse_of_node_of(self):
        m = Machine(MachineConfig(nprocs=8, cores_per_node=2, mapping="cyclic"))
        assert m.ranks_on_node(0) == [0, 4]
        assert m.ranks_on_node(3) == [3, 7]
        for node in range(m.nnodes):
            for r in m.ranks_on_node(node):
                assert m.node_of_rank(r) == node

    def test_colocated(self):
        m = Machine(MachineConfig(nprocs=8, cores_per_node=2, mapping="block"))
        assert m.colocated(0, 1)
        assert not m.colocated(1, 2)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            MachineConfig(nprocs=0)
        with pytest.raises(ConfigError):
            MachineConfig(nprocs=4, cores_per_node=0)

    def test_rank_bounds_checked(self):
        m = Machine(MachineConfig(nprocs=4, cores_per_node=2))
        with pytest.raises(ConfigError):
            m.node_of_rank(4)
        with pytest.raises(ConfigError):
            m.ranks_on_node(9)


class TestNetworkModel:
    def make(self, nprocs=4, cores=2, **kw):
        eng = Engine()
        machine = Machine(MachineConfig(nprocs=nprocs, cores_per_node=cores))
        params = NetworkParams(**kw)
        return eng, NetworkModel(eng, machine, params)

    def test_isolated_message_cost(self):
        eng, net = self.make(latency=1e-6, bandwidth=1e9, send_overhead=1e-7,
                             recv_overhead=1e-7)
        free, arrival = net.transfer(0, 2, 1000)  # cross node
        assert free == pytest.approx(1e-7 + 1000 / 1e9)
        # arrival = tx_start + latency + rx service
        assert arrival == pytest.approx(1e-6 + 1e-7 + 1000 / 1e9, rel=1e-9)

    def test_intra_node_uses_memcpy(self):
        eng, net = self.make(memcpy_bandwidth=2e9, send_overhead=1e-7)
        free, arrival = net.transfer(0, 1, 2000)  # same node (block mapping)
        assert free == arrival == pytest.approx(1e-7 + 2000 / 2e9)
        assert net.tx[0].busy_until == 0.0

    def test_outcast_serializes_on_sender_tx(self):
        eng, net = self.make(latency=0.0, bandwidth=1e6, send_overhead=0.0,
                             recv_overhead=0.0)
        _, a1 = net.transfer(0, 2, 1_000_000)  # 1 s on the wire
        _, a2 = net.transfer(0, 3, 1_000_000)
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_incast_serializes_on_receiver_rx(self):
        eng, net = self.make(nprocs=6, latency=0.0, bandwidth=1e6,
                             send_overhead=0.0, recv_overhead=0.0)
        _, a1 = net.transfer(0, 4, 1_000_000)  # nodes 0 -> 2
        _, a2 = net.transfer(2, 4, 1_000_000)  # nodes 1 -> 2
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            NetworkParams(latency=-1.0)
        with pytest.raises(ConfigError):
            NetworkParams(bandwidth=0.0)
        with pytest.raises(ConfigError):
            NetworkParams(eager_threshold=-1)

    def test_traffic_counters(self):
        eng, net = self.make()
        net.transfer(0, 2, 100)
        net.transfer(0, 2, 200)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300


# -- transfer issued ahead of the clock vs a reserve_span pair ---------

def _two_networks(nprocs=12, cores_per_node=3, profiled=()):
    nets = []
    for _ in range(2):
        machine = Machine(MachineConfig(nprocs=nprocs,
                                        cores_per_node=cores_per_node))
        net = NetworkModel(Engine(), machine, NetworkParams())
        for node in profiled:
            net.tx[node].profile = ServiceProfile(
                [(0.0, 1e-4, 0.25), (2e-4, 3e-4, 0.0)])
            net.rx[node].profile = ServiceProfile([(0.0, 2e-4, 0.5)])
        nets.append(net)
    return nets


def _transfer_by_spans(net, t, src_rank, dst_rank, nbytes):
    """Reference: a message issued at ``t`` as two ``reserve_span``
    calls (TX, then RX behind the wire latency)."""
    net.messages_sent += 1
    net.bytes_sent += nbytes
    src_node = net._node_of[src_rank]
    dst_node = net._node_of[dst_rank]
    p = net.params
    if src_node == dst_node:
        done = t + p.send_overhead + nbytes / p.memcpy_bandwidth
        return done, done
    net.cross_node_messages += 1
    net.cross_node_bytes += nbytes
    tx_start, tx_done = net.tx[src_node].reserve_span(t, nbytes)
    first_byte = tx_start + p.latency
    return tx_done, net.rx[dst_node].reserve_span(first_byte, nbytes)[1]


@settings(deadline=None)
@given(msgs=st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                               st.integers(min_value=0, max_value=11),
                               st.integers(min_value=0, max_value=1 << 18),
                               st.floats(min_value=0.0, max_value=2e-5,
                                         allow_nan=False)),
                     min_size=1, max_size=30),
       profiled=st.sampled_from([(), (0,), (0, 2)]))
def test_transfer_at_issue_time_matches_reserve_span_pair(msgs, profiled):
    """``transfer``'s inline nominal-speed copy of the NIC arithmetic
    equals a TX/RX ``reserve_span`` pair, bit for bit, also when issued
    ahead of the engine clock (the macro walker's path)."""
    net_a, net_b = _two_networks(profiled=profiled)
    t = 0.0
    for src, dst, nbytes, gap in msgs:
        # issue times run ahead of the (never advanced) engine clock
        t += gap
        assert (net_a.transfer(src, dst, nbytes, t)
                == _transfer_by_spans(net_b, t, src, dst, nbytes))
    assert net_a.engine.now == 0.0
    assert net_a.messages_sent == net_b.messages_sent
    assert net_a.bytes_sent == net_b.bytes_sent
    assert net_a.cross_node_messages == net_b.cross_node_messages
    assert net_a.cross_node_bytes == net_b.cross_node_bytes
    for ra, rb in zip(net_a.tx + net_a.rx, net_b.tx + net_b.rx):
        assert ra.busy_until == rb.busy_until
