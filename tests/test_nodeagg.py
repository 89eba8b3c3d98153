"""The ``nodeagg`` protocol: node leaders and intra-node traffic reduction."""

import numpy as np

from repro.mpiio.nodeagg import node_groups
from tests.conftest import Stack, rank_pattern


class TestNodeGroups:
    def test_block_mapping_leaders(self):
        st = Stack(nprocs=8, cores_per_node=2, mapping="block")
        got = {}

        def program(comm, io):
            got[comm.rank] = node_groups(comm, io.world.machine)
            return
            yield  # pragma: no cover

        st.run(program)
        assert got[0] == (0, [0, 1])
        assert got[1] == (0, [0, 1])
        assert got[6] == (6, [6, 7])

    def test_cyclic_mapping_leaders(self):
        st = Stack(nprocs=8, cores_per_node=2, mapping="cyclic")
        got = {}

        def program(comm, io):
            got[comm.rank] = node_groups(comm, io.world.machine)
            return
            yield  # pragma: no cover

        st.run(program)
        assert got[4] == (0, [0, 4])  # node 0 hosts ranks 0 and 4
        assert got[7] == (3, [3, 7])


class TestNodeAggWrites:
    def run_write(self, protocol, nprocs=8, cores=4, block=256,
                  **extra_hints):
        st = Stack(nprocs=nprocs, cores_per_node=cores)

        def program(comm, io):
            f = yield from io.open(comm, "na", hints={
                "protocol": protocol, "cb_buffer_size": 512,
                **extra_hints})
            yield from f.write_at_all(comm.rank * block,
                                      rank_pattern(comm.rank, block))
            yield from f.close()

        st.run(program)
        return st

    def test_fewer_cross_node_messages(self):
        # one aggregator: under ext2ph every core talks to it across the
        # network; under nodeagg only the node leaders do
        kw = dict(nprocs=16, cores=4, cb_nodes=1)
        base = self.run_write("ext2ph", **kw)
        agg = self.run_write("nodeagg", **kw)
        base_net, agg_net = base.world.network, agg.world.network
        assert agg_net.cross_node_messages < base_net.cross_node_messages
        # and the data volume does not blow up
        assert (agg_net.cross_node_bytes
                <= 1.5 * base_net.cross_node_bytes)
        np.testing.assert_array_equal(agg.file_bytes("na"),
                                      base.file_bytes("na"))

    def test_single_core_nodes_degenerate_cleanly(self):
        st = self.run_write("nodeagg", nprocs=4, cores=1, block=64)
        ref = np.concatenate([rank_pattern(r, 64) for r in range(4)])
        np.testing.assert_array_equal(st.file_bytes("na"), ref)
