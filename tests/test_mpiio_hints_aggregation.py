"""Hints validation and aggregator / file-domain logic."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineConfig
from repro.errors import ConfigError, MPIIOError
from repro.mpiio import IOHints
from repro.mpiio.aggregation import (default_aggregators, domain_of_offsets,
                                     partition_file_domains)


class TestHints:
    def test_defaults_valid(self):
        h = IOHints()
        assert h.cb_buffer_size == 4 << 20
        assert h.protocol == "ext2ph"

    def test_from_dict_roundtrip(self):
        h = IOHints.from_dict({"cb_buffer_size": 1024, "protocol": "parcoll",
                               "parcoll_ngroups": 8})
        assert h.cb_buffer_size == 1024
        assert h.parcoll_ngroups == 8

    # a name no MPI-IO layer knows, then hints this library no longer
    # has, each with a value it used to accept: only the name rejects
    @pytest.mark.parametrize("name,value", [
        ("romio_no_such_hint", 1),
        ("align_file_domains", True),
        ("pipelined_io", True),
        ("parcoll_validate", True),
        ("retry_max_attempts", 4),
        ("retry_timeout", 1.0),
        ("retry_backoff_base", 0.0),
        ("retry_backoff_factor", 2.0),
        ("retry_jitter", 0.0),
        ("collective_mode", "detailed"),
    ])
    def test_unknown_hint_rejected(self, name, value):
        with pytest.raises(MPIIOError, match="unknown hint"):
            IOHints.from_dict({name: value})

    def test_invalid_values_rejected(self):
        with pytest.raises(MPIIOError):
            IOHints(cb_buffer_size=0)
        with pytest.raises(MPIIOError):
            IOHints(protocol="magic")
        with pytest.raises(MPIIOError):
            IOHints(parcoll_ngroups=0)
        with pytest.raises(MPIIOError):
            IOHints(cb_nodes=-1)
        with pytest.raises(MPIIOError):
            IOHints(cb_config_ranks=())
        with pytest.raises(MPIIOError):
            IOHints(cb_config_ranks=(1, 1))

    def test_with_override(self):
        h = IOHints().with_(protocol="parcoll", parcoll_ngroups=4)
        assert h.protocol == "parcoll"
        assert h.cb_buffer_size == IOHints().cb_buffer_size


class TestDefaultAggregators:
    def make_machine(self, nprocs=8, cores=2, mapping="block"):
        return Machine(MachineConfig(nprocs=nprocs, cores_per_node=cores,
                                     mapping=mapping))

    def test_one_per_node_block_mapping(self):
        m = self.make_machine()
        aggs = default_aggregators(list(range(8)), m, IOHints())
        # block: lowest rank on each node: 0, 2, 4, 6
        assert aggs == [0, 2, 4, 6]

    def test_one_per_node_cyclic_mapping(self):
        m = self.make_machine(mapping="cyclic")
        aggs = default_aggregators(list(range(8)), m, IOHints())
        # cyclic: node i first hosts rank i
        assert aggs == [0, 1, 2, 3]

    def test_cb_nodes_caps_count(self):
        m = self.make_machine()
        aggs = default_aggregators(list(range(8)), m, IOHints(cb_nodes=2))
        assert aggs == [0, 2]

    def test_explicit_config_ranks(self):
        m = self.make_machine()
        aggs = default_aggregators(list(range(8)), m,
                                   IOHints(cb_config_ranks=(7, 3)))
        assert aggs == [7, 3]

    def test_explicit_config_ranks_validated(self):
        m = self.make_machine()
        with pytest.raises(MPIIOError):
            default_aggregators(list(range(4)), m, IOHints(cb_config_ranks=(9,)))

    def test_subgroup_members(self):
        # communicator holding world ranks 4..7 (nodes 2 and 3)
        m = self.make_machine()
        aggs = default_aggregators([4, 5, 6, 7], m, IOHints())
        assert aggs == [0, 2]  # group ranks of world ranks 4 and 6

    @pytest.mark.parametrize("mapping", ["block", "cyclic"])
    def test_unordered_members_first_per_node(self, mapping):
        # the first member on each node wins, listed in node order, not
        # in member order
        m = self.make_machine(nprocs=12, cores=3, mapping=mapping)
        members = [int(x) for x in
                   np.random.default_rng(5).permutation(12)[:9]]
        first: dict[int, int] = {}
        for grank, wrank in enumerate(members):
            first.setdefault(m.node_of_rank(wrank), grank)
        want = [first[n] for n in sorted(first)]
        got = default_aggregators(members, m, IOHints())
        assert got == want
        assert all(type(a) is int for a in got)

    def test_out_of_range_member_rejected(self):
        m = self.make_machine()
        for bad in (8, -1):
            with pytest.raises(ConfigError, match=f"rank {bad} out of range"):
                default_aggregators([0, 1, bad, 3], m, IOHints())


class TestFileDomains:
    def test_even_split(self):
        s, e = partition_file_domains(0, 100, 4)
        assert s.tolist() == [0, 25, 50, 75]
        assert e.tolist() == [25, 50, 75, 100]

    def test_remainder_spread(self):
        s, e = partition_file_domains(0, 10, 3)
        assert (e - s).tolist() == [4, 3, 3]
        assert s[0] == 0 and e[-1] == 10

    def test_more_aggs_than_bytes(self):
        s, e = partition_file_domains(0, 2, 4)
        assert (e - s).tolist() == [1, 1, 0, 0]

    def test_empty_range(self):
        s, e = partition_file_domains(5, 5, 3)
        assert (e - s).tolist() == [0, 0, 0]

    def test_invalid(self):
        with pytest.raises(MPIIOError):
            partition_file_domains(0, 10, 0)
        with pytest.raises(MPIIOError):
            partition_file_domains(10, 0, 2)

    def test_domain_of_offsets(self):
        starts = np.array([0, 25, 50, 75], dtype=np.int64)
        ends = np.array([25, 50, 75, 100], dtype=np.int64)
        offs = np.array([0, 24, 25, 74, 99], dtype=np.int64)
        idx = domain_of_offsets(offs, starts, ends)
        assert idx.tolist() == [0, 0, 1, 2, 3]
