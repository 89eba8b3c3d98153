"""Synthetic pattern generator and hdf5lite container."""

import numpy as np
import pytest

from repro.datatypes.flatten import coalesce
from repro.errors import ConfigError
from repro.parcoll import plan_partition
from repro.workloads.base import deterministic_bytes
from repro.workloads.hdf5lite import (DATASET_ALIGNMENT, DATASET_META_BYTES,
                                      HEADER_BYTES, Hdf5LiteWriter)
from repro.workloads.synthetic import (SyntheticConfig, file_bytes_total,
                                       filetype_for, reference_file,
                                       rank_offsets_for_interleaved)
from tests.conftest import Stack


class TestSyntheticPatterns:
    @pytest.mark.parametrize("pattern", ["serial", "tiled", "interleaved",
                                         "random"])
    def test_patterns_are_disjoint_across_ranks(self, pattern):
        cfg = SyntheticConfig(pattern=pattern, nprocs=6,
                              bytes_per_rank=1536, piece_bytes=128, seed=7)
        offs, lens = [], []
        for r in range(6):
            o, l = filetype_for(cfg, r).segments()
            disp = (rank_offsets_for_interleaved(cfg, r)
                    if pattern == "interleaved" else 0)
            offs.append(o + disp)
            lens.append(l)
        # disjoint exactly when the union loses no byte to an overlap
        _, union_lens = coalesce(np.concatenate(offs), np.concatenate(lens))
        assert int(union_lens.sum()) == sum(int(l.sum()) for l in lens)

    def test_serial_is_pattern_a(self):
        cfg = SyntheticConfig(pattern="serial", nprocs=4)
        extents = []
        for r in range(4):
            o, l = filetype_for(cfg, r).segments()
            extents.append((int(o[0]), int(o[-1] + l[-1]), int(l.sum())))
        plan = plan_partition(extents, 4)
        assert plan.mode == "direct"

    def test_interleaved_is_pattern_c(self):
        cfg = SyntheticConfig(pattern="interleaved", nprocs=4,
                              bytes_per_rank=1024, piece_bytes=128)
        extents = []
        for r in range(4):
            o, l = filetype_for(cfg, r).segments()
            disp = rank_offsets_for_interleaved(cfg, r)
            extents.append((int(o[0]) + disp, int(o[-1] + l[-1]) + disp,
                            int(l.sum())))
        plan = plan_partition(extents, 2)
        assert plan.mode == "intermediate"

    def test_random_everyone_owns_something(self):
        cfg = SyntheticConfig(pattern="random", nprocs=16,
                              bytes_per_rank=256, piece_bytes=256, seed=1)
        for r in range(16):
            assert filetype_for(cfg, r).size > 0

    def test_random_seed_changes_pattern(self):
        a = SyntheticConfig(pattern="random", nprocs=4, seed=1)
        b = SyntheticConfig(pattern="random", nprocs=4, seed=2)
        sa = filetype_for(a, 0).segments()[0]
        sb = filetype_for(b, 0).segments()[0]
        assert sa.shape != sb.shape or not np.array_equal(sa, sb)

    def test_reference_file_matches_manual_serial(self):
        cfg = SyntheticConfig(pattern="serial", nprocs=3, bytes_per_rank=64)
        ref = reference_file(cfg, deterministic_bytes)
        for r in range(3):
            np.testing.assert_array_equal(ref[r * 64:(r + 1) * 64],
                                          deterministic_bytes(r, 64))

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(pattern="weird")
        with pytest.raises(ConfigError):
            SyntheticConfig(nprocs=0)
        cfg = SyntheticConfig()
        with pytest.raises(ConfigError):
            filetype_for(cfg, 99)

    def test_file_bytes_total_upper_bound(self):
        for pattern in ("serial", "tiled", "interleaved", "random"):
            cfg = SyntheticConfig(pattern=pattern, nprocs=5,
                                  bytes_per_rank=640, piece_bytes=64, seed=3)
            total = file_bytes_total(cfg)
            for r in range(5):
                o, l = filetype_for(cfg, r).segments()
                disp = (rank_offsets_for_interleaved(cfg, r)
                        if pattern == "interleaved" else 0)
                assert int(o[-1] + l[-1]) + disp <= total


class TestHdf5Lite:
    def run_writer(self, fn, nprocs=4):
        st = Stack(nprocs=nprocs, stripe_size=2048)
        out = {}

        def program(comm, io):
            f = yield from io.open(comm, "h5")
            w = Hdf5LiteWriter(f, comm)
            yield from fn(w, comm, f)
            yield from f.close()
            out[comm.rank] = w

        st.run(program)
        return st, out

    def test_layout_deterministic_across_ranks(self):
        def body(w, comm, f):
            yield from w.write_header()
            yield from w.create_dataset("a", 1000)
            yield from w.create_dataset("b", 5000)

        _, writers = self.run_writer(body)
        layouts = {r: w.datasets for r, w in writers.items()}
        assert all(l == layouts[0] for l in layouts.values())

    def test_dataset_alignment_and_no_overlap(self):
        def body(w, comm, f):
            yield from w.create_dataset("a", 100)
            yield from w.create_dataset("b", 3000)
            yield from w.create_dataset("c", 1)

        _, writers = self.run_writer(body)
        w = writers[0]
        prev_end = HEADER_BYTES
        for name in ("a", "b", "c"):
            base, size = w.datasets[name]
            assert base % DATASET_ALIGNMENT == 0
            assert base >= prev_end + DATASET_META_BYTES
            prev_end = base + size

    def test_duplicate_dataset_rejected(self):
        def body(w, comm, f):
            yield from w.create_dataset("a", 10)
            yield from w.create_dataset("a", 10)

        with pytest.raises(ConfigError):
            self.run_writer(body)

    def test_collective_mode_metadata_only_rank0(self):
        st = Stack(nprocs=4, stripe_size=2048)

        def program(comm, io):
            f = yield from io.open(comm, "meta", hints={"protocol": "ext2ph"})
            w = Hdf5LiteWriter(f, comm)
            yield from w.create_dataset("a", 128)
            yield from f.close()

        st.run(program)
        io_times = [p.breakdown.get("io") for p in st.world.procs]
        assert io_times[0] > 0
        assert all(t == 0 for t in io_times[1:])

    def test_independent_mode_every_rank_writes_metadata(self):
        st = Stack(nprocs=4, stripe_size=2048)

        def program(comm, io):
            f = yield from io.open(comm, "meta2",
                                   hints={"protocol": "independent"})
            w = Hdf5LiteWriter(f, comm)
            yield from w.create_dataset("a", 128)
            yield from f.close()

        st.run(program)
        io_times = [p.breakdown.get("io") for p in st.world.procs]
        assert all(t > 0 for t in io_times)
        # the shared metadata region got lock-thrashed
        assert st.fs.lookup("meta2").locks.revocations >= 3

