"""End-to-end extended two-phase collective I/O: correctness and accounting."""

import numpy as np
import pytest

from repro.datatypes import BYTE, Subarray, Vector
from repro.errors import MPIIOError
from tests.conftest import Stack, rank_pattern

MODES = ("analytic", "detailed")


def written_reference_contiguous(nprocs, block):
    return np.concatenate([rank_pattern(r, block) for r in range(nprocs)])


@pytest.mark.parametrize("mode", MODES)
def test_contiguous_collective_write(mode):
    """IOR-style: each rank writes its block at rank*block."""
    st = Stack(nprocs=4, collective_mode=mode)
    block = 512

    def program(comm, io):
        f = yield from io.open(comm, "ior")
        data = rank_pattern(comm.rank, block)
        n = yield from f.write_at_all(comm.rank * block, data)
        yield from f.close()
        return n

    results = st.run(program)
    assert results == [block] * 4
    np.testing.assert_array_equal(st.file_bytes("ior"),
                                  written_reference_contiguous(4, block))


@pytest.mark.parametrize("mode", MODES)
def test_tiled_collective_write(mode):
    """2-D tiles (MPI-Tile-IO pattern): interleaved rows from all ranks."""
    st = Stack(nprocs=4, collective_mode=mode)
    # 2x2 process grid over a 8x8-byte array: tiles of 4x4
    rows = cols = 8
    tr = tc = 4

    def program(comm, io):
        pr, pc = divmod(comm.rank, 2)
        ft = Subarray((rows, cols), (tr, tc), (pr * tr, pc * tc), BYTE)
        f = yield from io.open(comm, "tiles")
        f.set_view(0, BYTE, ft)
        data = rank_pattern(comm.rank, tr * tc)
        yield from f.write_at_all(0, data)
        yield from f.close()

    st.run(program)
    got = st.file_bytes("tiles").reshape(rows, cols)
    for r in range(4):
        pr, pc = divmod(r, 2)
        tile = got[pr * tr:(pr + 1) * tr, pc * tc:(pc + 1) * tc]
        np.testing.assert_array_equal(tile.ravel(), rank_pattern(r, tr * tc))


@pytest.mark.parametrize("mode", MODES)
def test_collective_read_returns_written_bytes(mode):
    st = Stack(nprocs=4, collective_mode=mode)
    block = 300

    def program(comm, io):
        f = yield from io.open(comm, "rw")
        data = rank_pattern(comm.rank, block)
        yield from f.write_at_all(comm.rank * block, data)
        # read the block of the "next" rank
        peer = (comm.rank + 1) % comm.size
        got = yield from f.read_at_all(peer * block, block)
        yield from f.close()
        return got

    results = st.run(program)
    for r, got in enumerate(results):
        peer = (r + 1) % 4
        np.testing.assert_array_equal(got, rank_pattern(peer, block))


@pytest.mark.parametrize("cb", [64, 100, 256, 1 << 20])
def test_multiple_rounds_preserve_correctness(cb):
    """Small collective buffers force many exchange rounds."""
    st = Stack(nprocs=4)
    block = 333  # deliberately unaligned

    def program(comm, io):
        f = yield from io.open(comm, "rounds", hints={"cb_buffer_size": cb})
        data = rank_pattern(comm.rank, block)
        yield from f.write_at_all(comm.rank * block, data)
        yield from f.close()

    st.run(program)
    np.testing.assert_array_equal(st.file_bytes("rounds"),
                                  written_reference_contiguous(4, block))


def test_interleaved_strided_views():
    """Each rank owns every 4th byte-block (vector view) — worst case."""
    st = Stack(nprocs=4)
    nblocks, bsz = 16, 8

    def program(comm, io):
        ft = Vector(nblocks, bsz, 4 * bsz, BYTE)
        f = yield from io.open(comm, "strided",
                               hints={"cb_buffer_size": 128})
        f.set_view(comm.rank * bsz, BYTE, ft)
        data = rank_pattern(comm.rank, nblocks * bsz)
        yield from f.write_at_all(0, data)
        yield from f.close()

    st.run(program)
    got = st.file_bytes("strided").reshape(-1, bsz)
    assert got.shape[0] == 4 * nblocks
    for r in range(4):
        mine = got[r::4].ravel()
        np.testing.assert_array_equal(mine, rank_pattern(r, nblocks * bsz))


def test_unequal_sizes_and_idle_ranks():
    """Some ranks write nothing; others different amounts."""
    st = Stack(nprocs=4)
    sizes = [100, 0, 250, 50]
    offsets = [0, 100, 100, 350]

    def program(comm, io):
        f = yield from io.open(comm, "ragged")
        data = rank_pattern(comm.rank, sizes[comm.rank])
        yield from f.write_at_all(offsets[comm.rank], data,
                                  nbytes=sizes[comm.rank])
        yield from f.close()

    st.run(program)
    got = st.file_bytes("ragged")
    np.testing.assert_array_equal(got[0:100], rank_pattern(0, 100))
    np.testing.assert_array_equal(got[100:350], rank_pattern(2, 250))
    np.testing.assert_array_equal(got[350:400], rank_pattern(3, 50))


def test_all_ranks_empty_access():
    st = Stack(nprocs=4)

    def program(comm, io):
        f = yield from io.open(comm, "empty")
        n = yield from f.write_at_all(0, np.empty(0, np.uint8))
        yield from f.close()
        return n

    assert st.run(program) == [0, 0, 0, 0]


def test_model_mode_covers_extents_without_data():
    st = Stack(nprocs=4, store_data=False)
    block = 1 << 16

    def program(comm, io):
        f = yield from io.open(comm, "big")
        n = yield from f.write_at_all(comm.rank * block, nbytes=block)
        yield from f.close()
        return n

    assert st.run(program) == [block] * 4
    lf = st.fs.lookup("big")
    assert lf.tracker.covered_bytes == 4 * block
    assert lf.tracker.is_fully_covered(0, 4 * block)


def test_verified_mode_requires_data():
    st = Stack(nprocs=2)

    def program(comm, io):
        f = yield from io.open(comm, "nodata")
        yield from f.write_at_all(0, nbytes=64)

    with pytest.raises(MPIIOError):
        st.run(program)


def test_time_categories_populated():
    st = Stack(nprocs=4)

    def program(comm, io):
        ft = Subarray((8, 64), (4, 32), (4 * (comm.rank // 2),
                                         32 * (comm.rank % 2)), BYTE)
        f = yield from io.open(comm, "timed", hints={"cb_buffer_size": 64})
        f.set_view(0, BYTE, ft)
        yield from f.write_at_all(0, rank_pattern(comm.rank, 128))
        yield from f.close()

    st.run(program)
    for proc in st.world.procs:
        bd = proc.breakdown
        assert bd.get("sync") > 0
        assert bd.get("meta") > 0
    # at least the aggregators did file I/O
    assert any(p.breakdown.get("io") > 0 for p in st.world.procs)


def test_write_all_advances_file_pointer():
    st = Stack(nprocs=2)

    def program(comm, io):
        f = yield from io.open(comm, "fp")
        base = comm.rank * 128
        f.set_view(base, BYTE, BYTE)
        yield from f.write_all(rank_pattern(comm.rank, 64))
        yield from f.write_all(rank_pattern(comm.rank, 64)[::-1].copy())
        yield from f.close()

    st.run(program)
    got = st.file_bytes("fp")
    np.testing.assert_array_equal(got[0:64], rank_pattern(0, 64))
    np.testing.assert_array_equal(got[64:128], rank_pattern(0, 64)[::-1])
    np.testing.assert_array_equal(got[128:192], rank_pattern(1, 64))


def test_close_reports_breakdown_summary():
    st = Stack(nprocs=4)

    def program(comm, io):
        f = yield from io.open(comm, "summary")
        yield from f.write_at_all(comm.rank * 64, rank_pattern(comm.rank, 64))
        summary = yield from f.close()
        return summary

    results = st.run(program)
    assert results[1] is None
    s = results[0]
    assert "sync" in s and "meta" in s
    assert s["sync"]["max"] >= s["sync"]["mean"] >= 0


def test_operations_on_closed_file_rejected():
    st = Stack(nprocs=2)

    def program(comm, io):
        f = yield from io.open(comm, "closed")
        yield from f.close()
        yield from f.write_at_all(0, np.zeros(4, np.uint8))

    with pytest.raises(MPIIOError):
        st.run(program)


def test_explicit_aggregator_hints_respected():
    st = Stack(nprocs=4)

    def program(comm, io):
        f = yield from io.open(comm, "aggs",
                               hints={"cb_config_ranks": (3,)})
        yield from f.write_at_all(comm.rank * 64, rank_pattern(comm.rank, 64))
        yield from f.close()

    st.run(program)
    # only rank 3 should have touched the file system for data
    io_times = [p.breakdown.get("io") for p in st.world.procs]
    assert io_times[3] > 0
    assert io_times[0] == io_times[1] == io_times[2] == 0
    np.testing.assert_array_equal(st.file_bytes("aggs"),
                                  written_reference_contiguous(4, 64))


@pytest.mark.parametrize("mode", MODES)
def test_file_domains_built_once_per_call(monkeypatch, mode):
    """Every rank gathers the same extents, so one ext2ph write builds its
    aggregator list and file domains once, not once per rank."""
    from repro.mpiio import two_phase

    calls = []
    real = two_phase.partition_file_domains

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(two_phase, "partition_file_domains", counting)
    st = Stack(nprocs=64, collective_mode=mode)
    block = 64

    def program(comm, io):
        f = yield from io.open(comm, "once")
        yield from f.write_at_all(comm.rank * block,
                                  rank_pattern(comm.rank, block))
        yield from f.close()

    st.run(program)
    assert len(calls) == 1
    np.testing.assert_array_equal(st.file_bytes("once"),
                                  written_reference_contiguous(64, block))


@pytest.mark.parametrize("mode", MODES)
def test_independent_protocol_writes_correctly(mode):
    st = Stack(nprocs=4, collective_mode=mode)

    def program(comm, io):
        f = yield from io.open(comm, "indep", hints={"protocol": "independent"})
        yield from f.write_at_all(comm.rank * 128, rank_pattern(comm.rank, 128))
        yield from f.close()

    st.run(program)
    np.testing.assert_array_equal(st.file_bytes("indep"),
                                  written_reference_contiguous(4, 128))

