"""End-to-end ParColl: correctness in both modes, caching, and the
sync-cost reduction that is the point of the paper."""

import numpy as np
import pytest

from repro.datatypes import BYTE, Subarray, Vector
from repro.parcoll.intermediate_view import IntermediateView
from repro.errors import ParCollError
from tests.conftest import Stack, rank_pattern

MODES = ("analytic", "detailed")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ngroups", [1, 2, 4, 8])
def test_serial_pattern_write_correct(mode, ngroups):
    st = Stack(nprocs=8, collective_mode=mode)
    block = 256

    def program(comm, io):
        f = yield from io.open(comm, "pc", hints={
            "protocol": "parcoll", "parcoll_ngroups": ngroups})
        yield from f.write_at_all(comm.rank * block,
                                  rank_pattern(comm.rank, block))
        yield from f.close()

    st.run(program)
    ref = np.concatenate([rank_pattern(r, block) for r in range(8)])
    np.testing.assert_array_equal(st.file_bytes("pc"), ref)


@pytest.mark.parametrize("ngroups", [1, 2, 4])
def test_tiled_pattern_write_correct(ngroups):
    """4x2 process grid of tiles; groups become tile-row bands."""
    st = Stack(nprocs=8)
    rows, cols, tr, tc = 16, 8, 4, 4

    def program(comm, io):
        pr, pc = divmod(comm.rank, 2)
        ft = Subarray((rows, cols), (tr, tc), (pr * tr, pc * tc), BYTE)
        f = yield from io.open(comm, "tiles", hints={
            "protocol": "parcoll", "parcoll_ngroups": ngroups,
            "cb_buffer_size": 64})
        f.set_view(0, BYTE, ft)
        yield from f.write_at_all(0, rank_pattern(comm.rank, tr * tc))
        yield from f.close()

    st.run(program)
    got = st.file_bytes("tiles").reshape(rows, cols)
    for r in range(8):
        pr, pc = divmod(r, 2)
        tile = got[pr * tr:(pr + 1) * tr, pc * tc:(pc + 1) * tc]
        np.testing.assert_array_equal(tile.ravel(), rank_pattern(r, tr * tc))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ngroups", [2, 4])
def test_interleaved_pattern_uses_intermediate_view_and_is_correct(mode, ngroups):
    """BT-IO-like pattern (c): each rank's blocks spread across the file."""
    st = Stack(nprocs=8, collective_mode=mode)
    nblocks, bsz = 8, 32

    def program(comm, io):
        # rank r owns block r, r+8, r+16, ... (vector stride = nprocs)
        ft = Vector(nblocks, bsz, comm.size * bsz, BYTE)
        f = yield from io.open(comm, "inter", hints={
            "protocol": "parcoll", "parcoll_ngroups": ngroups,
            "cb_buffer_size": 128})
        f.set_view(comm.rank * bsz, BYTE, ft)
        yield from f.write_at_all(0, rank_pattern(comm.rank, nblocks * bsz))
        yield from f.close()

    st.run(program)
    got = st.file_bytes("inter").reshape(-1, bsz)
    for r in range(8):
        np.testing.assert_array_equal(got[r::8].ravel(),
                                      rank_pattern(r, nblocks * bsz))


@pytest.mark.parametrize("ngroups", [2, 4])
def test_parcoll_read_roundtrip(ngroups):
    st = Stack(nprocs=8)
    block = 200

    def program(comm, io):
        f = yield from io.open(comm, "rt", hints={
            "protocol": "parcoll", "parcoll_ngroups": ngroups})
        yield from f.write_at_all(comm.rank * block,
                                  rank_pattern(comm.rank, block))
        got = yield from f.read_at_all(comm.rank * block, block)
        yield from f.close()
        return got

    results = st.run(program)
    for r, got in enumerate(results):
        np.testing.assert_array_equal(got, rank_pattern(r, block))


def test_parcoll_read_interleaved_intermediate_view():
    st = Stack(nprocs=4)
    nblocks, bsz = 4, 16

    def program(comm, io):
        ft = Vector(nblocks, bsz, comm.size * bsz, BYTE)
        f = yield from io.open(comm, "ri", hints={
            "protocol": "parcoll", "parcoll_ngroups": 2})
        f.set_view(comm.rank * bsz, BYTE, ft)
        yield from f.write_at_all(0, rank_pattern(comm.rank, nblocks * bsz))
        got = yield from f.read_at_all(0, nblocks * bsz)
        yield from f.close()
        return got

    results = st.run(program)
    for r, got in enumerate(results):
        np.testing.assert_array_equal(got, rank_pattern(r, nblocks * bsz))


def test_subgroup_comm_cached_across_calls():
    st = Stack(nprocs=8)
    block = 64

    def program(comm, io):
        f = yield from io.open(comm, "cache", hints={
            "protocol": "parcoll", "parcoll_ngroups": 4})
        for step in range(3):
            data = rank_pattern(comm.rank + step, block)
            yield from f.write_at_all(comm.rank * block, data)
        ncached = len(f.shared.parcoll_cache)
        yield from f.close()
        return ncached

    results = st.run(program)
    # two cache entries per rank (the plan-keyed comm + the held plan)
    # plus the two shared rank-independent entries (the global plan and
    # the aggregator distribution), unchanged across the three calls
    assert all(n == 18 for n in results)


@pytest.mark.parametrize("mode", MODES)
def test_setup_built_once_per_call(monkeypatch, mode):
    """Every rank holds the same gathered extents and split entries, so
    each call looks its plan up once and each split sorts its groups
    once, not once per rank; every group still shares one context."""
    from repro.parcoll import driver
    from repro.simmpi import world as world_mod

    counts = {"plan": 0, "split": 0, "dist": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(driver, "_plan_for_call",
                        counting("plan", driver._plan_for_call))
    monkeypatch.setattr(driver, "_distribute",
                        counting("dist", driver._distribute))
    monkeypatch.setattr(world_mod, "_split_groups",
                        counting("split", world_mod._split_groups))
    nprocs, ngroups, block = 16, 4, 64
    st = Stack(nprocs=nprocs, collective_mode=mode)

    def program(comm, io):
        f = yield from io.open(comm, "once", hints={
            "protocol": "parcoll", "parcoll_ngroups": ngroups,
            "parcoll_replan": "always"})
        for step in range(2):
            yield from f.write_at_all(comm.rank * block,
                                      rank_pattern(comm.rank + step, block))
        subs = [v[0] for k, v in f.shared.parcoll_cache.items()
                if isinstance(k[0], driver._Grouping) and k[1] == comm.rank]
        yield from f.close()
        return subs[0].desc.ctx, subs[0].desc.members

    results = st.run(program)
    # two calls re-plan; the grouping (one split, one distribution) holds
    assert counts == {"plan": 2, "split": 1, "dist": 1}
    groups = {}
    for r, (ctx, members) in enumerate(results):
        assert r in members
        groups.setdefault(ctx, members)
        assert groups[ctx] == members
    assert len(groups) == ngroups
    assert sorted(r for m in groups.values() for r in m) == list(range(nprocs))
    np.testing.assert_array_equal(
        st.file_bytes("once"),
        np.concatenate([rank_pattern(r + 1, block) for r in range(nprocs)]))


def test_parcoll_model_mode_covers_file():
    st = Stack(nprocs=8, store_data=False)
    block = 1 << 14

    def program(comm, io):
        f = yield from io.open(comm, "model", hints={
            "protocol": "parcoll", "parcoll_ngroups": 4})
        yield from f.write_at_all(comm.rank * block, nbytes=block)
        yield from f.close()

    st.run(program)
    lf = st.fs.lookup("model")
    assert lf.tracker.is_fully_covered(0, 8 * block)


def test_parcoll_reduces_sync_time_vs_global():
    """The headline mechanism: smaller groups, less synchronization wait."""
    def run(protocol, ngroups):
        st = Stack(nprocs=16, cores_per_node=2, jitter=0.3,
                   stripe_size=4096, n_osts=8, stripe_count=8)
        block = 1 << 14

        def program(comm, io):
            f = yield from io.open(comm, "x", hints={
                "protocol": protocol, "parcoll_ngroups": ngroups,
                "cb_buffer_size": 4096})
            yield from f.write_at_all(comm.rank * block,
                                      rank_pattern(comm.rank, block))
            yield from f.close()

        st.run(program)
        return max(p.breakdown.get("sync") for p in st.world.procs)

    sync_global = run("ext2ph", 1)
    sync_parcoll = run("parcoll", 8)
    assert sync_parcoll < sync_global


def test_parcoll_ngroups_one_equals_ext2ph_result():
    """ParColl-1 degenerates to the baseline protocol (same bytes)."""
    def run(protocol):
        st = Stack(nprocs=4)

        def program(comm, io):
            f = yield from io.open(comm, "same", hints={"protocol": protocol})
            yield from f.write_at_all(comm.rank * 100,
                                      rank_pattern(comm.rank, 100))
            yield from f.close()

        st.run(program)
        return st.file_bytes("same")

    np.testing.assert_array_equal(run("ext2ph"), run("parcoll"))


class TestIntermediateViewUnit:
    def test_logical_segments_single_run(self):
        segs = (np.array([10, 50], dtype=np.int64),
                np.array([5, 5], dtype=np.int64))
        iv = IntermediateView(segs, logical_base=100)
        lo, ll = iv.logical_segments
        assert lo.tolist() == [100]
        assert ll.tolist() == [10]

    def test_translate_clips_physical(self):
        segs = (np.array([10, 50], dtype=np.int64),
                np.array([5, 5], dtype=np.int64))
        iv = IntermediateView(segs, logical_base=100)
        # logical [103, 107) = data bytes 3..7 = phys [13,2) + [50,2)
        po, pl = iv.translate((np.array([103], dtype=np.int64),
                               np.array([4], dtype=np.int64)))
        assert po.tolist() == [13, 50]
        assert pl.tolist() == [2, 2]

    def test_translate_out_of_range_rejected(self):
        segs = (np.array([0], dtype=np.int64), np.array([4], dtype=np.int64))
        iv = IntermediateView(segs, logical_base=0)
        with pytest.raises(ParCollError):
            iv.translate((np.array([2], dtype=np.int64),
                          np.array([10], dtype=np.int64)))
