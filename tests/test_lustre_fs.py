"""File-system behaviour: timing, contention, locks, data integrity."""

import numpy as np
import pytest

from repro.errors import FileSystemError
from repro.lustre import LustreFS, LustreParams
from repro.sim import Engine


def make_fs(**kw):
    kw.setdefault("n_osts", 4)
    kw.setdefault("default_stripe_count", 4)
    kw.setdefault("default_stripe_size", 1024)
    kw.setdefault("jitter", 0.0)
    eng = Engine()
    return eng, LustreFS(eng, LustreParams(**kw))


def run(eng, *gens):
    return eng.run_tasks(list(gens))


def test_open_creates_and_reopens_same_file():
    eng, fs = make_fs()

    def prog():
        f1 = yield from fs.open("a")
        f2 = yield from fs.open("a")
        return f1 is f2

    (same,) = run(eng, prog())
    assert same


def test_open_missing_without_create_raises():
    eng, fs = make_fs()

    def prog():
        yield from fs.open("nope", create=False)

    with pytest.raises(FileSystemError):
        run(eng, prog())


def test_write_read_roundtrip():
    eng, fs = make_fs()
    out = {}

    def prog():
        f = yield from fs.open("data")
        payload = np.arange(256, dtype=np.uint8)
        yield from fs.write(f, client=0, offsets=[100], lengths=[256],
                            data=payload)
        got = yield from fs.read(f, client=0, offsets=[100], lengths=[256])
        out["got"] = got

    run(eng, prog())
    np.testing.assert_array_equal(out["got"], np.arange(256, dtype=np.uint8))


def test_noncontiguous_write_lands_at_right_offsets():
    eng, fs = make_fs()
    out = {}

    def prog():
        f = yield from fs.open("nc")
        data = np.concatenate([np.full(10, 1, np.uint8), np.full(10, 2, np.uint8)])
        yield from fs.write(f, 0, offsets=[0, 50], lengths=[10, 10], data=data)
        out["contents"] = f.contents()

    run(eng, prog())
    c = out["contents"]
    assert c.size == 60
    assert (c[0:10] == 1).all()
    assert (c[10:50] == 0).all()
    assert (c[50:60] == 2).all()


def test_write_data_size_mismatch_rejected():
    eng, fs = make_fs()

    def prog():
        f = yield from fs.open("bad")
        yield from fs.write(f, 0, [0], [10], data=np.zeros(5, np.uint8))

    with pytest.raises(FileSystemError):
        run(eng, prog())


def test_model_mode_tracks_extents_without_data():
    eng, fs = make_fs(store_data=False)
    out = {}

    def prog():
        f = yield from fs.open("big")
        yield from fs.write(f, 0, [0, 1 << 20], [512, 512])
        got = yield from fs.read(f, 0, [0], [512])
        out["f"] = f
        out["got"] = got

    run(eng, prog())
    assert out["got"] is None
    assert out["f"].tracker.covered_bytes == 1024
    with pytest.raises(FileSystemError):
        out["f"].contents()


def test_striped_write_uses_multiple_osts():
    eng, fs = make_fs()

    def prog():
        f = yield from fs.open("striped")
        yield from fs.write(f, 0, [0], [4096],
                            data=np.zeros(4096, np.uint8))

    run(eng, prog())
    used = [o for o in fs.osts if o.busy_until > 0.0]
    assert len(used) == 4  # 4096 bytes over 4 x 1 KiB stripes


def test_single_ost_contention_serializes_clients():
    eng, fs = make_fs(ost_bandwidth=1e6, ost_rpc_overhead=0.0,
                      client_overhead=0.0, mds_op_cost=0.0,
                      ost_chunk_overhead=0.0, lock_grant_cost=0.0,
                      ost_seek_cost=0.0)
    finish = {}

    def prog(client):
        f = yield from fs.open("hot")
        # both clients hit stripe 0 = OST 0
        yield from fs.write(f, client, [0], [1000],
                            data=np.zeros(1000, np.uint8))
        finish[client] = eng.now

    run(eng, prog(0), prog(1))
    times = sorted(finish.values())
    # second client's 1 ms of service queues behind the first (plus one
    # lock revocation); small per-extent/lock-grant overheads allowed
    assert times[0] == pytest.approx(0.001, abs=1e-3)
    assert times[1] >= 0.002


def test_single_stripe_stream_runs_at_ost_bandwidth():
    # one client streaming 64 MiB to one OST: only the per-RPC overhead
    # separates the achieved rate from the configured ost_bandwidth
    eng, fs = make_fs(ost_bandwidth=300e6, store_data=False,
                      default_stripe_size=4 << 20)
    out = {}

    def prog():
        f = yield from fs.open("stream", stripe_count=1)
        t0 = eng.now
        yield from fs.write(f, 0, [0], [64 << 20])
        out["secs"] = eng.now - t0

    run(eng, prog())
    assert (64 << 20) / out["secs"] == pytest.approx(300e6, rel=0.2)


def test_lock_revocation_charged_between_clients():
    eng, fs = make_fs()
    f_holder = {}

    def prog(client, offset):
        f = yield from fs.open("locky")
        f_holder["f"] = f
        yield from fs.write(f, client, [offset], [10],
                            data=np.zeros(10, np.uint8))

    run(eng, prog(0, 0), prog(1, 16))  # same stripe, different clients
    assert f_holder["f"].locks.revocations >= 1


def test_same_client_pays_no_revocation():
    eng, fs = make_fs()
    f_holder = {}

    def prog():
        f = yield from fs.open("solo")
        f_holder["f"] = f
        for i in range(5):
            yield from fs.write(f, 0, [i * 10], [10],
                                data=np.zeros(10, np.uint8))

    run(eng, prog())
    assert f_holder["f"].locks.revocations == 0


def test_concurrent_readers_share_locks():
    eng, fs = make_fs()
    f_holder = {}

    def writer():
        f = yield from fs.open("shared")
        f_holder["f"] = f
        yield from fs.write(f, 0, [0], [100], data=np.zeros(100, np.uint8))

    def reader(client):
        # runs after writer because of engine determinism? enforce via open order
        f = yield from fs.open("shared")
        yield from fs.read(f, client, [0], [100])

    eng2, fs2 = make_fs()

    def seq():
        f = yield from fs2.open("shared")
        yield from fs2.write(f, 0, [0], [100], data=np.zeros(100, np.uint8))
        base = f.locks.revocations
        yield from fs2.read(f, 1, [0], [50])
        yield from fs2.read(f, 2, [50], [50])
        # reader 1 revoked the writer; reader 2 shares with reader 1
        return f.locks.revocations - base

    (extra,) = run(eng2, seq())
    assert extra == 1


def test_rpc_overhead_scales_with_chunk_count():
    # many small discontiguous chunks cost more than one big write
    eng1, fs1 = make_fs(mds_op_cost=0.0, client_overhead=0.0)
    eng2, fs2 = make_fs(mds_op_cost=0.0, client_overhead=0.0)

    def small(fs):
        f = yield from fs.open("x")
        offs = np.arange(64, dtype=np.int64) * 16
        lens = np.full(64, 8, dtype=np.int64)
        yield from fs.write(f, 0, offs, lens,
                            data=np.zeros(64 * 8, np.uint8))
        return fs.engine.now

    def big(fs):
        f = yield from fs.open("x")
        yield from fs.write(f, 0, [0], [512], data=np.zeros(512, np.uint8))
        return fs.engine.now

    (t_small,) = run(eng1, small(fs1))
    (t_big,) = run(eng2, big(fs2))
    assert t_small > t_big


def test_mds_serializes_opens():
    eng, fs = make_fs(mds_op_cost=1.0, client_overhead=0.0)
    finish = {}

    def prog(i):
        yield from fs.open(f"f{i}")
        finish[i] = eng.now

    run(eng, prog(0), prog(1), prog(2))
    assert sorted(finish.values()) == pytest.approx([1.0, 2.0, 3.0])


def test_unlink_removes_file():
    eng, fs = make_fs()

    def prog():
        yield from fs.open("gone")
        yield from fs.unlink("gone")
        return "gone" in fs._files

    (exists,) = run(eng, prog())
    assert not exists


def test_jitter_is_deterministic_across_runs():
    def elapsed():
        eng, fs = make_fs(jitter=0.3)

        def prog():
            f = yield from fs.open("j")
            yield from fs.write(f, 0, [0], [2048], data=np.zeros(2048, np.uint8))
            return eng.now

        (t,) = run(eng, prog())
        return t

    assert elapsed() == elapsed()


def test_stats_counters():
    eng, fs = make_fs()

    def prog():
        f = yield from fs.open("s")
        yield from fs.write(f, 0, [0], [100], data=np.zeros(100, np.uint8))
        yield from fs.read(f, 0, [0], [40])

    run(eng, prog())
    assert fs.bytes_written == 100
    assert fs.bytes_read == 40


def test_write_drops_data_once_committed():
    """The store copies the bytes at the commit; the array passed in must
    not live on through the modeled OST service time."""
    import weakref

    from repro.sim.effects import Sleep

    eng, fs = make_fs()
    state = {}

    def writer():
        f = yield from fs.open("w")
        state["file"] = f
        data = np.arange(4096, dtype=np.uint8)
        state["ref"] = weakref.ref(data)
        write = fs.write(f, client=0, offsets=[0], lengths=[4096], data=data)
        del data
        yield from write
        state["done"] = True

    def probe():
        # sample every 10 us until the write returns
        samples = []
        while "done" not in state:
            yield Sleep(10e-6)
            f = state.get("file")
            if f is not None and f.store.size and "done" not in state:
                samples.append(state["ref"]() is None)
        return samples

    _, samples = run(eng, writer(), probe())
    assert samples, "the probe never saw the write between commit and return"
    assert all(samples)
    np.testing.assert_array_equal(fs.lookup("w").contents(),
                                  np.arange(4096, dtype=np.uint8))
