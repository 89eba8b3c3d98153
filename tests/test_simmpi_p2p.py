"""Point-to-point semantics: matching, ordering, protocols."""

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import DeadlockError, MPIError
from repro.simmpi import Payload, World


def make_world(nprocs=4, **net_kw):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=2),
                 net_params=NetworkParams(**net_kw))


def test_simple_send_recv():
    w = make_world()
    out = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send({"x": 1}, dest=1, tag=7)
        elif comm.rank == 1:
            payload = yield from comm.recv(source=0, tag=7)
            out["data"] = payload.data
        else:
            return

    w.launch(program)
    assert out["data"] == {"x": 1}


def test_send_recv_numpy_array():
    w = make_world()
    out = {}

    def program(comm):
        if comm.rank == 0:
            arr = np.arange(100, dtype=np.int64)
            yield from comm.send(arr, dest=3)
        elif comm.rank == 3:
            payload = yield from comm.recv(source=0)
            out["arr"] = payload.data

    w.launch(program)
    np.testing.assert_array_equal(out["arr"], np.arange(100))


def test_tag_selectivity():
    w = make_world(nprocs=2)
    order = []

    def program(comm):
        if comm.rank == 0:
            yield from comm.send("a", dest=1, tag=1)
            yield from comm.send("b", dest=1, tag=2)
        else:
            p2 = yield from comm.recv(source=0, tag=2)
            order.append(p2.data)
            p1 = yield from comm.recv(source=0, tag=1)
            order.append(p1.data)

    w.launch(program)
    assert order == ["b", "a"]


def test_fifo_order_same_src_same_tag():
    w = make_world(nprocs=2)
    got = []

    def program(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=0)
        else:
            for _ in range(5):
                p = yield from comm.recv(source=0, tag=0)
                got.append(p.data)

    w.launch(program)
    assert got == [0, 1, 2, 3, 4]


def test_unmatched_recv_deadlocks_with_diagnostic():
    w = make_world(nprocs=2)

    def program(comm):
        if comm.rank == 1:
            yield from comm.recv(source=0, tag=99)

    with pytest.raises(DeadlockError):
        w.launch(program)


def test_rendezvous_sender_blocks_until_receiver_posts():
    # 1 MB >> eager threshold: sender should not complete before the
    # receiver shows up at t=5.
    w = make_world(nprocs=4, eager_threshold=1024)
    times = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(Payload.model(1_000_000), dest=2)
            times["send_done"] = comm.now
        elif comm.rank == 2:
            yield from comm.proc.compute(5.0)
            yield from comm.recv(source=0)
            times["recv_done"] = comm.now

    w.launch(program)
    assert times["send_done"] > 5.0
    assert times["recv_done"] >= times["send_done"]


def test_eager_sender_completes_before_receiver_posts():
    w = make_world(nprocs=4, eager_threshold=1 << 20)
    times = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(Payload.model(1000), dest=2)
            times["send_done"] = comm.now
        elif comm.rank == 2:
            yield from comm.proc.compute(5.0)
            payload = yield from comm.recv(source=0)
            times["recv_done"] = comm.now
            times["nbytes"] = payload.nbytes

    w.launch(program)
    assert times["send_done"] < 1.0
    assert times["recv_done"] == pytest.approx(5.0, rel=1e-6)
    assert times["nbytes"] == 1000


def test_isend_waitall():
    w = make_world(nprocs=4)
    got = []

    def program(comm):
        if comm.rank == 0:
            reqs = [comm.isend(i, dest=i, tag=0) for i in range(1, 4)]
            yield from comm.waitall(reqs)
        else:
            p = yield from comm.recv(source=0)
            got.append(p.data)

    w.launch(program)
    assert sorted(got) == [1, 2, 3]


def test_send_to_invalid_rank_raises():
    w = make_world(nprocs=2)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=5)

    with pytest.raises(MPIError):
        w.launch(program)


def test_model_payload_moves_no_data():
    w = make_world(nprocs=2)
    out = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(Payload.model(10_000), dest=1)
        else:
            p = yield from comm.recv(source=0)
            out["p"] = p

    w.launch(program)
    assert out["p"].is_model
    assert out["p"].nbytes == 10_000
    assert out["p"].data is None


def test_exchange_time_accounting():
    # ranks 0 and 2 sit on different nodes, so the wire latency applies
    w = make_world(nprocs=4, latency=1e-3, bandwidth=1e6)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(Payload.model(1000), dest=2, category="exchange")
        elif comm.rank == 2:
            yield from comm.recv(source=0, category="exchange")

    w.launch(program)
    # receiver waited for latency + transfer: must be accounted
    assert w.procs[2].breakdown.get("exchange") > 1e-3


def test_pingpong_measures_configured_latency_and_bandwidth():
    # two ranks on distinct nodes: a zero-byte one-way trip costs about
    # the overheads plus the wire latency, and 1 MiB adds size/bandwidth
    params = NetworkParams(latency=5e-6, bandwidth=2e9,
                           send_overhead=1e-6, recv_overhead=1e-6)

    def one_way(nbytes, reps=10):
        w = World(MachineConfig(nprocs=2, cores_per_node=1),
                  net_params=params)
        out = {}

        def program(comm):
            peer = 1 - comm.rank
            t0 = comm.now
            for _ in range(reps):
                if comm.rank == 0:
                    yield from comm.send(Payload.model(nbytes), dest=peer)
                    yield from comm.recv(source=peer)
                else:
                    yield from comm.recv(source=peer)
                    yield from comm.send(Payload.model(nbytes), dest=peer)
            out[comm.rank] = (comm.now - t0) / (2 * reps)

        w.launch(program)
        return out[0]

    small, big = one_way(0), one_way(1 << 20)
    assert small == pytest.approx(7e-6, rel=0.3)
    assert (1 << 20) / (big - small) == pytest.approx(2e9, rel=0.3)


def test_self_send_with_isend():
    w = make_world(nprocs=2)
    out = {}

    def program(comm):
        if comm.rank == 0:
            req = comm.isend("self", dest=0, tag=3)
            p = yield from comm.recv(source=0, tag=3)
            yield from req.wait()
            out["v"] = p.data
        else:
            return
            yield  # pragma: no cover

    w.launch(program)
    assert out["v"] == "self"


def test_unawaited_eager_send_costs_one_heap_push():
    # the delivery is the message's only heap entry: the sender's
    # completion is pushed only if someone waits on it before it passes
    w = make_world(nprocs=4)
    got = {}

    def program(comm):
        if comm.rank == 0:
            comm.isend(b"x", dest=2, nbytes=8)
        elif comm.rank == 2:
            got["data"] = (yield from comm.recv(source=0)).data
        if False:
            yield

    w.launch(program)
    assert got["data"] == b"x"
    assert w.engine.heap_pushes == 1


def _eager_free_time():
    """Virtual time at which rank 0's first eager 8-byte send to rank 2
    completes on a fresh :func:`make_world`."""
    w = make_world(nprocs=4)
    out = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x", dest=2, nbytes=8)
            out["t"] = comm.now
        elif comm.rank == 2:
            yield from comm.recv(source=0)

    w.launch(program)
    return out["t"]


def test_request_complete_turns_true_at_its_slot():
    t_free = _eager_free_time()
    assert t_free > 0.0
    w = make_world(nprocs=4)
    eng = w.engine
    seen = []
    box = []

    def check(label):
        return lambda: seen.append((label, box[0].complete))

    def program(comm):
        if comm.rank == 0:
            # scheduled before the send: same time, an earlier slot
            eng.call_at(t_free, check("earlier slot"))
            box.append(comm.isend(b"x", dest=2, nbytes=8))
            seen.append(("issued", box[0].complete))
            eng.call_at(t_free / 2, check("before"))
            eng.call_at(t_free, check("later slot"))
        elif comm.rank == 2:
            yield from comm.recv(source=0)
        if False:
            yield

    w.launch(program)
    assert seen == [("issued", False), ("before", False),
                    ("earlier slot", False), ("later slot", True)]
