"""Transport protocol internals: eager/rendezvous boundary, NIC accounting,
mailbox behaviour, request states."""

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MachineConfig, NetworkParams
from repro.sim import Engine, Event
from repro.simmpi import Payload, World
from repro.simmpi.p2p import Mailbox, RTS_BYTES


def make_world(threshold, nprocs=4):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=1),
                 net_params=NetworkParams(eager_threshold=threshold))


class TestEagerRendezvousBoundary:
    def run_send(self, nbytes, threshold):
        w = make_world(threshold)
        out = {}

        def program(comm):
            if comm.rank == 0:
                t0 = comm.now
                yield from comm.send(Payload.model(nbytes), dest=1)
                out["send_done"] = comm.now - t0
            elif comm.rank == 1:
                yield from comm.proc.compute(1.0)  # receiver late
                yield from comm.recv(source=0)

        w.launch(program)
        return w, out

    def test_at_threshold_is_eager(self):
        _, out = self.run_send(nbytes=1024, threshold=1024)
        assert out["send_done"] < 0.5  # did not wait for the receiver

    def test_above_threshold_is_rendezvous(self):
        _, out = self.run_send(nbytes=1025, threshold=1024)
        assert out["send_done"] >= 1.0  # waited for the late receiver

    def test_rendezvous_header_bytes_on_wire(self):
        w, _ = self.run_send(nbytes=10_000, threshold=1024)
        # RTS header + payload both crossed the network
        assert w.network.bytes_sent == RTS_BYTES + 10_000

    def test_eager_counts_payload_once(self):
        w, _ = self.run_send(nbytes=100, threshold=1024)
        assert w.network.bytes_sent == 100


class TestRequestStates:
    def test_isend_request_completes(self):
        w = make_world(1 << 20, nprocs=2)
        states = {}

        def program(comm):
            if comm.rank == 0:
                req = comm.isend("x", dest=1)
                states["before"] = req.complete
                yield from req.wait()
                states["after"] = req.complete
            else:
                yield from comm.recv(source=0)

        w.launch(program)
        assert states["after"] is True

    def test_waitall_returns_in_request_order(self):
        w = make_world(1 << 20, nprocs=3)
        got = {}

        def program(comm):
            if comm.rank == 0:
                r2 = comm.irecv(source=2)
                r1 = comm.irecv(source=1)
                vals = yield from comm.waitall([r2, r1])
                got["vals"] = [payload.data for payload in vals]
            else:
                yield from comm.proc.compute(0.1 * comm.rank)
                yield from comm.send(f"from{comm.rank}", dest=0)

        w.launch(program)
        assert got["vals"] == ["from2", "from1"]


def _early_message(seq=1):
    """What an eager message sent before its receive waits on its key
    as: its arrival slot, carrying the payload."""
    return (1.0, seq, Payload.model(4))


class TestMailbox:
    def recv(self):
        return Event(Engine(), "e")

    def test_match_posted_in_post_order(self):
        mb = Mailbox()
        a, b = self.recv(), self.recv()
        mb.add_posted((0, 1, 5), a)
        mb.add_posted((0, 1, 5), b)
        matched = mb.match_posted((0, 1, 5))
        assert matched is a  # first posted wins

    def test_context_isolation(self):
        mb = Mailbox()
        mb.add_posted((1, 1, 5), self.recv())
        assert mb.match_posted((0, 1, 5)) is None

    def test_unexpected_in_arrival_order(self):
        # messages match in send order, which is the order they join
        # their key's queue, whenever each arrives
        mb = Mailbox()
        m1, m2 = _early_message(1), _early_message(2)
        mb.add_unexpected((0, 1, 7), m1)
        mb.add_unexpected((0, 1, 7), m2)
        got = mb.match_unexpected((0, 1, 7))
        assert got is m1


class ReferenceMailbox:
    """MPI matching by linear scan over one ordered list per queue."""

    def __init__(self):
        self.posted: list[tuple] = []
        self.unexpected: list[tuple] = []
        self.exact_matches = 0

    def _take(self, queue, key):
        for i, (k, item) in enumerate(queue):
            if k == key:
                del queue[i]
                self.exact_matches += 1
                return item
        return None

    def match_posted(self, key):
        return self._take(self.posted, key)

    def match_unexpected(self, key):
        return self._take(self.unexpected, key)


def _queued(queues) -> int:
    return sum(len(v) if isinstance(v, deque) else 1
               for v in queues.values())


# 2 contexts x 3 sources x 2 tags
_ctx = st.integers(0, 1)
_src = st.integers(0, 2)
_tag = st.integers(0, 1)
mailbox_ops = st.lists(st.tuples(
    st.sampled_from(["post", "send", "match_posted", "match_unexpected"]),
    _ctx, _src, _tag), max_size=80)


@settings(max_examples=200)
@given(mailbox_ops)
def test_mailbox_matches_linear_scan_reference(ops):
    """Same matched objects and counters as MPI's linear-scan rules:
    receives in post order, messages in send order."""
    engine = Engine()
    mb, ref = Mailbox(), ReferenceMailbox()
    for op, ctx, src, tag in ops:
        key = (ctx, src, tag)
        if op == "post":
            recv = Event(engine, "e")
            mb.add_posted(key, recv)
            ref.posted.append((key, recv))
        elif op == "send":
            msg = _early_message(len(ref.unexpected))
            mb.add_unexpected(key, msg)
            ref.unexpected.append((key, msg))
        elif op == "match_posted":
            assert mb.match_posted(key) is ref.match_posted(key)
        else:
            assert mb.match_unexpected(key) is ref.match_unexpected(key)
        assert _queued(mb.posted) == len(ref.posted)
        assert _queued(mb.unexpected) == len(ref.unexpected)
        assert mb.exact_matches == ref.exact_matches


class TestMailboxSlots:
    """A key's value is its one entry, a deque from the second, and gone
    once the deque empties."""

    def test_posted_slot_grows_to_deque_and_empties(self):
        engine = Engine()
        mb = Mailbox()
        recvs = [Event(engine, "e") for _ in range(3)]
        mb.add_posted((0, 1, 5), recvs[0])
        assert mb.posted[(0, 1, 5)] is recvs[0]
        mb.add_posted((0, 1, 5), recvs[1])
        mb.add_posted((0, 1, 5), recvs[2])
        assert list(mb.posted[(0, 1, 5)]) == recvs
        assert [mb.match_posted((0, 1, 5)) for _ in range(3)] == recvs
        assert mb.posted == {}
        assert mb.match_posted((0, 1, 5)) is None

    def test_unexpected_slot_grows_to_deque_and_empties(self):
        mb = Mailbox()
        msgs = [_early_message(i) for i in range(3)]
        mb.add_unexpected((0, 1, 5), msgs[0])
        assert mb.unexpected[(0, 1, 5)] is msgs[0]
        mb.add_unexpected((0, 1, 5), msgs[1])
        assert isinstance(mb.unexpected[(0, 1, 5)], deque)
        mb.add_unexpected((0, 1, 5), msgs[2])
        got = [mb.match_unexpected((0, 1, 5)),
               mb.match_unexpected((0, 1, 5)),
               mb.match_unexpected((0, 1, 5))]
        assert got == msgs
        assert all(a is b for a, b in zip(got, msgs))
        assert mb.unexpected == {}


def _bytes_per_add(add, items) -> float:
    """Traced bytes the mailbox keeps per ``add(tag, item)``; the key
    tuple is built inside the measured loop, as a send or receive
    builds it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tag, item in items:
            add((0, 1, tag), item)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / len(items)


class TestMailboxMemory:
    """A fresh key costs its dict entry and key tuple, not a deque."""

    N = 20_000

    def test_posted_receive_on_fresh_key(self):
        engine = Engine()
        mb = Mailbox()
        recvs = [(1000 + i, Event(engine, "e")) for i in range(self.N)]
        per = _bytes_per_add(mb.add_posted, recvs)
        assert per < 200, f"{per:.0f} B per posted receive"

    def test_early_message_on_fresh_key(self):
        mb = Mailbox()
        msgs = [(1000 + i, _early_message(i)) for i in range(self.N)]
        per = _bytes_per_add(mb.add_unexpected, msgs)
        assert per < 250, f"{per:.0f} B per early message"


class TestNicAccounting:
    def test_incast_to_one_receiver_serializes(self):
        """Many senders to one rank: the receiver NIC paces arrivals."""
        w = World(MachineConfig(nprocs=5, cores_per_node=1),
                  net_params=NetworkParams(bandwidth=1e6, latency=0.0,
                                           send_overhead=0.0,
                                           recv_overhead=0.0,
                                           eager_threshold=1 << 30))
        arrive = {}

        def watch(comm, source, req):
            yield req.event
            arrive[source] = comm.now

        def program(comm):
            if comm.rank == 0:
                # one receive per sender, each timed by its own waiter
                for s in range(1, 5):
                    comm.engine.spawn(watch(comm, s, comm.irecv(source=s)))
            else:
                yield from comm.send(Payload.model(1_000_000), dest=0)

        w.launch(program)
        assert sorted(arrive) == [1, 2, 3, 4]
        times = sorted(arrive.values())
        # 1 MB at 1 MB/s each, serialized at the receiver: ~1s apart
        for i in range(1, 4):
            assert times[i] - times[i - 1] >= 0.9
