"""The macro backend's contract: bit-identical to detailed, far cheaper.

Every test here runs the same rank program twice — once under the
``detailed`` fidelity, once under ``macro`` — and compares *exactly*:
per-rank results and exit times, end-of-run clock, network counters, and
every NIC's ``busy_until``.  Float comparisons are ``==`` on purpose: the
macro walker must replay the identical IEEE arithmetic through the
identical FIFO reservation order, and the hot-path determinism gate
(``benchmarks/bench_hotpath.py``) depends on that holding at scale.

Coverage mirrors the acceptance grid: every coalescible collective kind
x eager/rendezvous sizes x arrival skew x node shapes, concurrent and
back-to-back rounds, subcommunicators, hybrid composition, per-handle
``with_backend`` overrides, NIC fault profiles, the declared fallbacks
(``gather``'s detailed schedule, size-1 comms, zero-latency networks),
and the mismatched-collective ledger error.
"""

from __future__ import annotations

import heapq
import tracemalloc

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError
from repro.perf import perf_counters
from repro.sim.effects import Sleep
from repro.sim.resources import ServiceProfile
from repro.simmpi import World
from repro.simmpi.collectives_macro import _Walker
from repro.simmpi.payload import Payload
from repro.simmpi.reduce_ops import SUM


def net_snapshot(world: World) -> dict:
    net = world.network
    return {
        "now": world.engine.now,
        "msgs": net.messages_sent,
        "bytes": net.bytes_sent,
        "xmsgs": net.cross_node_messages,
        "xbytes": net.cross_node_bytes,
        "tx": [r.busy_until for r in net.tx],
        "rx": [r.busy_until for r in net.rx],
    }


def norm(x):
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.tolist())
    if isinstance(x, (list, tuple)):
        return [norm(y) for y in x]
    return x


def run_world(mode: str, p: int, cpn: int, program, profile_nodes=(),
              **net_kw):
    world = World(MachineConfig(nprocs=p, cores_per_node=cpn),
                  collective_mode=mode,
                  net_params=NetworkParams(**net_kw))
    for node in profile_nodes:
        world.network.tx[node].profile = ServiceProfile(
            [(0.0, 1e-4, 0.25), (2e-4, 4e-4, 0.0)])
        world.network.rx[node].profile = ServiceProfile(
            [(1e-5, 3e-4, 0.5)])
    results = world.launch(program)
    return norm(results), net_snapshot(world)


def assert_macro_matches_detailed(p, cpn, program, profile_nodes=(),
                                  **net_kw):
    det = run_world("detailed", p, cpn, program,
                    profile_nodes=profile_nodes, **net_kw)
    mac = run_world("macro", p, cpn, program,
                    profile_nodes=profile_nodes, **net_kw)
    assert det[0] == mac[0], "per-rank results diverge"
    assert det[1] == mac[1], "virtual-time / NIC state diverges"


def grid_program(kind: str, p: int, nb, skew: float):
    def program(comm):
        r = comm.rank
        yield Sleep(skew * ((r * 7) % 5))
        if kind == "barrier":
            res = yield from comm.barrier()
        elif kind == "allgather":
            res = yield from comm.allgather(("v", r), nbytes=nb)
        elif kind == "allgather_none":
            res = yield from comm.allgather([r] * 3)
        elif kind == "alltoall":
            res = yield from comm.alltoall(list(range(p)), nbytes_each=nb)
        elif kind == "alltoall_np":
            res = yield from comm.alltoall(np.arange(p) * r)
        elif kind == "allreduce":
            res = yield from comm.allreduce(float(r + 1), op=SUM,
                                            nbytes=nb)
        elif kind == "gather":
            # a collective without a macro replay: it runs its
            # detailed schedule, next to walker rounds
            res = yield from comm.gather(("v", r), root=p - 1, nbytes=nb)
        else:
            raise AssertionError(kind)
        # trailing round: laggards of the round above are still walking
        # while early ranks enter here, so cross-round ordering matters
        res2 = yield from comm.allreduce(r * 2 + 1, op=SUM, nbytes=8)
        return comm.now, res, res2

    return program


KINDS = ["barrier", "allgather", "allgather_none", "alltoall",
         "alltoall_np", "allreduce", "gather"]


@pytest.mark.parametrize("p,cpn", [(2, 1), (5, 2), (8, 4), (13, 4)])
@pytest.mark.parametrize("kind", KINDS)
def test_grid_eager_with_skew(p, cpn, kind):
    assert_macro_matches_detailed(p, cpn, grid_program(kind, p, 8, 3e-4))


def ragged_program(kind: str, p: int, skew: float):
    """Message sizes that differ per origin (and destination) and
    straddle the 64 KiB eager threshold: the walker resolves each step's
    size only when it issues that step."""
    def program(comm):
        r = comm.rank
        yield Sleep(skew * ((r * 7) % 5))
        if kind == "allgather":
            res = yield from comm.allgather(Payload(1000 + 40000 * r, r))
            # each rank's own entry is its own Payload object
            res = [x.data if isinstance(x, Payload) else x for x in res]
        elif kind == "alltoall":
            res = yield from comm.alltoall(
                [np.full(1000 + 30000 * ((r + 2 * d) % 4), r, np.uint8)
                 for d in range(p)])
        elif kind == "gather":
            res = yield from comm.gather(
                np.full(100 + 2500 * r, r, np.int64), root=p // 2)
        else:
            raise AssertionError(kind)
        res2 = yield from comm.allreduce(r * 2 + 1, op=SUM, nbytes=8)
        return comm.now, res, res2

    return program


@pytest.mark.parametrize("eager", [65536, 0])
@pytest.mark.parametrize("p,cpn,skew", [(3, 1, 0.0), (7, 3, 3e-4),
                                        (8, 4, 0.0)])
@pytest.mark.parametrize("kind", ["allgather", "alltoall", "gather"])
def test_grid_ragged_sizes(kind, p, cpn, skew, eager):
    assert_macro_matches_detailed(p, cpn, ragged_program(kind, p, skew),
                                  eager_threshold=eager)


@pytest.mark.parametrize("kind", ["allgather", "alltoall"])
def test_round_memory_is_linear_in_ranks(kind):
    # one world-sized round keeps O(P) walker state: the steps are
    # computed when issued, not stored as P - 1 tuples per rank
    p = 256

    def program(comm):
        if kind == "allgather":
            yield from comm.allgather(comm.rank, nbytes=8)
        else:
            yield from comm.alltoall(list(range(p)), nbytes_each=8)

    world = World(MachineConfig(nprocs=p, cores_per_node=4),
                  collective_mode="macro", net_params=NetworkParams())
    rounds = perf_counters.macro_rounds
    tracemalloc.start()
    try:
        world.launch(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert perf_counters.macro_rounds == rounds + 1
    per_pair = peak / (p * (p - 1))
    assert per_pair < 64, f"{per_pair:.0f} B of peak per rank pair"


@pytest.mark.parametrize("kind", ["allgather", "alltoall", "allreduce",
                                  "gather"])
@pytest.mark.parametrize("nb", [4096, 200000])
def test_grid_rendezvous_sizes(kind, nb):
    # 200000 bytes is far past the eager threshold: the walker must
    # replay the header/CTS/data rendezvous protocol, not just eager
    assert_macro_matches_detailed(7, 3, grid_program(kind, 7, nb, 0.0))
    assert_macro_matches_detailed(8, 4, grid_program(kind, 8, nb, 3e-4))


def test_back_to_back_mixed_rounds():
    def program(comm):
        r = comm.rank
        yield from comm.barrier()
        a = yield from comm.allgather(r, nbytes=4096)
        b = yield from comm.alltoall(list(range(comm.size)),
                                     nbytes_each=64)
        yield Sleep(1e-6 * r)
        c = yield from comm.allreduce(r, op=SUM)
        return comm.now, a, b, c

    assert_macro_matches_detailed(8, 4, program)


def test_disjoint_subcommunicators_overlap():
    def program(comm):
        r = comm.rank
        sub = yield from comm.split(color=r % 2, key=r)
        yield Sleep(2e-4 * (r % 3))
        a = yield from sub.allgather(r, nbytes=512)
        b = yield from comm.allreduce(r, op=SUM, nbytes=8)
        return comm.now, a, b

    assert_macro_matches_detailed(8, 2, program)


def test_nic_fault_profiles_replay_bit_identically():
    # piecewise-degraded and stalled NICs exercise the profiled
    # reserve_span path inside the walker's transfer replica
    assert_macro_matches_detailed(
        6, 2, grid_program("alltoall", 6, 256, 3e-4),
        profile_nodes=(0, 1))


def test_hybrid_sync_macro_matches_detailed():
    prog = grid_program("allreduce", 6, 8, 3e-4)
    det = run_world("detailed", 6, 2, prog)
    hyb = run_world("hybrid:sync=macro,default=detailed", 6, 2, prog)
    assert det == hyb


def test_macro_matches_detailed_across_eager_threshold():
    # a macro world must agree with detailed even when the workload
    # straddles the eager threshold in both directions
    def program(comm):
        a = yield from comm.allgather(comm.rank, nbytes=64)
        b = yield from comm.allgather(comm.rank, nbytes=1 << 16)
        return comm.now, a, b

    assert_macro_matches_detailed(6, 3, program)


def test_with_backend_per_handle_override():
    def make(mode):
        def program(comm):
            fast = comm.with_backend(mode)
            a = yield from fast.allreduce(comm.rank, op=SUM, nbytes=8)
            b = yield from comm.allgather(comm.rank, nbytes=8)
            return comm.now, a, b

        return program

    det = run_world("detailed", 6, 2, make("detailed"))
    mac = run_world("detailed", 6, 2, make("macro"))
    assert det == mac


def test_size_one_comm_falls_back():
    def program(comm):
        sub = yield from comm.split(color=comm.rank, key=0)
        a = yield from sub.allreduce(comm.rank, op=SUM)
        b = yield from comm.barrier()
        return comm.now, a, b

    assert_macro_matches_detailed(4, 2, program)


def test_zero_latency_network_falls_back():
    # latency == 0 breaks the walker's usability precondition; macro
    # must detect it and run the detailed per-message path
    assert_macro_matches_detailed(5, 2,
                                  grid_program("allgather", 5, 8, 0.0),
                                  latency=0.0)


def test_mismatched_collectives_raise():
    def program(comm):
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.allgather(comm.rank)

    world = World(MachineConfig(nprocs=2, cores_per_node=2),
                  collective_mode="macro",
                  net_params=NetworkParams())
    with pytest.raises(MPIError):
        world.launch(program)


@pytest.mark.parametrize("seed", range(5))
def test_wake_seq_is_lowest_seq_at_wake_time(seed):
    # the wake must order before every entry it will requeue: with the
    # entries at its timestamp spread over the heap (phases mixed, later
    # timestamps interleaved), its seq is the lowest of theirs
    rng = np.random.default_rng(seed)
    world = World(MachineConfig(nprocs=2, cores_per_node=1),
                  collective_mode="macro", net_params=NetworkParams())
    walker = _Walker(world)
    eng = world.engine
    t0 = 1e-3
    seqs = rng.permutation(200).tolist()
    for i, seq in enumerate(seqs):
        t = t0 if i % 3 == 0 else t0 + 1e-6 * (i % 7 + 1)
        # low seqs in phase 1: the top is a phase-0 entry, not the lowest
        phase = 1 if seq < 100 else 0
        heapq.heappush(walker.heap, (t, phase, seq, 0, 0, None))
    due = [e[2] for e in walker.heap if e[0] == t0]
    lowest = min(due)
    assert walker.heap[0][2] != lowest, "the top already holds the lowest seq"
    # a foreign engine entry before t0 keeps the pump from walking ahead
    eng.call_at(t0 / 2, lambda: None)
    walker.pump()
    assert (walker.wake_at, walker.wake_seq) == (t0, lowest)
    assert (t0, lowest - 0.5) in [e[:2] for e in eng._heap]


def test_macro_counters_increment():
    before_rounds = perf_counters.macro_rounds
    before_msgs = perf_counters.messages_coalesced
    run_world("macro", 8, 4, grid_program("alltoall", 8, 64, 0.0))
    assert perf_counters.macro_rounds > before_rounds
    assert perf_counters.messages_coalesced > before_msgs


def test_macro_dispatches_fewer_events():
    def count_events(mode):
        world = World(MachineConfig(nprocs=16, cores_per_node=4),
                      collective_mode=mode,
                      net_params=NetworkParams())

        def program(comm):
            for _ in range(3):
                yield from comm.alltoall(list(range(comm.size)),
                                         nbytes_each=64)
            return comm.now

        det = world.launch(program)
        return det, world.engine.effects_dispatched

    det_res, det_events = count_events("detailed")
    mac_res, mac_events = count_events("macro")
    assert det_res == mac_res
    assert mac_events < det_events / 4
