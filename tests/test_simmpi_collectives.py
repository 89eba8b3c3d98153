"""Collective correctness in analytic and detailed modes, and agreement."""

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError
from repro.simmpi import MAX, SUM, World

MODES = ("analytic", "detailed")
SIZES = (1, 2, 3, 4, 7, 8)


def make_world(nprocs, mode):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=2),
                 net_params=NetworkParams(),
                 collective_mode=mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronizes(mode, p):
    w = make_world(p, mode)
    exits = {}

    def program(comm):
        # rank r works r seconds before the barrier
        yield from comm.proc.compute(float(comm.rank))
        yield from comm.barrier()
        exits[comm.rank] = comm.now

    w.launch(program)
    # nobody leaves before the slowest rank arrives
    assert all(t >= p - 1 for t in exits.values())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
def test_allreduce_max_and_min(mode, p):
    w = make_world(p, mode)
    got = {}

    def program(comm):
        got[comm.rank] = yield from comm.allreduce(comm.rank * 10, op=MAX)

    w.launch(program)
    assert got == {r: (p - 1) * 10 for r in range(p)}


@pytest.mark.parametrize("mode", MODES)
def test_allreduce_numpy_arrays(mode):
    p = 4
    w = make_world(p, mode)
    got = {}

    def program(comm):
        arr = np.full(8, comm.rank, dtype=np.int64)
        out = yield from comm.allreduce(arr, op=SUM)
        got[comm.rank] = out

    w.launch(program)
    for r in range(p):
        np.testing.assert_array_equal(got[r], np.full(8, 6))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
def test_gather_collects_in_rank_order(mode, p):
    w = make_world(p, mode)
    got = {}

    def program(comm):
        out = yield from comm.gather(f"r{comm.rank}", root=0)
        got[comm.rank] = out

    w.launch(program)
    assert got[0] == [f"r{r}" for r in range(p)]
    for r in range(1, p):
        assert got[r] is None


@pytest.mark.parametrize("mode", MODES + ("macro",))
@pytest.mark.parametrize("root", ["size", -1])
def test_gather_root_out_of_range_raises(mode, root):
    """Every fidelity rejects a root outside the group, before the op."""
    p = 4
    root = p if root == "size" else root
    w = make_world(p, mode)

    def program(comm):
        yield from comm.gather(comm.rank, root=root)

    with pytest.raises(MPIError, match=f"rank {root} out of range for "
                       f"communicator of size {p}"):
        w.launch(program)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
def test_allgather_everyone_gets_everything(mode, p):
    w = make_world(p, mode)
    got = {}

    def program(comm):
        out = yield from comm.allgather(comm.rank ** 2)
        got[comm.rank] = out

    w.launch(program)
    expected = [r ** 2 for r in range(p)]
    assert all(v == expected for v in got.values())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
def test_alltoall_transposes(mode, p):
    w = make_world(p, mode)
    got = {}

    def program(comm):
        values = [(comm.rank, dst) for dst in range(p)]
        out = yield from comm.alltoall(values)
        got[comm.rank] = out

    w.launch(program)
    for r in range(p):
        assert got[r] == [(src, r) for src in range(p)]


@pytest.mark.parametrize("mode", MODES)
def test_collectives_charge_sync_category(mode):
    w = make_world(4, mode)

    def program(comm):
        yield from comm.proc.compute(0.1 * comm.rank)
        yield from comm.barrier()

    w.launch(program)
    # rank 0 arrived first and waited ~0.3s: sync must be charged
    assert w.procs[0].breakdown.get("sync") >= 0.29


@pytest.mark.parametrize("p", [2, 4, 8])
def test_analytic_and_detailed_barrier_costs_agree(p):
    """Exit times of the two modes agree within a small factor.

    One core per node: the analytic model assumes inter-node messages, so
    co-located ranks (memcpy path) would make the comparison meaningless.
    """
    exits = {}
    for mode in MODES:
        w = World(MachineConfig(nprocs=p, cores_per_node=1),
                  collective_mode=mode)

        def program(comm):
            yield from comm.barrier()
            return comm.now

        results = w.launch(program)
        exits[mode] = max(results)

    assert exits["analytic"] <= exits["detailed"] * 3
    assert exits["detailed"] <= exits["analytic"] * 3


@pytest.mark.parametrize("p", [4, 8])
def test_analytic_and_detailed_allreduce_costs_agree(p):
    exits = {}
    payload = np.zeros(1024, dtype=np.int64)
    for mode in MODES:
        w = World(MachineConfig(nprocs=p, cores_per_node=1),
                  collective_mode=mode)

        def program(comm):
            yield from comm.allreduce(payload.copy(), op=SUM)
            return comm.now

        results = w.launch(program)
        exits[mode] = max(results)

    assert exits["analytic"] <= exits["detailed"] * 4
    assert exits["detailed"] <= exits["analytic"] * 4


@pytest.mark.parametrize("mode", MODES)
def test_collective_ordering_multiple_ops(mode):
    """Back-to-back collectives keep their values straight."""
    p = 5
    w = make_world(p, mode)
    got = {}

    def program(comm):
        a = yield from comm.allreduce(1, op=SUM)
        b = yield from comm.allgather(comm.rank)
        c = yield from comm.gather(f"r{comm.rank}", root=2)
        got[comm.rank] = (a, b, c)

    w.launch(program)
    for r in range(p):
        gathered = [f"r{q}" for q in range(p)] if r == 2 else None
        assert got[r] == (p, list(range(p)), gathered)
