"""scatter in both modes, plus edge cases."""

import pytest

from repro.cluster import MachineConfig
from repro.errors import MPIError
from repro.simmpi import World

MODES = ("analytic", "detailed")
SIZES = (1, 2, 3, 4, 7, 8)


def make_world(p, mode):
    return World(MachineConfig(nprocs=p, cores_per_node=2),
                 collective_mode=mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_scatter_delivers_slices(mode, p, root):
    root = 0 if root == 0 else p - 1
    w = make_world(p, mode)
    got = {}

    def program(comm):
        values = [f"v{i}" for i in range(p)] if comm.rank == root else None
        out = yield from comm.scatter(values, root=root)
        got[comm.rank] = out

    w.launch(program)
    assert got == {r: f"v{r}" for r in range(p)}


@pytest.mark.parametrize("mode", MODES)
def test_scatter_root_without_values_raises(mode):
    w = make_world(2, mode)

    def program(comm):
        yield from comm.scatter(None, root=0)

    with pytest.raises((MPIError, ValueError)):
        w.launch(program)


@pytest.mark.parametrize("mode", MODES + ("macro",))
@pytest.mark.parametrize("root", ["size", -1])
def test_scatter_root_out_of_range_raises(mode, root):
    """Every fidelity rejects a root outside the group, before the op."""
    p = 4
    root = p if root == "size" else root
    w = make_world(p, mode)

    def program(comm):
        yield from comm.scatter(list(range(p)), root=root)

    with pytest.raises(MPIError, match=f"rank {root} out of range for "
                       f"communicator of size {p}"):
        w.launch(program)


@pytest.mark.parametrize("p", SIZES)
def test_modes_agree_on_scatter_results(p):
    results = {}
    for mode in MODES:
        w = make_world(p, mode)
        got = {}

        def program(comm):
            values = [i * i for i in range(p)] if comm.rank == 1 % p else None
            out = yield from comm.scatter(values, root=1 % p)
            got[comm.rank] = out

        w.launch(program)
        results[mode] = got
    assert results["analytic"] == results["detailed"]
