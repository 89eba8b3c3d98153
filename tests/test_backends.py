"""Collective-fidelity backends: spec parsing, per-communicator scope
selection, and the one-path-per-call regression guard."""

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError, MPIIOError, ParCollError
from repro.datatypes import BYTE, Vector
from repro.simmpi import World, resolve_backend
from repro.simmpi.backends import BACKEND_NAMES
from repro.simmpi.world import Communicator
from tests.conftest import Stack, rank_pattern

ALL_MODES = ("analytic", "detailed", "macro")


def make_world(nprocs=8, mode="analytic"):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=2),
                 net_params=NetworkParams(), collective_mode=mode)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert BACKEND_NAMES == ("analytic", "detailed", "macro", "scoped")
    for name in BACKEND_NAMES:
        assert resolve_backend(name).describe().partition(":")[0] == name


def test_unknown_backend_error_lists_registered():
    with pytest.raises(MPIError) as exc:
        resolve_backend("telepathic")
    msg = str(exc.value)
    for name in BACKEND_NAMES:
        assert name in msg


def test_world_rejects_unknown_mode():
    with pytest.raises(MPIError):
        make_world(4, "telepathic")


def test_leaf_backends_reject_options():
    with pytest.raises(MPIError):
        resolve_backend("analytic:sync=detailed")


@pytest.mark.parametrize("spec", [
    "scoped:world=banana",         # unknown fidelity
    "scoped:world",                # missing '='
    "scoped:default=scoped",       # scoped is not a leaf fidelity
    "scoped:=analytic",            # empty key
    "scoped:planet=analytic",      # scoped takes only world/default
    "scoped:world=hybrid",         # hybrid is not a fidelity
    "hybrid",                      # hybrid is not a backend
    "",                            # no backend name
])
def test_backend_spec_parse_errors(spec):
    with pytest.raises(MPIError):
        resolve_backend(spec)


@pytest.mark.parametrize("spec, canonical", [
    ("analytic", "analytic"),
    ("detailed", "detailed"),
    ("macro", "macro"),
    ("scoped", "scoped:world=analytic,default=macro"),
    ("scoped:default=detailed", "scoped:world=analytic,default=detailed"),
    ("scoped: world = detailed , default=analytic",
     "scoped:world=detailed,default=analytic"),
    ("scoped:world=detailed,default=detailed", "detailed"),
])
def test_describe_is_canonical(spec, canonical):
    assert resolve_backend(spec).describe() == canonical
    assert resolve_backend(canonical).describe() == canonical


def test_hybrid_describe_is_canonical_and_round_trips():
    # A per-category hybrid spec no longer resolves; the scoped specs that
    # took the hybrid combos' place in the differential grid describe
    # canonically and round-trip.
    with pytest.raises(MPIError):
        resolve_backend("hybrid:io=detailed,sync=analytic")
    for spec in ("scoped:world=analytic,default=macro",
                 "scoped:world=macro,default=detailed",
                 "scoped:default=detailed"):
        canonical = resolve_backend(spec).describe()
        assert canonical.startswith("scoped:")
        assert resolve_backend(canonical).describe() == canonical


def test_world_collective_mode_property():
    for mode in ALL_MODES:
        assert make_world(2, mode).collective_mode == mode
    w = make_world(2, "scoped:default=detailed")
    assert w.collective_mode == "scoped:world=analytic,default=detailed"


def test_resolve_backend_instance_passthrough():
    b = resolve_backend("scoped:world=analytic,default=detailed")
    assert resolve_backend(b) is b
    assert b.world == "analytic"
    assert b.default == "detailed"


# ----------------------------------------------------------------------
# scope selection: the world communicator takes 'world', every
# communicator derived from it takes 'default'
# ----------------------------------------------------------------------
def _world_collectives(comm):
    yield from comm.barrier()
    yield from comm.allreduce(comm.rank)
    yield from comm.split(color=comm.rank // 4)
    yield from comm.split(color=comm.rank // 2)
    yield from comm.barrier()


def _nested_splits(comm, subgroup_barriers):
    """A split of the world and a split of that split, optionally with
    one barrier on each; returns the three fidelities."""
    sub = yield from comm.split(color=comm.rank // 4)
    inner = yield from sub.split(color=sub.rank // 2)
    if subgroup_barriers:
        yield from sub.barrier()
        yield from inner.barrier()
    return comm.desc.fidelity, sub.desc.fidelity, inner.desc.fidelity


def _scoped_run(spec, program):
    w = make_world(8, spec)
    results = w.launch(program)
    return set(results), w.network.messages_sent


def test_scope_selects_fidelity_two_levels_deep():
    spec = "scoped:world=analytic,default=detailed"
    _, sent = _scoped_run(spec, _world_collectives)
    assert sent == 0
    fids, bare = _scoped_run(spec, lambda c: _nested_splits(c, False))
    assert fids == {("analytic", "detailed", "detailed")}
    _, with_barriers = _scoped_run(spec, lambda c: _nested_splits(c, True))
    assert with_barriers > bare

    swapped = "scoped:world=detailed,default=analytic"
    fids, bare = _scoped_run(swapped, lambda c: _nested_splits(c, False))
    assert fids == {("detailed", "analytic", "analytic")}
    assert bare > 0  # the world split's allgather
    _, with_barriers = _scoped_run(swapped,
                                   lambda c: _nested_splits(c, True))
    assert with_barriers == bare


def _collective_storm(comm, category):
    yield from comm.barrier(category=category)
    yield from comm.allreduce(comm.rank, category=category)
    yield from comm.allgather(comm.rank, category=category)


def test_collectives_charge_the_callers_category():
    w = make_world(8, "detailed")
    w.launch(lambda comm: _collective_storm(comm, "exchange"))
    assert w.network.messages_sent > 0
    for p in w.procs:
        assert p.breakdown.get("exchange") > 0
        assert p.breakdown.get("sync") == 0


# ----------------------------------------------------------------------
# regression: exactly one execution path constructed per collective call
# ----------------------------------------------------------------------
def _count_paths(monkeypatch, mode, nprocs=4):
    from repro.simmpi import collectives_detailed as detailed

    counts = {"analytic": 0, "detailed": 0}
    real_site = Communicator._analytic_site
    real_allreduce = detailed.allreduce

    def counting_site(self, *a, **kw):
        counts["analytic"] += 1
        return real_site(self, *a, **kw)

    def counting_allreduce(*a, **kw):
        counts["detailed"] += 1
        return real_allreduce(*a, **kw)

    monkeypatch.setattr(Communicator, "_analytic_site", counting_site)
    monkeypatch.setattr(detailed, "allreduce", counting_allreduce)

    w = make_world(nprocs, mode)

    def program(comm):
        yield from comm.allreduce(comm.rank)

    w.launch(program)
    return counts


def test_analytic_mode_never_constructs_detailed_path(monkeypatch):
    counts = _count_paths(monkeypatch, "analytic")
    assert counts["analytic"] == 4   # one site entry per rank
    assert counts["detailed"] == 0


def test_detailed_mode_never_constructs_analytic_path(monkeypatch):
    counts = _count_paths(monkeypatch, "detailed")
    assert counts["detailed"] == 4
    assert counts["analytic"] == 0


def test_analytic_collectives_produce_no_network_traffic():
    w = make_world(8, "analytic")

    def program(comm):
        yield from comm.barrier()
        yield from comm.allreduce(comm.rank)
        yield from comm.allgather(comm.rank)

    w.launch(program)
    assert w.network.messages_sent == 0


# ----------------------------------------------------------------------
# three-way equivalence: data movement and first-order timing
# ----------------------------------------------------------------------
def _run_tileio(mode):
    st = Stack(nprocs=8, collective_mode=mode)
    block = 512

    def program(comm, io):
        f = yield from io.open(comm, "eq", hints={
            "protocol": "ext2ph", "cb_buffer_size": 1024})
        yield from f.write_at_all(comm.rank * block,
                                  rank_pattern(comm.rank, block))
        got = yield from f.read_at_all(comm.rank * block, block)
        yield from f.close()
        return got

    reads = st.run(program)
    return st.file_bytes("eq"), reads, st.world.engine.now


def test_backends_agree_on_data_movement():
    ref_bytes, ref_reads, _ = _run_tileio("analytic")
    for mode in ALL_MODES[1:]:
        got_bytes, got_reads, _ = _run_tileio(mode)
        np.testing.assert_array_equal(got_bytes, ref_bytes)
        for a, b in zip(ref_reads, got_reads):
            np.testing.assert_array_equal(a, b)


def test_backends_agree_on_first_order_time():
    """The analytic costs are calibrated to the detailed schedules, so
    end-to-end times agree within a small factor across backends."""
    times = {m: _run_tileio(m)[2] for m in ALL_MODES}
    t_det = times["detailed"]
    assert t_det > 0
    for mode, t in times.items():
        assert 0.5 < t / t_det < 2.0, (mode, t, t_det)


# ----------------------------------------------------------------------
# parcoll replan guard: stationarity contract under replan='once'
# ----------------------------------------------------------------------
def _fragmented_program(comm, io, replan, second_view):
    # rank r owns two 16-byte blocks inside its private 64-byte band:
    # fragmented per rank, rank-monotone overall -> a *direct* plan
    f = yield from io.open(comm, "frag", hints={
        "protocol": "parcoll", "parcoll_ngroups": 2,
        "parcoll_replan": replan})
    f.set_view(comm.rank * 64, BYTE, Vector(2, 16, 32, BYTE))
    yield from f.write_at_all(0, rank_pattern(comm.rank, 32))
    if second_view is not None:
        f.set_view(comm.rank * 64, BYTE, second_view)
        yield from f.write_at_all(0, rank_pattern(comm.rank, 16))
    yield from f.close()


def test_replan_once_rejects_fragmented_extent_drift():
    st = Stack(nprocs=4)
    with pytest.raises(ParCollError, match="non-contiguous access changed"):
        st.run(lambda comm, io: _fragmented_program(
            comm, io, "once", Vector(2, 8, 32, BYTE)))


def _interleaved_program(comm, io, replan):
    # rank r owns every 4th 16-byte block: without intermediate views
    # the overlapping extents collapse the plan to one direct group
    f = yield from io.open(comm, "ilv", hints={
        "protocol": "parcoll", "parcoll_ngroups": 2,
        "parcoll_intermediate_views": False, "parcoll_replan": replan})
    f.set_view(comm.rank * 16, BYTE, Vector(4, 16, 64, BYTE))
    yield from f.write_all(rank_pattern(comm.rank, 64))
    # the second access moves and shrinks every rank's extents
    f.set_view(256 + comm.rank * 8, BYTE, Vector(3, 8, 32, BYTE))
    yield from f.write_all(rank_pattern(comm.rank + 4, 24))
    yield from f.close()


def test_replan_once_reuses_a_single_group_plan_across_extent_drift():
    got = {}
    for replan in ("once", "always"):
        st = Stack(nprocs=4)
        st.run(lambda comm, io: _interleaved_program(comm, io, replan))
        got[replan] = st.file_bytes("ilv")
    np.testing.assert_array_equal(got["once"], got["always"])
    assert got["once"].size == 256 + 3 * 32
    for r in range(4):
        second = rank_pattern(r + 4, 24)
        for k in range(3):
            lo = 256 + r * 8 + k * 32
            np.testing.assert_array_equal(got["once"][lo:lo + 8],
                                          second[k * 8:(k + 1) * 8])


def test_replan_always_allows_extent_drift():
    st = Stack(nprocs=4)
    st.run(lambda comm, io: _fragmented_program(
        comm, io, "always", Vector(2, 8, 32, BYTE)))
    got = st.file_bytes("frag")
    # second (8-byte-block) write overlays the first within each band
    for r in range(4):
        band = got[r * 64:r * 64 + 48]
        second = rank_pattern(r, 16)
        np.testing.assert_array_equal(band[0:8], second[0:8])
        np.testing.assert_array_equal(band[32:40], second[8:16])


def test_replan_once_allows_contiguous_drift():
    """Flash-style: successive contiguous datasets at moving offsets and
    sizes reuse the cached grouping (the rank-monotone contract)."""
    st = Stack(nprocs=4)

    def program(comm, io):
        f = yield from io.open(comm, "contig", hints={
            "protocol": "parcoll", "parcoll_ngroups": 2,
            "parcoll_replan": "once"})
        yield from f.write_at_all(comm.rank * 100,
                                  rank_pattern(comm.rank, 100))
        yield from f.write_at_all(400 + comm.rank * 50,
                                  rank_pattern(comm.rank + 1, 50))
        yield from f.close()

    st.run(program)
    got = st.file_bytes("contig")
    for r in range(4):
        np.testing.assert_array_equal(got[r * 100:(r + 1) * 100],
                                      rank_pattern(r, 100))
        np.testing.assert_array_equal(got[400 + r * 50:400 + (r + 1) * 50],
                                      rank_pattern(r + 1, 50))


def test_replan_auto_replans_on_fragmented_extent_drift():
    """'auto' converts the 'once' stationarity error into a global
    re-plan and produces exactly the bytes 'always' produces."""
    st_auto = Stack(nprocs=4)
    st_auto.run(lambda comm, io: _fragmented_program(
        comm, io, "auto", Vector(2, 8, 32, BYTE)))
    st_always = Stack(nprocs=4)
    st_always.run(lambda comm, io: _fragmented_program(
        comm, io, "always", Vector(2, 8, 32, BYTE)))
    np.testing.assert_array_equal(st_auto.file_bytes("frag"),
                                  st_always.file_bytes("frag"))


def test_replan_auto_reuses_plan_for_stationary_pattern():
    """While the pattern holds, 'auto' skips the extent allgather and
    regrouping — the repeated call costs less than under 'always'."""
    def program(replan):
        def run(comm, io):
            f = yield from io.open(comm, "rep", hints={
                "protocol": "parcoll", "parcoll_ngroups": 2,
                "parcoll_replan": replan})
            f.set_view(comm.rank * 64, BYTE, Vector(2, 16, 32, BYTE))
            for _ in range(6):  # same fragmented view every call
                yield from f.write_at_all(0, rank_pattern(comm.rank, 32))
            yield from f.close()
        return run

    elapsed = {}
    payload = {}
    for replan in ("auto", "always", "once"):
        st = Stack(nprocs=4)
        st.run(program(replan))
        elapsed[replan] = st.world.engine.now
        payload[replan] = st.file_bytes("rep")
    np.testing.assert_array_equal(payload["auto"], payload["always"])
    np.testing.assert_array_equal(payload["auto"], payload["once"])
    # auto pays one tiny agreement allreduce per call but skips the
    # allgather + split; it must stay cheaper than full replanning
    # (no ordering vs 'once': drifted subgroups change OST contention)
    assert elapsed["auto"] < elapsed["always"]


def test_hints_reject_unknown_replan_mode():
    from repro.mpiio.hints import IOHints

    with pytest.raises(MPIIOError, match="parcoll_replan"):
        IOHints(parcoll_replan="never")
