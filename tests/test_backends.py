"""Collective-fidelity backends: spec parsing, hybrid mode, overrides,
and the one-path-per-call regression guard."""

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError, MPIIOError, ParCollError
from repro.datatypes import BYTE, Vector
from repro.simmpi import World, resolve_backend
from repro.simmpi.backends import BACKEND_NAMES
from repro.simmpi.world import Communicator
from tests.conftest import Stack, rank_pattern

ALL_MODES = ("analytic", "detailed", "hybrid:sync=analytic,default=detailed")


def make_world(nprocs=8, mode="analytic"):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=2),
                 net_params=NetworkParams(), collective_mode=mode)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert BACKEND_NAMES == ("analytic", "detailed", "hybrid", "macro",
                             "scoped")
    for name in BACKEND_NAMES:
        assert resolve_backend(name).name == name


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
    "hybrid:sync=banana",          # unknown fidelity
    "hybrid:sync",                 # missing '='
    "hybrid:default=hybrid",       # hybrid is not a leaf fidelity
    "hybrid:=analytic",            # empty category
    "scoped:world",                # missing '='
    "scoped:planet=analytic",      # scoped takes only world/default
    "scoped:world=hybrid",         # hybrid is not a leaf fidelity
    "",                            # no backend name
])
def test_backend_spec_parse_errors(spec):
    with pytest.raises(MPIError):
        resolve_backend(spec)


@pytest.mark.parametrize("spec, canonical", [
    ("analytic", "analytic"),
    ("detailed", "detailed"),
    ("macro", "macro"),
    ("hybrid", "hybrid:sync=analytic,default=detailed"),
    ("hybrid:io=detailed,sync=analytic",
     "hybrid:io=detailed,sync=analytic,default=detailed"),
    ("hybrid:default=analytic", "hybrid:default=analytic"),
    ("scoped", "scoped:world=analytic,default=macro"),
    ("scoped:default=detailed", "scoped:world=analytic,default=detailed"),
    ("scoped: world = detailed , default=analytic",
     "scoped:world=detailed,default=analytic"),
])
def test_describe_is_canonical(spec, canonical):
    assert resolve_backend(spec).describe() == canonical


def test_hybrid_describe_is_canonical_and_round_trips():
    for spec in ("hybrid:io=detailed,sync=analytic",
                 "scoped:default=detailed"):
        canonical = resolve_backend(spec).describe()
        assert canonical.startswith(spec.partition(":")[0] + ":")
        assert resolve_backend(canonical).describe() == canonical


def test_world_collective_mode_property():
    for mode in ("analytic", "detailed"):
        assert make_world(2, mode).collective_mode == mode
    w = make_world(2, "hybrid:sync=analytic,default=detailed")
    assert w.collective_mode.startswith("hybrid:")
    assert "sync=analytic" in w.collective_mode


def test_resolve_backend_instance_passthrough():
    b = resolve_backend("hybrid:sync=analytic,default=detailed")
    assert resolve_backend(b) is b
    assert b.fidelity("sync") == "analytic"
    assert b.fidelity("exchange") == "detailed"
    assert b.fidelity("io") == "detailed"


# ----------------------------------------------------------------------
# hybrid honors per-category fidelity (detailed p2p traffic only where
# the table says 'detailed')
# ----------------------------------------------------------------------
def _collective_storm(comm, category):
    yield from comm.barrier(category=category)
    yield from comm.allreduce(comm.rank, category=category)
    yield from comm.allgather(comm.rank, category=category)


def test_hybrid_analytic_categories_send_no_messages():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "sync"))
    assert w.network.messages_sent == 0


def test_hybrid_detailed_categories_send_messages():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "exchange"))
    assert w.network.messages_sent > 0


def test_hybrid_charges_the_callers_category():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "exchange"))
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
# backend overrides: with_backend, split inheritance, IOHints
# ----------------------------------------------------------------------
def test_with_backend_overrides_only_the_clone():
    w = make_world(4, "analytic")

    def program(comm):
        det = comm.with_backend("detailed")
        assert det.backend.describe() == "detailed"
        assert comm.backend.describe() == "analytic"
        # the clone shares group state and sequencing with the original
        assert det.desc is comm.desc
        yield from det.allreduce(comm.rank)

    w.launch(program)
    assert w.network.messages_sent > 0


def test_split_inherits_backend_override():
    w = make_world(4, "analytic")

    def program(comm):
        det = comm.with_backend("detailed")
        sub = yield from det.split(color=comm.rank % 2)
        assert sub.backend.describe() == "detailed"
        yield from sub.allreduce(comm.rank)

    w.launch(program)
    assert w.network.messages_sent > 0


def test_with_backend_shares_op_sequencing():
    """Interleaving collectives across the base handle and an override
    clone must keep op sequence numbers distinct (no site aliasing)."""
    w = make_world(4, "analytic")
    got = {}

    def program(comm):
        other = comm.with_backend("analytic")
        a = yield from comm.allreduce(comm.rank)
        b = yield from other.allreduce(comm.rank * 10)
        c = yield from comm.allreduce(1)
        got[comm.rank] = (a, b, c)

    w.launch(program)
    assert all(v == (6, 60, 4) for v in got.values())


def test_hints_collective_mode_reroutes_file_collectives():
    st = Stack(nprocs=4, collective_mode="analytic")

    def program(comm, io):
        f = yield from io.open(comm, "hinted", hints={
            "protocol": "ext2ph", "collective_mode": "detailed"})
        assert f.comm.backend.describe() == "detailed"
        assert comm.backend.describe() == "analytic"
        yield from f.write_at_all(comm.rank * 64, rank_pattern(comm.rank, 64))
        yield from f.close()

    st.run(program)
    # the file's collectives ran detailed even though the world is analytic
    assert st.world.network.messages_sent > 0


def test_hints_reject_unknown_collective_mode():
    st = Stack(nprocs=2)

    def program(comm, io):
        with pytest.raises(MPIIOError):
            yield from io.open(comm, "bad", hints={
                "collective_mode": "telepathic"})
        yield from comm.barrier()

    st.run(program)


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


# ----------------------------------------------------------------------
# backend symmetry: rank-divergent specs fail fast instead of hanging
# ----------------------------------------------------------------------
def test_rank_divergent_backend_override_raises():
    st = Stack(nprocs=4)

    def program(comm, io):
        c = comm.with_backend("detailed") if comm.rank == 0 else comm
        yield from c.barrier()

    with pytest.raises(ParCollError, match="backend divergence"):
        st.run(program)


def test_divergence_error_names_ranks_and_backends():
    st = Stack(nprocs=4)

    def program(comm, io):
        c = comm.with_backend("detailed") if comm.rank % 2 else comm
        yield from c.allreduce(1, nbytes=8)

    with pytest.raises(ParCollError) as excinfo:
        st.run(program)
    msg = str(excinfo.value)
    assert "detailed" in msg and "analytic" in msg
    assert "with_backend" in msg  # tells the user how to fix it


def test_symmetric_backend_override_is_not_divergent():
    st = Stack(nprocs=4)

    def program(comm, io):
        det = comm.with_backend("detailed")
        yield from det.barrier()
        yield from comm.barrier()  # back on the world backend: also fine
        return comm.rank

    assert st.run(program) == [0, 1, 2, 3]


def test_divergence_check_spans_successive_collectives():
    """The ledger keys on the op sequence: symmetric call #1 must not
    mask a divergent call #2."""
    st = Stack(nprocs=4)

    def program(comm, io):
        yield from comm.barrier()
        c = comm.with_backend("detailed") if comm.rank == 3 else comm
        yield from c.barrier()

    with pytest.raises(ParCollError, match="backend divergence"):
        st.run(program)
