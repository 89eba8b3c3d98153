"""The collective-protocol table: hint validation, symmetry, shared state.

Covers the table seam itself (which names the ``protocol`` hint
accepts), the per-file protocol symmetry ledger (rank-divergent hints
fail loudly), the per-protocol shared-state slots (hint changes
invalidate cached plans mid-file), and the platform-default threading
(``MPIIO(default_hints=...)``, ``ExperimentConfig.protocol``).
"""

import numpy as np
import pytest

from repro.errors import MPIIOError, ParCollError
from repro.mpiio import MPIIO, PROTOCOLS, IOHints
from repro.simmpi import resolve_backend
from repro.workloads.base import deterministic_bytes
from tests.conftest import Stack

BUILTINS = {"ext2ph", "independent", "nodeagg", "parcoll"}


class TestRegistry:
    def test_builtins_registered(self):
        assert set(PROTOCOLS) == BUILTINS
        for name in PROTOCOLS:
            assert IOHints(protocol=name).protocol == name

    def test_instance_passthrough(self):
        backend = resolve_backend("scoped")
        assert resolve_backend(backend) is backend

    def test_unknown_protocol_lists_registered(self):
        with pytest.raises(MPIIOError) as exc:
            IOHints(protocol="magic")
        for name in BUILTINS:
            assert name in str(exc.value)

    def test_non_string_spec_rejected(self):
        with pytest.raises(MPIIOError):
            IOHints(protocol=42)

    def test_options_rejected_where_unsupported(self):
        with pytest.raises(MPIIOError):
            IOHints(protocol="ext2ph:whatever")

    def test_hints_validate_against_registry(self):
        with pytest.raises(MPIIOError):
            IOHints(protocol="magic")
        assert IOHints(protocol="nodeagg").protocol == "nodeagg"
        with pytest.raises(MPIIOError):
            IOHints(protocol="ext2ph:whatever")


class TestSymmetryLedger:
    def test_rank_divergent_protocol_raises(self):
        st = Stack(nprocs=4)

        def program(comm, io):
            proto = "ext2ph" if comm.rank == 0 else "independent"
            f = yield from io.open(comm, "div", hints={"protocol": proto})
            yield from f.write_at_all(
                comm.rank * 8, np.full(8, comm.rank, dtype=np.uint8))
            yield from f.close()

        with pytest.raises(ParCollError, match="protocol mismatch"):
            st.run(program)

    def test_symmetric_switch_is_fine(self):
        st = Stack(nprocs=4)

        def program(comm, io):
            f = yield from io.open(comm, "sym",
                                   hints={"protocol": "ext2ph"})
            yield from f.write_at_all(
                comm.rank * 8, np.full(8, 1 + comm.rank, dtype=np.uint8))
            f.set_hints(protocol="independent")
            yield from f.write_at_all(
                32 + comm.rank * 8, np.full(8, 5 + comm.rank, np.uint8))
            yield from f.close()

        st.run(program)
        got = st.file_bytes("sym")
        assert got.size == 64
        assert got[0] == 1 and got[32] == 5

    def test_ledger_drains(self):
        st = Stack(nprocs=2)
        seen = {}

        def program(comm, io):
            f = yield from io.open(comm, "drain",
                                   hints={"protocol": "ext2ph"})
            yield from f.write_at_all(comm.rank * 4, np.ones(4, np.uint8))
            yield from f.close()
            seen[comm.rank] = dict(f.shared.protocol_ops)

        st.run(program)
        assert all(ops == {} for ops in seen.values())


class TestStateInvalidation:
    """Satellite: hint changes must drop cached per-protocol state."""

    def _tiled_write(self, f, comm, base, ngroups_salt):
        data = deterministic_bytes(comm.rank + ngroups_salt, 256)
        return f.write_at_all(base + comm.rank * 256, data)

    def test_protocol_switch_drops_parcoll_cache(self):
        st = Stack(nprocs=4)
        observed = {}

        def program(comm, io):
            f = yield from io.open(
                comm, "sw", hints={"protocol": "parcoll",
                                   "parcoll_ngroups": 2})
            yield from self._tiled_write(f, comm, 0, 0)
            # barrier-sandwich the observation: no rank may reach
            # set_hints (which clears shared state) before rank 0 looks
            yield from comm.barrier()
            if comm.rank == 0:
                observed["populated"] = len(f.shared.parcoll_cache) > 0
            yield from comm.barrier()
            f.set_hints(protocol="ext2ph")
            yield from comm.barrier()
            if comm.rank == 0:
                # the ext2ph epoch has not started yet; the parcoll slot
                # must be gone (an empty slot from the property is fine)
                observed["after_switch"] = len(f.shared.parcoll_cache)
            yield from comm.barrier()
            yield from self._tiled_write(f, comm, 1024, 1)
            yield from f.close()

        st.run(program)
        assert observed["populated"]
        assert observed["after_switch"] == 0
        # both epochs' bytes landed correctly
        got = st.file_bytes("sw")
        np.testing.assert_array_equal(got[:256], deterministic_bytes(0, 256))
        np.testing.assert_array_equal(got[1024:1280],
                                      deterministic_bytes(1, 256))

    def test_ngroups_change_drops_stale_plan(self):
        """Regression: a ParColl plan cached under the old group count
        must not drive collectives after ``parcoll_ngroups`` changes
        mid-file (the grouping no longer matches the hints)."""
        st = Stack(nprocs=4)
        caches = {}

        def program(comm, io):
            f = yield from io.open(
                comm, "re", hints={"protocol": "parcoll",
                                   "parcoll_ngroups": 2})
            yield from self._tiled_write(f, comm, 0, 0)
            yield from comm.barrier()
            if comm.rank == 0:
                caches["before"] = len(f.shared.parcoll_cache)
            yield from comm.barrier()
            f.set_info({"parcoll_ngroups": 4})
            yield from comm.barrier()
            if comm.rank == 0:
                caches["after"] = len(f.shared.parcoll_cache)
            yield from comm.barrier()
            # a *different* extent under replan='once' would trip the
            # stale-plan guard if the old plan survived the hint change
            yield from self._tiled_write(f, comm, 4096, 2)
            yield from f.close()

        st.run(program)
        assert caches["before"] > 0
        assert caches["after"] == 0
        got = st.file_bytes("re")
        np.testing.assert_array_equal(got[4096:4352],
                                      deterministic_bytes(2, 256))

    def test_unchanged_hint_keeps_state(self):
        """Setting hints to the values they already hold is no change:
        the cached plan survives."""
        st = Stack(nprocs=4)
        kept = {}

        def program(comm, io):
            f = yield from io.open(
                comm, "keep", hints={"protocol": "parcoll",
                                     "parcoll_ngroups": 2})
            yield from self._tiled_write(f, comm, 0, 0)
            f.set_hints(parcoll_ngroups=2,
                        cb_buffer_size=f.hints.cb_buffer_size)
            yield from comm.barrier()
            if comm.rank == 0:
                kept["cache"] = len(f.shared.parcoll_cache)
            yield from f.close()

        st.run(program)
        assert kept["cache"] > 0


class TestDefaultHints:
    def test_mpiio_default_hints_apply(self):
        st = Stack(nprocs=2)
        st.io.default_hints = {"protocol": "independent"}
        protos = {}

        def program(comm, io):
            f = yield from io.open(comm, "dflt")
            protos["default"] = f.hints.protocol
            g = yield from io.open(comm, "over",
                                   hints={"protocol": "ext2ph"})
            protos["explicit"] = g.hints.protocol
            yield from f.close()
            yield from g.close()

        st.run(program)
        assert protos == {"default": "independent", "explicit": "ext2ph"}

    def test_experiment_config_threads_protocol(self):
        from repro.harness.runner import ExperimentConfig

        _world, _fs, io = ExperimentConfig(nprocs=4,
                                           protocol="nodeagg").build()
        assert io.default_hints == {"protocol": "nodeagg"}
        assert isinstance(io, MPIIO)
