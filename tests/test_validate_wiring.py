"""How validation threads through the stack: the platform switch,
configs, executor, run cache, and the close-time oracle hook."""

import numpy as np
import pytest

from repro.datatypes import BYTE
from repro.errors import ValidationError
from repro.harness.parallel import ExperimentExecutor, ExperimentTask, RunCache
from repro.harness.runner import ExperimentConfig
from repro.validate import ORACLE_VERSION, env_validate_enabled
from repro.workloads import TileIOConfig
from repro.workloads.base import deterministic_bytes
from repro.workloads.synthetic import SyntheticConfig, filetype_for
from tests.conftest import Stack

LUSTRE = {"n_osts": 4, "default_stripe_count": 4, "default_stripe_size": 1024}


def tile_task(validate=False, **hints):
    wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8,
                      hints=hints or None)
    cfg = ExperimentConfig(nprocs=8, lustre=LUSTRE, validate=validate)
    return ExperimentTask(cfg, "tile_io", wl)


class TestEnvSwitch:
    @pytest.mark.parametrize("raw,on", [
        ("", False), ("0", False), ("false", False), ("no", False),
        ("off", False), ("1", True), ("true", True), ("yes", True),
    ])
    def test_env_values(self, raw, on):
        assert env_validate_enabled({"REPRO_VALIDATE": raw}) is on

    def test_unset_means_off(self):
        assert env_validate_enabled({}) is False


class TestPlatformSwitch:
    def run_synth(self, hints, validate=None):
        cfg = SyntheticConfig(pattern="interleaved", nprocs=4,
                              bytes_per_rank=1024, piece_bytes=128)
        stack = Stack(nprocs=4, stripe_size=512, validate=validate)

        def program(comm, io):
            ft = filetype_for(cfg, comm.rank)
            f = yield from io.open(comm, "v", hints=hints)
            f.set_view(comm.rank * cfg.piece_bytes, BYTE, ft)
            data = deterministic_bytes(comm.rank, ft.size)
            yield from f.write_at_all(0, data)
            got = yield from f.read_at_all(0, ft.size)
            yield from f.close()
            return got

        stack.run(program)
        return stack.io

    def test_validate_true_enables_validator(self):
        io = self.run_synth({"protocol": "parcoll", "parcoll_ngroups": 2},
                            validate=True)
        report = io.validator.report
        assert report.ok
        assert report.checks["file_oracle_bytes"] >= 1
        assert report.checks["read_oracle"] >= 1
        assert report.checks["fa_partition"] >= 1

    def test_default_is_off(self):
        io = self.run_synth({"protocol": "parcoll", "parcoll_ngroups": 2})
        assert io.validator is None

    def test_validate_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert Stack(nprocs=2).io.validator is not None
        stack = Stack(nprocs=2, validate=False)

        def program(comm, io):
            f = yield from io.open(comm, "off")
            yield from f.write_at_all(
                comm.rank * 4, np.full(4, comm.rank, dtype=np.uint8))
            yield from f.close()

        stack.run(program)
        assert stack.io.validator is None

    def test_oracle_fires_through_close(self):
        stack = Stack(nprocs=2, validate=True)

        def program(comm, io):
            f = yield from io.open(comm, "bad")
            yield from f.write_at_all(
                comm.rank * 4, np.full(4, 1 + comm.rank, dtype=np.uint8))
            if comm.rank == 0:
                # poison the oracle: claim bytes the fs never saw
                io.validator.record_write(
                    f.lfile,
                    (np.array([64], dtype=np.int64),
                     np.array([2], dtype=np.int64)),
                    np.array([9, 9], dtype=np.uint8))
            yield from f.close()

        with pytest.raises(ValidationError, match="file_oracle"):
            stack.run(program)


class TestCacheKeys:
    def test_validate_flag_changes_key(self):
        assert tile_task().cache_key() != tile_task(validate=True).cache_key()

    def test_oracle_version_rolls_validated_keys_only(self, monkeypatch):
        import repro.validate.oracle as oracle_mod

        plain = tile_task().cache_key()
        validated = tile_task(validate=True).cache_key()
        monkeypatch.setattr(oracle_mod, "ORACLE_VERSION",
                            ORACLE_VERSION + 1)
        # the key reads the live package attribute
        import repro.validate as validate_pkg

        monkeypatch.setattr(validate_pkg, "ORACLE_VERSION",
                            ORACLE_VERSION + 1)
        assert tile_task().cache_key() == plain
        assert tile_task(validate=True).cache_key() != validated


class TestExecutorValidate:
    def test_cached_unvalidated_run_not_reused_for_validate(self, tmp_path):
        cache = RunCache(tmp_path)
        plain = ExperimentExecutor(cache=cache)
        task = tile_task(protocol="parcoll", parcoll_ngroups=2)
        r0 = plain.run(task)
        assert r0.validation is None
        checking = ExperimentExecutor(cache=cache, validate=True)
        r1 = checking.run(task)
        assert r1.validation is not None
        assert r1.validation["violations"] == []
        assert sum(r1.validation["checks"].values()) > 0
        # virtual-time results are identical with the oracle on
        assert r1.elapsed_total == r0.elapsed_total
        # and the validated result was cached under its own key
        r2 = checking.run(task)
        assert r2.validation is not None
        assert checking.cache.hits >= 1

    def test_from_env_reads_repro_validate(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert ExperimentExecutor.from_env(cache=False).validate is True
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert ExperimentExecutor.from_env(cache=False).validate is False

    def test_run_result_carries_validation_report(self):
        res = tile_task(validate=True, protocol="parcoll",
                        parcoll_ngroups=4).run()
        assert res.validation is not None
        checks = res.validation["checks"]
        for name in ("fa_partition", "aggregator_distribution",
                     "exchange_plan", "file_oracle_extents"):
            assert checks.get(name, 0) >= 1, name


class TestIndependentReadGap:
    """Independent ``read_at`` is oracle-checked via the shadow file's
    happens-before tracker (closed PR 5/7 carry-over): reads that
    provably happen after every overlapping write are byte-checked,
    reads racing an in-flight write are counted as skipped."""

    def test_independent_read_at_is_oracle_checked(self):
        from repro.validate import Validator

        stack = Stack(nprocs=4)
        stack.io.validator = Validator()
        n = 512

        def program(comm, io):
            f = yield from io.open(comm, "ind")
            data = deterministic_bytes(comm.rank, n)
            yield from f.write_at(comm.rank * n, data)
            # the barrier orders every read after every write, so a
            # happens-before tracker would have full coverage here
            yield from comm.barrier()
            got = yield from f.read_at(((comm.rank + 1) % 4) * n, n)
            yield from f.close()
            return got

        results = stack.run(program)
        for r, got in enumerate(results):
            expected = deterministic_bytes((r + 1) % 4, n)
            assert np.array_equal(np.asarray(got, np.uint8), expected)
        report = stack.io.validator.report
        assert report.ok
        assert report.checks["read_oracle"] >= 4
        assert report.checks.get("read_oracle_skipped", 0) == 0

    def test_read_racing_pending_write_is_skipped_not_judged(self):
        import numpy as np

        from repro.validate.oracle import ShadowFile

        sh = ShadowFile("race", verified=True)
        seg = lambda o, n: (np.array([o], dtype=np.int64),
                            np.array([n], dtype=np.int64))
        t0 = sh.record(seg(0, 64), np.zeros(64, np.uint8))
        assert sh.pending_writes == 1
        # overlapping read while the write is in flight: not checkable
        assert not sh.checkable_read(seg(32, 8))
        # disjoint read is fine even with a write pending
        assert sh.checkable_read(seg(128, 8))
        sh.complete(t0)
        assert sh.checkable_read(seg(32, 8))

    def test_unordered_racing_writers_blind_the_read_oracle_forever(self):
        import numpy as np

        from repro.validate.oracle import ShadowFile

        sh = ShadowFile("race2", verified=True)
        seg = lambda o, n: (np.array([o], dtype=np.int64),
                            np.array([n], dtype=np.int64))
        t0 = sh.record(seg(0, 64), np.zeros(64, np.uint8))
        t1 = sh.record(seg(32, 64), np.ones(64, np.uint8))  # races t0
        sh.complete(t0)
        sh.complete(t1)
        # both landed, but in undefined order: stays uncheckable
        assert not sh.checkable_read(seg(40, 8))
        assert sh.checkable_read(seg(200, 8))
