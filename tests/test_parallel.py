"""Parallel experiment execution: executor, run cache, task descriptors."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.harness.parallel import (ExperimentExecutor, ExperimentTask,
                                    RemoteTraceback, RunCache,
                                    available_workloads, code_version,
                                    default_cache_dir, register_workload,
                                    workload_factory)
from repro.harness.runner import ExperimentConfig
from repro.workloads import TileIOConfig

LUSTRE = {"n_osts": 4, "default_stripe_count": 4, "default_stripe_size": 1024}


def tile_task(nprocs=8, rows=32, **hints):
    wl = TileIOConfig(tile_rows=rows, tile_cols=32, element_size=8,
                      hints=hints or None)
    return ExperimentTask(ExperimentConfig(nprocs=nprocs, lustre=LUSTRE),
                          "tile_io", wl)


class TestTaskDescriptor:
    def test_round_trips_through_pickle(self):
        task = tile_task(protocol="parcoll", parcoll_ngroups=2)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.cache_key() == task.cache_key()

    def test_builtin_workloads_registered(self):
        names = available_workloads()
        for name in ("tile_io", "ior", "btio", "flash_io"):
            assert name in names

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ConfigError, match="unknown workload factory"):
            workload_factory("nope")
        task = ExperimentTask(ExperimentConfig(nprocs=4), "nope")
        with pytest.raises(ConfigError, match="unknown workload factory"):
            ExperimentExecutor().run_many([task])

    def test_custom_registration(self):
        def program(wl, comm, io):  # pragma: no cover - never run
            yield None

        register_workload("custom_for_test", program)
        assert workload_factory("custom_for_test") is program

    def test_run_matches_run_experiment(self):
        from functools import partial

        from repro.harness.runner import run_experiment

        task = tile_task()
        direct = run_experiment(task.config,
                                partial(workload_factory("tile_io"),
                                        task.workload_config))
        via_task = task.run()
        assert via_task.write_bandwidth == direct.write_bandwidth
        assert via_task.events == direct.events

    def test_rejects_non_tasks(self):
        with pytest.raises(ConfigError, match="ExperimentTask"):
            ExperimentExecutor().run_many([lambda: None])


class TestCacheKey:
    def test_stable_across_instances(self):
        assert tile_task().cache_key() == tile_task().cache_key()

    def test_changes_with_experiment_config(self):
        assert tile_task(nprocs=8).cache_key() != tile_task(nprocs=16).cache_key()

    def test_changes_with_workload_config(self):
        assert (tile_task(rows=32).cache_key()
                != tile_task(rows=64).cache_key())
        assert (tile_task(protocol="ext2ph").cache_key()
                != tile_task(protocol="parcoll",
                             parcoll_ngroups=2).cache_key())

    def test_changes_with_workload_name(self):
        cfg = ExperimentConfig(nprocs=8, lustre=LUSTRE)
        wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8)
        a = ExperimentTask(cfg, "tile_io", wl)
        b = ExperimentTask(cfg, "ior", wl)
        assert a.cache_key() != b.cache_key()

    def test_includes_code_version(self, monkeypatch):
        task = tile_task()
        before = task.cache_key()
        monkeypatch.setattr("repro.harness.parallel._CODE_VERSION",
                            "deadbeef")
        assert task.cache_key() != before

    def test_code_version_is_memoized_hex(self):
        v = code_version()
        assert v == code_version()
        int(v, 16)
        assert len(v) == 64


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        task = tile_task()
        key = task.cache_key()
        assert cache.get(key) is None
        result = task.run()
        cache.put(key, result)
        hit = cache.get(key)
        assert hit is not None
        assert hit.write_bandwidth == result.write_bandwidth
        assert cache.hits == 1 and cache.misses == 1

    def test_config_change_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        t8 = tile_task(nprocs=8)
        cache.put(t8.cache_key(), t8.run())
        assert cache.get(tile_task(nprocs=16).cache_key()) is None

    def test_code_version_change_invalidates(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        task = tile_task()
        cache.put(task.cache_key(), task.run())
        monkeypatch.setattr("repro.harness.parallel._CODE_VERSION", "f00d")
        assert cache.get(task.cache_key()) is None

    def test_corrupted_entry_recomputes(self, tmp_path):
        cache = RunCache(tmp_path)
        task = tile_task()
        key = task.cache_key()
        cache.put(key, task.run())
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:17])  # truncate mid-pickle
        assert cache.get(key) is None  # corrupted -> miss + removed
        assert not path.exists()
        # executor transparently recomputes and re-stores
        ex = ExperimentExecutor(jobs=1, cache=cache)
        res = ex.run(task)
        assert res.write_bandwidth > 0
        assert path.exists()

    def test_garbage_object_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        key = tile_task().cache_key()
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a RunResult"}))
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        for n in (4, 8):
            t = tile_task(nprocs=n)
            cache.put(t.cache_key(), t.run())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_unwritable_directory_degrades(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cache = RunCache(blocker / "sub")
        task = tile_task()
        cache.put(task.cache_key(), task.run())  # must not raise
        ex = ExperimentExecutor(jobs=1, cache=cache)
        assert ex.run(task).write_bandwidth > 0

    def test_stats_counters(self, tmp_path):
        cache = RunCache(tmp_path)
        task = tile_task()
        key = task.cache_key()
        cache.get(key)                   # miss
        cache.put(key, task.run())       # store
        cache.get(key)                   # hit
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:17])
        cache.get(key)                   # corrupt fallback (also a miss)
        assert cache.stats.to_dict() == {"hits": 1, "misses": 2,
                                         "stores": 1, "corrupt": 1}
        assert cache.stats.describe() == ("1 hits, 2 misses, "
                                          "1 stores, 1 corrupt drops")

    def test_run_report_renders_cache_stats(self, tmp_path):
        from repro.harness.report import run_report

        cache = RunCache(tmp_path)
        task = tile_task()
        ex = ExperimentExecutor(jobs=1, cache=cache)
        result = ex.run(task)
        report = run_report(result, cache=cache)
        assert "run cache: 0 hits, 1 misses, 1 stores" in report
        assert "run cache" not in run_report(result)


def _hammer_cache(root, key, blob, rounds, barrier, failures):
    """Child-process body: racing put/get cycles on one cache key."""
    import pickle as _pickle

    from repro.harness.parallel import RunCache as _RunCache

    cache = _RunCache(root)
    result = _pickle.loads(blob)
    barrier.wait()  # maximize overlap between the writers
    for _ in range(rounds):
        cache.put(key, result)
        got = cache.get(key)
        if got is None or got.write_bandwidth != result.write_bandwidth:
            with failures.get_lock():
                failures.value += 1


class TestConcurrentCacheWriters:
    def test_racing_writers_converge_on_one_valid_blob(self, tmp_path):
        """Two processes storing the same key concurrently must never
        corrupt the entry: every interleaved read sees a complete
        result, and exactly one on-disk blob (plus no orphaned temp
        files) remains."""
        import multiprocessing as mp

        task = tile_task()
        key = task.cache_key()
        blob = pickle.dumps(task.run())
        ctx = mp.get_context("fork")
        n_procs, rounds = 2, 25
        barrier = ctx.Barrier(n_procs)
        failures = ctx.Value("i", 0)
        procs = [ctx.Process(target=_hammer_cache,
                             args=(str(tmp_path), key, blob, rounds,
                                   barrier, failures))
                 for _ in range(n_procs)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert failures.value == 0
        cache = RunCache(tmp_path)
        final = cache.get(key)
        assert final is not None
        assert final.write_bandwidth == pickle.loads(blob).write_bandwidth
        entries = list(tmp_path.glob("*/*.pkl"))
        assert len(entries) == 1  # both writers converged on one blob
        assert list(tmp_path.rglob("*.tmp")) == []  # no leaked temp files


def _metrics(result):
    return (result.write_bandwidth, result.read_bandwidth,
            result.elapsed_total, result.events, result.messages,
            sorted((k, v["sum"], v["max"])
                   for k, v in result.breakdown.items()),
            [(s.bytes_written, s.bytes_read, s.io_seconds)
             for s in result.per_rank])


class TestExecutor:
    def grid(self):
        tasks = [tile_task(nprocs=p) for p in (4, 8, 16)]
        tasks += [tile_task(nprocs=8, protocol="parcoll",
                            parcoll_ngroups=2)]
        return tasks

    def test_serial_matches_direct(self):
        tasks = self.grid()
        ex = ExperimentExecutor(jobs=1, cache=False)
        for res, task in zip(ex.run_many(tasks), tasks):
            assert _metrics(res) == _metrics(task.run())

    def test_parallel_bit_identical_to_serial(self):
        tasks = self.grid()
        serial = ExperimentExecutor(jobs=1, cache=False).run_many(tasks)
        parallel = ExperimentExecutor(jobs=4, cache=False).run_many(tasks)
        for a, b in zip(serial, parallel):
            assert _metrics(a) == _metrics(b)

    def test_order_stable(self):
        tasks = self.grid()
        results = ExperimentExecutor(jobs=4, cache=False).run_many(tasks)
        assert [r.config.nprocs for r in results] == [4, 8, 16, 8]
        # the parcoll point must carry the parcoll metrics, not slot 1's
        assert _metrics(results[3]) == _metrics(tasks[3].run())
        assert _metrics(results[3]) != _metrics(results[1])

    def test_duplicate_tasks_computed_once(self, tmp_path):
        task = tile_task()
        ex = ExperimentExecutor(jobs=1, cache=RunCache(tmp_path))
        out = ex.run_many([task, task, task])
        assert ex.cache.misses == 1
        assert len({id(r) for r in out}) <= 2  # first + memoized copies
        assert all(_metrics(r) == _metrics(out[0]) for r in out)

    def test_cached_results_identical_serial_vs_parallel(self, tmp_path):
        tasks = self.grid()
        cold = ExperimentExecutor(jobs=4, cache=RunCache(tmp_path))
        warm = ExperimentExecutor(jobs=1, cache=RunCache(tmp_path))
        for a, b in zip(cold.run_many(tasks), warm.run_many(tasks)):
            assert _metrics(a) == _metrics(b)
        assert warm.cache.hits == len(tasks)

    def test_worker_failure_surfaces_original_traceback(self):
        from repro.errors import ConfigError as CErr

        bad = ExperimentTask(
            ExperimentConfig(nprocs=8, lustre=LUSTRE), "tile_io",
            TileIOConfig(tile_rows=32, tile_cols=32, element_size=8,
                         grid=(3, 3)))  # 3x3 grid != 8 procs
        ex = ExperimentExecutor(jobs=4, cache=False)
        with pytest.raises(CErr) as excinfo:
            ex.run_many([bad, tile_task()])
        cause = excinfo.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "resolved_grid" in cause.tb or "grid" in cause.tb

    def test_serial_failure_raises_directly(self):
        bad = ExperimentTask(
            ExperimentConfig(nprocs=8, lustre=LUSTRE), "tile_io",
            TileIOConfig(tile_rows=32, tile_cols=32, element_size=8,
                         grid=(3, 3)))
        with pytest.raises(ConfigError):
            ExperimentExecutor(jobs=1, cache=False).run_many([bad])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentExecutor(jobs=0)

    def test_from_env_reads_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentExecutor.from_env().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.raises(ConfigError):
            ExperimentExecutor.from_env()
        monkeypatch.delenv("REPRO_JOBS")
        assert ExperimentExecutor.from_env().jobs == 1

    def test_from_env_cache_toggle(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNCACHE", "0")
        assert ExperimentExecutor.from_env().cache is None
        monkeypatch.setenv("REPRO_RUNCACHE", str(tmp_path / "rc"))
        ex = ExperimentExecutor.from_env()
        assert ex.cache is not None
        assert ex.cache.root == tmp_path / "rc"

    def test_default_cache_dir_is_benchmarks_runcache(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNCACHE", raising=False)
        d = default_cache_dir()
        assert d.parts[-2:] == ("benchmarks", ".runcache")


class TestFigureIntegration:
    """Figure smokes: jobs=N and the cache must not change any metric."""

    def fig(self, **kw):
        from repro.harness.figures import fig07_tileio_groups

        return fig07_tileio_groups(nprocs=16, group_counts=(1, 2, 4),
                                   **kw)

    def test_fig07_parallel_matches_serial(self, tmp_path):
        serial = self.fig(executor=ExperimentExecutor(jobs=1, cache=False))
        parallel = self.fig(
            executor=ExperimentExecutor(jobs=4, cache=RunCache(tmp_path)))
        warm = self.fig(
            executor=ExperimentExecutor(jobs=1, cache=RunCache(tmp_path)))
        assert serial.rows == parallel.rows == warm.rows
        assert serial.series == parallel.series == warm.series

    def test_fig09_parallel_matches_serial(self, tmp_path):
        from repro.harness.figures import fig09_scalability

        kw = dict(procs=(8, 16), groups_for=lambda p: [2, 4])
        serial = fig09_scalability(
            executor=ExperimentExecutor(jobs=1, cache=False), **kw)
        parallel = fig09_scalability(
            executor=ExperimentExecutor(jobs=4, cache=RunCache(tmp_path)),
            **kw)
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series


class TestCLIFlags:
    def test_figure_with_jobs_and_no_cache(self, capsys):
        from repro.cli import main

        assert main(["figure", "5", "-j", "2", "--no-cache"]) == 0
        assert "SubGroup" in capsys.readouterr().out

    def test_cache_subcommand(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RUNCACHE", str(tmp_path / "rc"))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed 0" in capsys.readouterr().out
