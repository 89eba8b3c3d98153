"""The engine's run-scoped cyclic-GC policy and the macro round release.

:meth:`Engine.run` raises CPython's collector thresholds while it runs
and must hand the caller's thresholds back on every exit path, nested
or concurrent.  Raised thresholds only stay cheap in memory if finished
macro rounds are freed by reference counting, so every round must be
cycle-free once its last rank exits.  The run also reports the
collector's passes and pause time through :class:`PerfStats`.
"""

from __future__ import annotations

import gc
import threading
import weakref
from functools import partial

import pytest

from repro.cluster import MachineConfig
from repro.errors import DeadlockError, TaskFailedError
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.report import run_report
from repro.perf import PerfStats, merge
from repro.sim import Engine, Event, Sleep, WaitEvent
from repro.sim.engine import _RUN_GC_THRESHOLDS
from repro.simmpi import World
from repro.simmpi import collectives_macro
from repro.simmpi.reduce_ops import SUM
from repro.workloads import TileIOConfig, tile_io_program

#: distinctive caller thresholds, below the run's
CALLER = (650, 9, 8)


@pytest.fixture
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield CALLER
    finally:
        gc.set_threshold(*saved)


def _probe(seen: list):
    """A task that records the thresholds in force inside the run."""
    seen.append(gc.get_threshold())
    yield Sleep(1.0)


class TestThresholds:
    def test_raised_during_run_restored_after(self, caller_thresholds):
        seen: list = []
        callbacks = list(gc.callbacks)
        eng = Engine()
        eng.spawn(_probe(seen))
        assert eng.run() == 1.0
        assert seen == [_RUN_GC_THRESHOLDS]
        assert gc.get_threshold() == CALLER
        assert gc.callbacks == callbacks

    def test_restored_after_deadlock(self, caller_thresholds):
        eng = Engine()

        def stuck():
            yield WaitEvent(Event(eng, "never"))

        eng.spawn(stuck())
        with pytest.raises(DeadlockError):
            eng.run()
        assert gc.get_threshold() == CALLER

    def test_restored_after_task_failure(self, caller_thresholds):
        eng = Engine()

        def child():
            yield Sleep(1.0)
            raise ValueError("boom")

        def parent():
            eng.spawn(child(), "c")
            yield Sleep(5.0)

        eng.spawn(parent())
        with pytest.raises(TaskFailedError):
            eng.run()
        assert gc.get_threshold() == CALLER

    def test_nested_run_leaves_outer_raise_in_place(self, caller_thresholds):
        inner_seen: list = []
        after_inner: list = []

        def outer():
            inner = Engine()
            inner.spawn(_probe(inner_seen))
            inner.run()
            after_inner.append(gc.get_threshold())
            yield Sleep(1.0)

        eng = Engine()
        eng.spawn(outer())
        eng.run()
        assert inner_seen == [_RUN_GC_THRESHOLDS]
        # the inner run did not raise them, so it did not restore them
        assert after_inner == [_RUN_GC_THRESHOLDS]
        assert gc.get_threshold() == CALLER

    def test_sequential_runs_each_restore(self, caller_thresholds):
        eng = Engine()
        for _ in range(2):
            eng.spawn(_probe([]))
            eng.run()
            assert gc.get_threshold() == CALLER
        assert eng.now == 2.0

    def test_concurrent_runs_on_two_threads(self, caller_thresholds):
        started = threading.Event()
        go = threading.Event()
        errors: list = []

        def blocking():
            started.set()
            go.wait(10)
            yield Sleep(1.0)

        def run_in_thread():
            try:
                eng = Engine()
                eng.spawn(blocking())
                eng.run()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t = threading.Thread(target=run_in_thread)
        t.start()
        assert started.wait(10)
        # a second run while the first is mid-run finds them raised and
        # leaves them alone
        eng = Engine()
        seen: list = []
        eng.spawn(_probe(seen))
        eng.run()
        assert seen == [_RUN_GC_THRESHOLDS]
        go.set()
        t.join(10)
        assert not t.is_alive()
        assert not errors
        assert gc.get_threshold() == CALLER

    @pytest.mark.parametrize("thresholds", [(0, 10, 10), (200_000, 10, 10)])
    def test_disabled_or_higher_thresholds_untouched(self, thresholds):
        saved = gc.get_threshold()
        gc.set_threshold(*thresholds)
        try:
            seen: list = []
            eng = Engine()
            eng.spawn(_probe(seen))
            eng.run()
            assert seen == [thresholds]
            assert gc.get_threshold() == thresholds
        finally:
            gc.set_threshold(*saved)


def test_macro_rounds_leave_no_cycles(monkeypatch):
    """Every finished round's driver is freed by reference counting."""
    refs: list = []

    class TrackedDriver(collectives_macro._Driver):
        # no __slots__: instances get a __weakref__ slot
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(collectives_macro, "_Driver", TrackedDriver)

    def program(comm):
        r = comm.rank
        p = comm.size
        yield from comm.barrier()
        yield from comm.allgather(("v", r), nbytes=8)
        # rendezvous-sized blocks take the header/CTS/data path
        yield from comm.allgather(r, nbytes=200_000)
        yield from comm.alltoall(list(range(p)), nbytes_each=64)
        yield from comm.alltoall([r] * p, nbytes_each=8)
        total = yield from comm.allreduce(float(r), op=SUM, nbytes=8)
        return total

    world = World(MachineConfig(nprocs=5, cores_per_node=2),
                  collective_mode="macro")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = world.launch(program)
        alive = sum(ref() is not None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert results == [10.0] * 5
    assert len(refs) == 6
    assert alive == 0, f"{alive} of {len(refs)} macro rounds left a cycle"


def _tile_with_collect(wl, comm, io):
    if comm.rank == 0:
        gc.collect()
    return (yield from tile_io_program(wl, comm, io))


class TestPerfStats:
    def test_gc_fields_populated(self):
        wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8)
        cfg = ExperimentConfig(nprocs=8,
                               lustre={"n_osts": 4, "default_stripe_count": 4,
                                       "default_stripe_size": 1024})
        res = run_experiment(cfg, partial(_tile_with_collect, wl))
        perf = res.perf
        assert len(perf.gc_collections) == 3
        assert perf.gc_collections[2] >= 1  # the explicit full pass
        assert 0.0 < perf.gc_pause_s <= perf.wall_seconds
        text = run_report(res)
        assert "gc collections (gen 0/1/2)" in text
        assert "gc pause seconds" in text

    def test_merge_sums_per_generation(self):
        a = PerfStats(gc_collections=(3, 1, 0), gc_pause_s=0.25)
        b = PerfStats(gc_collections=(4, 0, 2), gc_pause_s=0.5)
        out = merge([a, None, b])
        assert out.gc_collections == (7, 1, 2)
        assert out.gc_pause_s == 0.75
        labels = dict(out.lines())
        assert labels["gc collections (gen 0/1/2)"] == "7/1/2"
