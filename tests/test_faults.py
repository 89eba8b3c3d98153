"""Fault injection: plans, profiles, retry, determinism, cache identity."""

import numpy as np
import pytest

from repro.errors import ConfigError, FaultExhaustedError, SimulationError
from repro.faults import (FaultInjector, FaultPlan, FlakyRPC, NodeSlowdown,
                          OSTDegrade, OSTStall, RetryPolicy)
from repro.harness.parallel import ExperimentExecutor, ExperimentTask
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.sim.resources import ServiceProfile
from repro.workloads import TileIOConfig
from repro.workloads.tile_io import tile_io_program

LUSTRE = {"n_osts": 4, "default_stripe_count": 4, "default_stripe_size": 1024}


def tile_task(faults=None, retry=None, seed=0, **hints):
    wl = TileIOConfig(tile_rows=32, tile_cols=32, element_size=8,
                      hints=hints or None)
    cfg = ExperimentConfig(nprocs=8, lustre=LUSTRE, seed=seed,
                           faults=faults, retry=retry or {})
    return ExperimentTask(cfg, "tile_io", wl)


def run_tile(faults=None, retry=None, **hints):
    return tile_task(faults=faults, retry=retry, **hints).run()


def metrics(result):
    """Exact-identity fingerprint of one run."""
    return (result.elapsed_total.hex(), result.write_bandwidth.hex(),
            result.events, result.messages,
            {c: (v["sum"].hex(), v["max"].hex(), v["count"])
             for c, v in result.breakdown.items()})


class TestFaultPlan:
    def test_canonical_order_independent_identity(self):
        a = FaultPlan((OSTDegrade(ost=1, factor=0.5),
                       OSTStall(ost=0, start=1.0, duration=2.0)))
        b = FaultPlan((OSTStall(ost=0, start=1.0, duration=2.0),
                       OSTDegrade(ost=1, factor=0.5)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_dict() == b.to_dict()

    def test_builders_and_add(self):
        plan = (FaultPlan.straggler_ost(0, 0.25)
                + FaultPlan.flaky(0.5, ost=1)
                + FaultPlan.slow_node(2, 0.5)
                + FaultPlan.stall(3, start=1.0, duration=0.5))
        assert len(plan.events) == 4
        assert not plan.is_empty
        assert FaultPlan().is_empty

    def test_dict_round_trip(self):
        plan = (FaultPlan.straggler_ost(1, 0.1, start=0.5, end=2.0)
                + FaultPlan.flaky(0.3))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        # coerce accepts the plan, its dict form, an event tuple, None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(plan.events) == plan
        assert FaultPlan.coerce(None) == FaultPlan()

    def test_validation(self):
        with pytest.raises(ConfigError, match="factor must be > 0"):
            OSTDegrade(ost=0, factor=0.0)
        with pytest.raises(ConfigError, match="duration must be > 0"):
            OSTStall(ost=0, start=0.0, duration=0.0)
        with pytest.raises(ConfigError, match="prob must be in"):
            FlakyRPC(prob=1.5)
        with pytest.raises(ConfigError, match="must be after"):
            NodeSlowdown(node=0, factor=0.5, start=2.0, end=1.0)
        with pytest.raises(ConfigError, match="unknown event kind"):
            FaultPlan.from_dict({"events": [{"kind": "meteor_strike"}]})
        with pytest.raises(ConfigError, match="as a FaultPlan"):
            FaultPlan.coerce(42)

    def test_flaky_prob_windows_compound(self):
        plan = (FaultPlan.flaky(0.5, ost=0, start=0.0, end=2.0)
                + FaultPlan.flaky(0.5, start=1.0, end=3.0))  # all OSTs
        assert plan.flaky_prob(0, 0.5) == 0.5
        assert plan.flaky_prob(0, 1.5) == pytest.approx(0.75)
        assert plan.flaky_prob(0, 2.5) == 0.5
        assert plan.flaky_prob(0, 3.0) == 0.0
        assert plan.flaky_prob(3, 0.5) == 0.0  # ost-0 window doesn't apply
        assert plan.has_flaky(3)  # the all-OST window does


class TestServiceProfile:
    def test_speed_at_multiplies_overlapping_windows(self):
        prof = ServiceProfile([(0.0, 4.0, 0.5), (2.0, 6.0, 0.5)])
        assert prof.speed_at(1.0) == 0.5
        assert prof.speed_at(3.0) == 0.25
        assert prof.speed_at(5.0) == 0.5
        assert prof.speed_at(7.0) == 1.0

    def test_finish_time_integrates_across_segments(self):
        # half speed for the first 2 s: 3 s of work = 2 s at 0.5 (1 s
        # done) + 2 s at full speed
        prof = ServiceProfile([(0.0, 2.0, 0.5)])
        assert prof.finish_time(0.0, 3.0) == pytest.approx(4.0)
        # started after the window: unaffected
        assert prof.finish_time(2.0, 3.0) == pytest.approx(5.0)

    def test_stall_window_blocks_until_it_ends(self):
        prof = ServiceProfile([(1.0, 3.0, 0.0)])
        # 1 s of work starting at 0: 1 s done exactly as the stall begins
        assert prof.finish_time(0.0, 1.0) == pytest.approx(1.0)
        # 1.5 s of work: the last 0.5 s waits out the stall
        assert prof.finish_time(0.0, 1.5) == pytest.approx(3.5)

    def test_forever_stalled_profile_raises(self):
        with pytest.raises(SimulationError, match="permanent stall"):
            ServiceProfile([(1.0, None, 0.0)])


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        pol = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert pol.backoff_delay(1, rng) == pytest.approx(1e-3)
        assert pol.backoff_delay(3, rng) == pytest.approx(4e-3)

    def test_jitter_consults_rng_deterministically(self):
        pol = RetryPolicy(backoff_base=1e-3, jitter=0.5)
        a = pol.backoff_delay(1, np.random.default_rng(7))
        b = pol.backoff_delay(1, np.random.default_rng(7))
        assert a == b
        assert 1e-3 <= a <= 1.5e-3

    def test_constructor_validates(self):
        assert RetryPolicy(max_attempts=3).max_attempts == 3
        with pytest.raises(ConfigError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestInjector:
    def test_profiles_are_none_for_untouched_resources(self):
        inj = FaultInjector(FaultPlan.straggler_ost(1, 0.5), seed=0)
        assert inj.ost_profile(0) is None
        assert inj.ost_profile(1) is not None
        assert inj.node_profile(0) is None

    def test_validate_platform_rejects_missing_resources(self):
        inj = FaultInjector(FaultPlan.straggler_ost(7, 0.5), seed=0)
        with pytest.raises(ConfigError, match="only 4 OSTs"):
            inj.validate_platform(n_osts=4, nnodes=4)
        inj = FaultInjector(FaultPlan.slow_node(9, 0.5), seed=0)
        with pytest.raises(ConfigError, match="only 4 nodes"):
            inj.validate_platform(n_osts=16, nnodes=4)

    def test_rpc_delay_counts_failures_and_exhausts(self):
        inj = FaultInjector(FaultPlan.flaky(1.0, ost=0), seed=0)
        pol = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(FaultExhaustedError) as err:
            inj.rpc_delay(0, 0.0, pol)
        assert err.value.ost == 0
        assert err.value.attempts == 3
        assert err.value.virtual_time > 0
        assert "ost-0" in str(err.value)
        # other OSTs are untouched and consume no randomness
        assert inj.rpc_delay(1, 0.0, pol) == (0.0, 0)


class TestFaultRuns:
    def test_zero_fault_runs_bit_identical_to_no_fault_config(self):
        base = run_tile(faults=None)
        empty = run_tile(faults=FaultPlan())
        # a flaky window the run never reaches also leaves it untouched
        late = run_tile(faults=FaultPlan.flaky(0.9, ost=0, start=1e9))
        assert metrics(empty) == metrics(base)
        assert metrics(late) == metrics(base)
        assert "fault_retry" not in base.breakdown

    def test_straggler_slows_and_is_deterministic(self):
        base = run_tile()
        slow = run_tile(faults=FaultPlan.straggler_ost(0, 0.05))
        again = run_tile(faults=FaultPlan.straggler_ost(0, 0.05))
        assert slow.elapsed_total > base.elapsed_total
        assert metrics(slow) == metrics(again)

    def test_flaky_run_charges_fault_retry_with_counts(self):
        res = run_tile(faults=FaultPlan.flaky(0.4, ost=1))
        fr = res.breakdown.get("fault_retry")
        assert fr is not None
        assert fr["sum"] > 0
        assert fr["count"] >= 1
        # retry time is accounted, not invented: it never exceeds the
        # run's total accounted time
        assert fr["sum"] < sum(v["sum"] for v in res.breakdown.values())

    def test_no_retry_policy_aborts_with_exhaustion(self):
        with pytest.raises(FaultExhaustedError):
            run_tile(faults=FaultPlan.flaky(1.0, ost=0),
                     retry={"max_attempts": 1})

    def test_platform_retry_policy_sets_attempts(self):
        plan = FaultPlan.flaky(1.0, ost=0)
        # prob=1 exhausts any budget; the platform policy's attempt
        # count, not the default's, must be the one in the error
        with pytest.raises(FaultExhaustedError) as err:
            run_tile(faults=plan, retry={"max_attempts": 4})
        assert err.value.attempts == 4

    def test_fault_plan_changes_cache_key(self):
        base = tile_task()
        empty = tile_task(faults=FaultPlan())
        flaky = tile_task(faults=FaultPlan.flaky(0.4, ost=1))
        flakier = tile_task(faults=FaultPlan.flaky(0.5, ost=1))
        retried = tile_task(faults=FaultPlan.flaky(0.4, ost=1),
                            retry={"max_attempts": 4})
        # every spelling of "no faults" is one platform and one key
        assert base.cache_key() == empty.cache_key()
        assert base.cache_key() == tile_task(
            faults={"events": []}).cache_key()
        keys = {t.cache_key() for t in (base, flaky, flakier, retried)}
        assert len(keys) == 4
        # but identical plans authored in different orders share a key
        a = tile_task(faults=FaultPlan.straggler_ost(0, 0.5)
                      + FaultPlan.stall(1, 1.0, 2.0))
        b = tile_task(faults=FaultPlan.stall(1, 1.0, 2.0)
                      + FaultPlan.straggler_ost(0, 0.5))
        assert a.cache_key() == b.cache_key()

    def test_plan_serializes_through_config_dict_form(self):
        plan = FaultPlan.straggler_ost(0, 0.05)
        via_plan = run_tile(faults=plan)
        via_dict = run_tile(faults=plan.to_dict())
        assert metrics(via_plan) == metrics(via_dict)

    def test_build_rejects_plan_outside_platform(self):
        with pytest.raises(ConfigError, match="only 4 OSTs"):
            run_tile(faults=FaultPlan.straggler_ost(17, 0.5))


class TestParallelFaultSweeps:
    def test_fault_sweep_bit_identical_serial_vs_two_jobs(self, tmp_path):
        plans = [None,
                 FaultPlan.straggler_ost(0, 0.25),
                 FaultPlan.flaky(0.4, ost=1),
                 FaultPlan.stall(2, 0.0, 0.01)]
        tasks = [tile_task(faults=p) for p in plans]
        serial = ExperimentExecutor(jobs=1, cache=False).run_many(tasks)
        pooled = ExperimentExecutor(jobs=2, cache=False).run_many(tasks)
        assert [metrics(r) for r in serial] == [metrics(r) for r in pooled]

    def test_cached_fault_run_round_trips(self, tmp_path):
        task = tile_task(faults=FaultPlan.flaky(0.4, ost=1))
        ex = ExperimentExecutor(jobs=1, cache_dir=tmp_path)
        first = ex.run_many([task])[0]
        again = ex.run_many([task])[0]
        assert ex.cache.hits >= 1
        assert metrics(first) == metrics(again)

    def test_exhaustion_surfaces_inline_through_run_many(self):
        task = tile_task(faults=FaultPlan.flaky(1.0, ost=0),
                         retry={"max_attempts": 2})
        ex = ExperimentExecutor(jobs=1, cache=False)
        with pytest.raises(FaultExhaustedError) as err:
            ex.run_many([task])
        assert err.value.ost == 0
        assert err.value.attempts == 2

    def test_exhaustion_surfaces_from_pool_with_worker_traceback(self):
        from repro.harness.parallel import RemoteTraceback

        task = tile_task(faults=FaultPlan.flaky(1.0, ost=0),
                         retry={"max_attempts": 2})
        ex = ExperimentExecutor(jobs=2, cache=False)
        with pytest.raises(FaultExhaustedError) as err:
            ex.run_many([task, tile_task()])
        assert err.value.attempts == 2
        # the worker's failure site rides along as the cause
        cause = err.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "FaultExhaustedError" in cause.tb
        assert "rpc_delay" in cause.tb or "fault" in cause.tb


class TestFaultSweepHarness:
    def test_sweep_tasks_grid_shape_and_identity(self):
        from repro.harness.fault_sweep import fault_class, sweep_tasks

        fc = fault_class("straggler")
        tasks = sweep_tasks(fc, (0.0, 0.9), "small")
        assert len(tasks) == 4  # 2 severities x 2 protocols
        assert tasks[0].config.faults.is_empty
        assert not tasks[2].config.faults.is_empty
        assert len({t.cache_key() for t in tasks}) == 4

    def test_unknown_class_and_scale_fail_fast(self):
        from repro.harness.fault_sweep import fault_sweep, scale_info

        with pytest.raises(ConfigError, match="unknown fault class"):
            fault_sweep("gremlins")
        with pytest.raises(ConfigError, match="unknown fault-sweep scale"):
            scale_info("galactic")

    def test_straggler_sweep_shows_containment(self):
        from repro.harness.fault_sweep import fault_sweep

        res = fault_sweep("straggler", severities=(0.9,), scale="small",
                          executor=ExperimentExecutor(jobs=1, cache=False))
        flat = res.series["ext2ph retained"][0.9]
        part = res.series["parcoll retained"][0.9]
        assert part > flat
        assert res.series["ext2ph retained"][0.0] == 1.0


def test_run_report_renders_counts():
    from repro.harness.report import run_report

    res = run_tile(faults=FaultPlan.flaky(0.4, ost=1))
    text = run_report(res)
    assert "fault_retry" in text
    assert "count" in text
