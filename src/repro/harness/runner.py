"""Build a platform from a config, run a workload, collect metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import ConfigError
from repro.lustre import LustreFS, LustreParams
from repro.mpiio import MPIIO
from repro.perf import PerfStats, collect
from repro.simmpi import World
from repro.simmpi.timers import summarize
from repro.workloads.base import WorkloadIOStats


@dataclass(frozen=True)
class ExperimentConfig:
    """Platform configuration for one run.

    ``net`` and ``lustre`` are keyword overrides for
    :class:`NetworkParams` / :class:`LustreParams`; experiments default to
    model mode (no data bytes) so paper-scale runs stay cheap.

    ``collective_mode`` is a collective-fidelity backend spec
    (:mod:`repro.simmpi.backends`): ``analytic``, ``detailed``,
    ``macro``, or ``scoped[:world=<fidelity>,default=<fidelity>]`` for
    one fidelity on the world communicator and another on every
    communicator derived from it.

    ``faults`` is a :class:`~repro.faults.FaultPlan` (or its ``to_dict``
    mapping / event tuple); an empty plan is the default and leaves the
    platform untouched.  ``retry`` holds keyword overrides for the
    platform :class:`~repro.faults.RetryPolicy`.  Both hash into the run
    cache key, so runs differing only in faults or retry never collide.
    """

    nprocs: int
    cores_per_node: int = 2
    mapping: str = "block"
    collective_mode: str = "analytic"
    #: collective-I/O protocol (a name in :data:`repro.mpiio.PROTOCOLS`)
    #: used as the platform-wide default for files opened without an
    #: explicit ``protocol`` hint; None keeps the library default
    #: ('ext2ph')
    protocol: Optional[str] = None
    net: dict = field(default_factory=dict)
    lustre: dict = field(default_factory=dict)
    seed: int = 0
    faults: Any = None
    retry: dict = field(default_factory=dict)
    #: run the :mod:`repro.validate` correctness oracle: True forces it
    #: on, False leaves the platform default (the ``REPRO_VALIDATE``
    #: environment variable still applies)
    validate: bool = False
    #: engine shards for the sharded parallel DES (:mod:`repro.shard`):
    #: >1 partitions the event space along FA-subgroup boundaries into
    #: that many worker processes when the config satisfies the
    #: partition contract, and falls back to an unsharded run (with the
    #: reason recorded in ``perf.shard``) when it does not
    shards: int = 1

    def build(self) -> tuple[World, LustreFS, MPIIO]:
        from repro.faults import FaultInjector, FaultPlan, RetryPolicy

        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        machine = MachineConfig(nprocs=self.nprocs,
                                cores_per_node=self.cores_per_node,
                                mapping=self.mapping)
        plan = FaultPlan.coerce(self.faults)
        injector = None
        if not plan.is_empty:
            injector = FaultInjector(plan, seed=self.seed)
        world = World(machine, net_params=NetworkParams(**self.net),
                      collective_mode=self.collective_mode,
                      faults=injector)
        lustre_kw = {"store_data": False, **self.lustre}
        retry = RetryPolicy(**self.retry) if self.retry else None
        fs = LustreFS(world.engine, LustreParams(**lustre_kw), seed=self.seed,
                      faults=injector, retry=retry)
        if injector is not None:
            injector.validate_platform(fs.params.n_osts, machine.nnodes)
        default_hints = ({"protocol": self.protocol}
                         if self.protocol is not None else None)
        return world, fs, MPIIO(world, fs,
                                validate=True if self.validate else None,
                                default_hints=default_hints)


@dataclass
class RunResult:
    """Aggregated metrics of one experiment run."""

    config: ExperimentConfig
    per_rank: list[WorkloadIOStats]
    breakdown: dict[str, dict[str, float]]
    events: int
    messages: int
    elapsed_total: float
    #: canonical spec of the collective backend the run used
    backend: str = ""
    #: simulation-core counters sampled from the run (None on results
    #: unpickled from caches written before the perf layer existed)
    perf: Optional["PerfStats"] = None
    #: ``ValidationReport.to_dict()`` of a validated run (None when the
    #: correctness oracle was off; a dict with zero checks means the
    #: oracle was on but the workload never exercised it)
    validation: Optional[dict] = None

    def _phase(self, attr: str) -> tuple[int, float]:
        total_bytes = 0
        start, end = None, None
        for st in self.per_rank:
            times = getattr(st, attr)
            total_bytes += (st.bytes_written if attr == "write_times"
                            else st.bytes_read)
            if times is None:
                continue
            start = times.start if start is None else min(start, times.start)
            end = times.end if end is None else max(end, times.end)
        if start is None or end <= start:
            return total_bytes, 0.0
        return total_bytes, end - start

    @property
    def write_bandwidth(self) -> float:
        """Aggregate write bandwidth in bytes/second."""
        nbytes, secs = self._phase("write_times")
        return nbytes / secs if secs > 0 else 0.0

    @property
    def read_bandwidth(self) -> float:
        nbytes, secs = self._phase("read_times")
        return nbytes / secs if secs > 0 else 0.0

    @property
    def io_phase_bandwidth(self) -> float:
        """Bandwidth over summed I/O-operation time (excludes compute
        phases between operations; slowest rank governs)."""
        total = sum(s.bytes_written + s.bytes_read for s in self.per_rank)
        worst = max((s.io_seconds for s in self.per_rank), default=0.0)
        return total / worst if worst > 0 else 0.0

    def category_share(self, category: str) -> float:
        """Fraction of the summed accounted time in one category."""
        total = sum(v["sum"] for v in self.breakdown.values())
        if total <= 0:
            return 0.0
        return self.breakdown.get(category, {}).get("sum", 0.0) / total


Program = Callable[[Any, Any], Generator[Any, Any, WorkloadIOStats]]


def run_experiment(config: ExperimentConfig, program: Program) -> RunResult:
    """Run ``program(comm, io)`` on every rank of a fresh platform.

    With ``config.shards > 1`` and a plan-conforming configuration the
    run is partitioned over that many engine shards in worker processes
    (:mod:`repro.shard`); the merged result is bit-identical in every
    virtual-time metric to the unsharded run.  Non-conforming configs
    fall back to a single engine and record why in ``perf.shard``.
    """
    import time

    plan = None
    if config.shards > 1:
        from repro.shard import analyze, workload_hints_of

        plan = analyze(config, workload_hints_of(program))
        if plan.active:
            from repro.shard.coordinator import run_sharded

            return run_sharded(config, program, plan)

    world, fs, io = config.build()

    def rank_main(comm):
        stats = yield from program(comm, io)
        if not isinstance(stats, WorkloadIOStats):
            raise ConfigError(
                "workload programs must return a WorkloadIOStats"
            )
        return stats

    t0 = time.perf_counter()
    per_rank = world.launch(rank_main)
    wall = time.perf_counter() - t0
    perf = collect(world, wall_seconds=wall)
    if plan is not None:
        from repro.shard.coordinator import shard_stats

        perf.shard = shard_stats(plan)
    return RunResult(
        config=config,
        per_rank=per_rank,
        breakdown=summarize(world.breakdowns),
        events=world.engine.effects_dispatched,
        messages=world.network.messages_sent,
        elapsed_total=world.engine.now,
        backend=world.collective_mode,
        perf=perf,
        validation=(io.validator.report.to_dict()
                    if io.validator is not None else None),
    )
