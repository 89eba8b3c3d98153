"""One shard's worker process: engine loop plus coordinator rounds.

The worker builds a full platform for the whole machine (identical
machine/network/fault construction to
:meth:`~repro.harness.runner.ExperimentConfig.build`, so node numbering
and profiles agree across shards), swaps in the :class:`ShardFS` proxy,
and spawns rank programs *only for owned ranks*.  Execution alternates
between two states:

1. **run** — the engine executes local events.  It parks when it either
   drains with tasks blocked on external events
   (``engine.external_pending``) or would advance past
   ``engine.stop_bound``, the earliest unanswered file-system request's
   submission time (a reply may resume a task any time after that
   instant, so running further would race the injection).
2. **exchange** — one synchronization round with the coordinator: ship
   newly submitted file-system requests and completed site partials,
   block for the reply, inject the authoritative completion times and
   merged site data, and resume.

The conservative invariants that make injection sound:

* a file-system reply's completion time is never below its request's
  submission time, and the engine never advanced past the latter;
* a bridged site's partial is only reported once *every* owned member
  has arrived — at that point all owned ranks are blocked on the site,
  so the shard's clock is at most the site's local arrival maximum,
  which is at most the merged exit time.
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import Any

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import ConfigError, ShardError, TaskFailedError
from repro.lustre import LustreParams
from repro.mpiio import MPIIO
from repro.perf import collect
from repro.shard.fsproxy import RemoteOpError, ShardFS
from repro.shard.plan import ShardPlan
from repro.shard.world import ShardWorld
from repro.sim.effects import WaitEvent
from repro.sim.engine import _K_FIRE, Event
from repro.workloads.base import WorkloadIOStats


class ShardRuntime:
    """The worker-side coordinator client: outboxes, tokens, injection."""

    def __init__(self, conn, shard_id: int, nprocs: int):
        self.conn = conn
        self.shard_id = shard_id
        self.engine = None  # bound after the world is built
        #: req id -> (t_submit, completion event)
        self.pending_fs: dict[int, tuple[float, Event]] = {}
        self._next_req = 0
        self.fs_outbox: list[tuple] = []
        self.site_outbox: list[tuple] = []
        #: (ctx, op_seq) -> _BridgedSite partials
        self.bridged_sites: dict[tuple[int, int], Any] = {}
        self.sync_rounds = 0

    # -- called from ShardFS inside rank tasks --------------------------
    def fs_call(self, client: int, op: str, args: tuple):
        """Round-trip one file-system operation; blocks the caller until
        the coordinator's reply injects the completion."""
        eng = self.engine
        self._next_req += 1
        rid = self._next_req
        t = eng.now
        ev = Event(eng, ("fsreq", self.shard_id, rid))
        self.pending_fs[rid] = (t, ev)
        self.fs_outbox.append((rid, t, client, op, args))
        eng.external_pending += 1
        if eng.stop_bound is None or t < eng.stop_bound:
            eng.stop_bound = t
        reply = yield WaitEvent(ev)
        if type(reply) is RemoteOpError:
            raise reply.exc
        return reply

    # -- called from the worker loop -------------------------------------
    def exchange(self) -> None:
        """One synchronization round: report, block, inject the reply."""
        self.conn.send(("report", self.shard_id, self.engine.now,
                        self.fs_outbox, self.site_outbox))
        self.fs_outbox = []
        self.site_outbox = []
        msg = self.conn.recv()
        if msg[0] == "stop":
            raise ShardError(
                f"coordinator aborted the run: {msg[1]}")
        _, fs_replies, completions = msg
        eng = self.engine
        for rid, t_done, value in fs_replies:
            _t, ev = self.pending_fs.pop(rid)
            eng.external_pending -= 1
            eng._sched(t_done, _K_FIRE, ev, value)
        for ctx, op_seq, values, arrivals, order in completions:
            site = self.bridged_sites.pop((ctx, op_seq))
            eng.external_pending -= site.nlocal
            # Wake the local participants in the canonical resume order
            # (the order their Sleep-to-exit entries must take on the
            # heap), not local arrival order: an unsharded site resumes
            # the firing rank first, then waiters — same-time scheduling
            # downstream (NIC reservations, subgroup exchange pairing)
            # depends on it.  Waiter i is the i-th arrival, so permute
            # the waiter list by each rank's canonical position.
            pos = {r: i for i, r in enumerate(order)}
            arrival_ranks = list(site.arrivals)
            waiters = site.event._waiters
            if len(waiters) == len(arrival_ranks):
                perm = sorted(range(len(arrival_ranks)),
                              key=lambda i: pos[site.members[
                                  arrival_ranks[i]]])
                waiters[:] = [waiters[i] for i in perm]
            site.event.fire((values, arrivals))
        eng.stop_bound = (min(t for t, _ev in self.pending_fs.values())
                          if self.pending_fs else None)
        self.sync_rounds += 1


def build_shard_platform(config, owned: range, runtime: ShardRuntime):
    """Mirror :meth:`ExperimentConfig.build` with shard-aware parts."""
    from repro.faults import FaultInjector, FaultPlan

    machine = MachineConfig(nprocs=config.nprocs,
                            cores_per_node=config.cores_per_node,
                            mapping=config.mapping)
    plan = FaultPlan.coerce(config.faults)
    injector = None
    if not plan.is_empty:
        injector = FaultInjector(plan, seed=config.seed)
    world = ShardWorld(machine, net_params=NetworkParams(**config.net),
                       collective_mode=config.collective_mode,
                       faults=injector, owned=owned, runtime=runtime)
    runtime.engine = world.engine
    lustre_kw = {"store_data": False, **config.lustre}
    fs = ShardFS(world.engine, LustreParams(**lustre_kw), runtime)
    default_hints = ({"protocol": config.protocol}
                     if config.protocol is not None else None)
    io = MPIIO(world, fs, validate=True if config.validate else None,
               default_hints=default_hints)
    return world, fs, io


def _worker_main(conn, shard_id: int, config, program,
                 plan: ShardPlan) -> None:
    """Process entry point for one shard (fork start method)."""
    try:
        owned = plan.owned_ranks(shard_id)
        runtime = ShardRuntime(conn, shard_id, config.nprocs)
        world, _fs, io = build_shard_platform(config, owned, runtime)
        engine = world.engine

        def rank_main(comm):
            stats = yield from program(comm, io)
            if not isinstance(stats, WorkloadIOStats):
                raise ConfigError(
                    "workload programs must return a WorkloadIOStats")
            return stats

        t0 = time.perf_counter()
        c0 = time.process_time()
        tasks = {
            r: engine.spawn(rank_main(world.procs[r].comm_world),
                            name=("rank", r))
            for r in owned
        }
        while True:
            try:
                engine.run()
            except TaskFailedError as exc:
                raise exc.original from exc
            if all(t.done for t in tasks.values()):
                break
            runtime.exchange()
        for t in tasks.values():
            if t.error is not None:
                raise t.error
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        payload = {
            "results": {r: t.result for r, t in tasks.items()},
            "now": engine.now,
            "breakdowns": {r: world.procs[r].breakdown for r in owned},
            "events": engine.effects_dispatched,
            "messages": world.network.messages_sent,
            "backend": world.collective_mode,
            "perf": collect(world, wall_seconds=wall),
            "validation": (io.validator.report.to_dict()
                           if io.validator is not None else None),
            "sync_rounds": runtime.sync_rounds,
            "wall": wall,
            "cpu": cpu,
        }
        conn.send(("done", shard_id, payload))
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        tb = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        try:
            conn.send(("error", shard_id, exc, tb))
        except Exception:  # parent already gone; nothing to report to
            pass
    finally:
        conn.close()
