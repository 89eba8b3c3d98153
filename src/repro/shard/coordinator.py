"""The parent-side shard coordinator: global FS, bridged sites, merge.

The coordinator owns everything that is machine-global and timing-
relevant: the one real :class:`~repro.lustre.LustreFS` (OST FIFO
watermarks, MDS serialization, lock manager, jitter RNG streams, fault
RPC schedules) and the synchronization sites of world-spanning analytic
collectives.  Shards interact with it in *rounds* — a shard runs freely
until it parks (every runnable event either crossed an unanswered
file-system request's submission time or blocked on a bridged site),
reports, and waits for a reply.

Round protocol
--------------
``outstanding`` is the set of shards that received a reply last round
(initially: all).  Each round blocks for one message from every
outstanding shard, then pumps:

1. every bridged site whose membership is complete is finished — the
   merged (values, arrivals) set goes back to the owning shards so each
   computes the identical combine result and exit time an unsharded
   analytic site would have, and the completion is assigned an *epoch*
   plus a merged resume order that re-seeds the cross-shard ordering
   tokens;
2. queued file-system requests are served in the canonical global order
   ``(t, epoch, pos)`` while the head stays at or below the *floor* —
   the earliest time any shard that will resume this round could submit
   a new request (its parked clock).  Requests above the floor wait a
   round; this is classic conservative lower-bound-time-stamp
   synchronization with the parked clocks as the lookahead.

Each served request runs the real file system's generator on a private
coordinator engine whose clock is pinned to the request's submission
time, so reservations, lock revocations, jitter draws and fault retries
happen in exactly the global order and at exactly the virtual times of
an unsharded run.  Same-time requests are ordered by client rank — the
same canonical rule :meth:`LustreFS._commit` imposes inside an
unsharded engine — which together is what makes the merged result
bit-identical.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import Counter
from typing import Any, Optional

from repro.errors import ShardError, TaskFailedError
from repro.harness.runner import ExperimentConfig, RunResult
from repro.lustre import LustreFS, LustreParams
from repro.perf import merge as perf_merge
from repro.shard.fsproxy import RemoteOpError
from repro.shard.plan import ShardPlan
from repro.shard.worker import _worker_main
from repro.sim.engine import Engine
from repro.simmpi.timers import summarize


class _SiteState:
    """One world-spanning collective site being merged across shards."""

    __slots__ = ("kind", "size", "values", "arrivals", "shards")

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.size = size
        self.values: dict[int, Any] = {}
        self.arrivals: dict[int, float] = {}
        self.shards: set[int] = set()


class _ShardState:
    """Coordinator-side view of one worker."""

    __slots__ = ("conn", "proc", "pend", "park_now", "fs_out", "site_out",
                 "done", "payload")

    def __init__(self, conn, proc):
        self.conn = conn
        self.proc = proc
        #: queued unserved requests, in the shard's submission order
        #: (which is its local canonical order): (key, rid, client, op,
        #: args) with key = (t, epoch, pos)
        self.pend: list[tuple] = []
        self.park_now = 0.0
        self.fs_out: list[tuple] = []
        self.site_out: list[tuple] = []
        self.done = False
        self.payload: Optional[dict] = None


class ShardCoordinator:
    """Runs one sharded experiment to completion."""

    def __init__(self, config: ExperimentConfig, program, plan: ShardPlan):
        self.config = config
        self.program = program
        self.plan = plan
        #: private engine the authoritative LustreFS runs on; its clock
        #: is pinned to each request's submission time before service
        self.engine = Engine()
        self.fs = self._build_fs()
        self.sites: dict[tuple[int, int], _SiteState] = {}
        self.rounds = 0
        self.shards: dict[int, _ShardState] = {}

    # ------------------------------------------------------------------
    def _build_fs(self) -> LustreFS:
        """The authoritative file system, mirroring
        :meth:`ExperimentConfig.build` (same params, seed, faults,
        retry) but driven by the stub clock instead of an engine."""
        from repro.cluster import MachineConfig
        from repro.faults import FaultInjector, FaultPlan, RetryPolicy

        cfg = self.config
        plan = FaultPlan.coerce(cfg.faults)
        injector = None
        if not plan.is_empty:
            injector = FaultInjector(plan, seed=cfg.seed)
        lustre_kw = {"store_data": False, **cfg.lustre}
        retry = RetryPolicy(**cfg.retry) if cfg.retry else None
        fs = LustreFS(self.engine, LustreParams(**lustre_kw),
                      seed=cfg.seed, faults=injector, retry=retry)
        if injector is not None:
            machine = MachineConfig(nprocs=cfg.nprocs,
                                    cores_per_node=cfg.cores_per_node,
                                    mapping=cfg.mapping)
            injector.validate_platform(fs.params.n_osts, machine.nnodes)
        return fs

    # ------------------------------------------------------------------
    # round handling
    # ------------------------------------------------------------------
    def _absorb(self, sid: int, msg: tuple) -> None:
        st = self.shards[sid]
        if msg[0] == "error":
            self._abort("a sibling shard failed")
            from repro.harness.parallel import _reraise

            _reraise(msg[2], msg[3])
        if msg[0] == "done":
            st.done = True
            st.payload = msg[2]
            if st.pend:
                raise ShardError(
                    f"shard {sid} finished with {len(st.pend)} unserved "
                    "file-system request(s)")
            return
        if msg[0] != "report":
            raise ShardError(f"unexpected message {msg[0]!r} from "
                             f"shard {sid}")
        _kind, _sid, now, reqs, parts = msg
        st.park_now = now
        for rid, t, client, op, args in reqs:
            st.pend.append(((t, client), rid, client, op, args))
        if reqs:
            # canonical (t, client) order; a shard's same-instant
            # submission order is a scheduling artifact, not the order
            st.pend.sort(key=lambda e: e[0])
        for ctx, op_seq, kind, size, values, arrivals in parts:
            if ctx != 0:
                raise ShardError(
                    f"bridged collective on communicator ctx={ctx}: only "
                    "COMM_WORLD may span shards under the current plan")
            site = self.sites.get((ctx, op_seq))
            if site is None:
                site = _SiteState(kind, size)
                self.sites[(ctx, op_seq)] = site
            elif site.kind != kind:
                raise ShardError(
                    f"collective call mismatch at world op #{op_seq}: "
                    f"{kind!r} vs {site.kind!r}")
            site.values.update(values)
            site.arrivals.update(arrivals)
            site.shards.add(sid)

    def _complete_sites(self) -> None:
        for key in sorted(self.sites):
            site = self.sites[key]
            if len(site.values) != site.size:
                continue
            # Stable sort by arrival time: equal-time arrivals keep the
            # order the shards reported them in, which preserves each
            # shard's local arrival sequence — the property the workers'
            # waiter reordering relies on.
            order = sorted(site.arrivals, key=site.arrivals.get)
            # the globally-last arrival completes the site and resumes
            # inline — before the parked waiters — in an unsharded run
            # (see Communicator._analytic_site), so it leads the
            # canonical resume order
            order = [order[-1]] + order[:-1]
            completion = (key[0], key[1], site.values, site.arrivals,
                          order)
            for sid in site.shards:
                self.shards[sid].site_out.append(completion)
            del self.sites[key]

    def _floor(self) -> float:
        """Earliest time any shard that resumes this round could submit
        a new file-system request."""
        floor = float("inf")
        for st in self.shards.values():
            if st.done:
                continue
            if st.fs_out or st.site_out:
                floor = min(floor, st.park_now)
            elif st.pend:
                floor = min(floor, st.pend[0][0][0])
        return floor

    def _serve_fs(self) -> None:
        while True:
            floor = self._floor()
            best_sid = -1
            best_key = None
            for sid, st in self.shards.items():
                if st.pend and (best_key is None
                                or st.pend[0][0] < best_key):
                    best_key = st.pend[0][0]
                    best_sid = sid
            if best_key is None or best_key[0] > floor:
                return
            st = self.shards[best_sid]
            key, rid, client, op, args = st.pend.pop(0)
            st.fs_out.append(self._serve_one(key[0], client, op, args, rid))

    def _serve_one(self, t: float, client: int, op: str, args: tuple,
                   rid: int) -> tuple:
        eng, fs = self.engine, self.fs
        # Pin the clock to the submission time.  The engine is drained
        # between ops, so rewinding from the previous op's completion
        # time is safe — and required: two queued requests at the same
        # instant must both observe it as their arrival time.
        eng.now = t
        try:
            if op == "open":
                name, create, sc, ss = args
                f = self._run_op(fs.open(name, create=create,
                                         stripe_count=sc, stripe_size=ss,
                                         client=client))
                value: Any = (f.layout.stripe_size, f.layout.stripe_count,
                              f.layout.n_osts, f.layout.start_ost,
                              f.store is not None)
            elif op == "write":
                name, offsets, lengths, data = args
                f = fs.lookup(name)
                total = self._run_op(fs.write(f, client, offsets, lengths,
                                              data=data))
                value = (total, fs.take_retry(client))
            elif op == "read":
                name, offsets, lengths = args
                f = fs.lookup(name)
                data = self._run_op(fs.read(f, client, offsets, lengths))
                value = (data, fs.take_retry(client))
            elif op == "unlink":
                self._run_op(fs.unlink(args[0], client=client))
                value = None
            elif op == "mds_close":
                self._run_op(fs.mds_close(client=client))
                value = None
            else:
                raise ShardError(f"unknown file-system op {op!r}")
        except ShardError:
            raise
        except BaseException as exc:  # noqa: BLE001 - replayed in worker
            return (rid, eng.now, RemoteOpError(exc))
        return (rid, eng.now, value)

    def _run_op(self, gen) -> Any:
        """Run one FS generator as a task on the coordinator engine."""
        task = self.engine.spawn(gen)
        try:
            self.engine.run()
        except TaskFailedError as exc:
            raise exc.original from exc
        if task.error is not None:
            raise task.error
        return task.result

    def _abort(self, reason: str) -> None:
        for st in self.shards.values():
            if st.done:
                continue
            try:
                st.conn.send(("stop", reason))
            except Exception:
                pass

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        ctx = mp.get_context("fork")
        nshards = self.plan.effective
        t0 = time.perf_counter()
        for sid in range(nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, sid, self.config, self.program, self.plan),
                daemon=True, name=f"shard-{sid}")
            proc.start()
            child_conn.close()
            self.shards[sid] = _ShardState(parent_conn, proc)
        try:
            outstanding = set(range(nshards))
            while True:
                for sid in sorted(outstanding):
                    try:
                        msg = self.shards[sid].conn.recv()
                    except EOFError:
                        raise ShardError(
                            f"shard {sid} exited without reporting "
                            "(killed or crashed before the error path)")
                    self._absorb(sid, msg)
                outstanding.clear()
                if all(st.done for st in self.shards.values()):
                    break
                self._complete_sites()
                self._serve_fs()
                receivers = [sid for sid, st in self.shards.items()
                             if not st.done and (st.fs_out or st.site_out)]
                if not receivers:
                    self._abort("no shard can make progress")
                    blocked = {
                        sid: {"park_now": st.park_now,
                              "queued_fs": len(st.pend)}
                        for sid, st in self.shards.items() if not st.done}
                    raise ShardError(
                        "conservative synchronization stalled: no site "
                        "completable, no file-system request below the "
                        f"floor; shard state: {blocked}")
                for sid in receivers:
                    st = self.shards[sid]
                    st.conn.send(("reply", st.fs_out, st.site_out))
                    st.fs_out = []
                    st.site_out = []
                    outstanding.add(sid)
                self.rounds += 1
            wall = time.perf_counter() - t0
            return self._merge(wall)
        except BaseException:
            self._abort("coordinator failed")
            raise
        finally:
            for st in self.shards.values():
                st.conn.close()
                st.proc.join(timeout=5)
                if st.proc.is_alive():
                    st.proc.terminate()
                    st.proc.join()

    # ------------------------------------------------------------------
    def _merge(self, wall: float) -> RunResult:
        payloads = [self.shards[sid].payload for sid in range(len(self.shards))]
        per_rank: list[Any] = [None] * self.config.nprocs
        breakdowns: list[Any] = [None] * self.config.nprocs
        for p in payloads:
            for r, stats in p["results"].items():
                per_rank[r] = stats
            for r, bd in p["breakdowns"].items():
                breakdowns[r] = bd
        validation = None
        if any(p["validation"] is not None for p in payloads):
            checks: Counter = Counter()
            violations: list = []
            for p in payloads:
                if p["validation"]:
                    checks.update(p["validation"].get("checks", {}))
                    violations.extend(p["validation"].get("violations", []))
            validation = {"checks": dict(checks), "violations": violations}
        perf = perf_merge([p["perf"] for p in payloads])
        perf.wall_seconds = wall
        walls = [p["wall"] for p in payloads]
        perf.shard = shard_stats(
            self.plan,
            sync_rounds=self.rounds,
            per_shard_events=[p["events"] for p in payloads],
            per_shard_wall=walls,
            per_shard_cpu=[p["cpu"] for p in payloads])
        return RunResult(
            config=self.config,
            per_rank=per_rank,
            breakdown=summarize(breakdowns),
            # shard engines plus the coordinator's own FS engine — the
            # file-system commits it dispatched ran inline in the single
            # engine of an unsharded run
            events=sum(p["events"] for p in payloads)
            + self.engine.effects_dispatched,
            messages=sum(p["messages"] for p in payloads),
            elapsed_total=max(p["now"] for p in payloads),
            backend=payloads[0]["backend"],
            perf=perf,
            validation=validation,
        )


def shard_stats(plan: ShardPlan, sync_rounds: int = 0,
                per_shard_events: Optional[list] = None,
                per_shard_wall: Optional[list] = None,
                per_shard_cpu: Optional[list] = None) -> dict:
    """The shard-observability block attached to ``PerfStats.shard``.

    Wall times include the time a shard spends blocked on coordinator
    rounds (and, on machines with fewer cores than shards, preempted),
    so they converge toward the slowest shard; CPU seconds measure each
    shard's own compute and are what load balancing and the multi-core
    critical path (``max_shard_cpu``) are judged by.
    """
    out: dict[str, Any] = {
        "shards": plan.shards,
        "effective": plan.effective,
        "fallback_reason": plan.reason,
        "sync_rounds": sync_rounds,
    }
    if per_shard_events:
        out["per_shard_events"] = list(per_shard_events)
    if per_shard_wall:
        walls = [float(w) for w in per_shard_wall]
        out["per_shard_wall"] = [round(w, 4) for w in walls]
        out["max_shard_wall"] = round(max(walls), 4)
        out["min_shard_wall"] = round(min(walls), 4)
    loads = [float(c) for c in per_shard_cpu] if per_shard_cpu else \
        ([float(w) for w in per_shard_wall] if per_shard_wall else None)
    if per_shard_cpu:
        out["per_shard_cpu"] = [round(c, 4) for c in loads]
        out["max_shard_cpu"] = round(max(loads), 4)
    if loads:
        mean = sum(loads) / len(loads)
        out["load_imbalance"] = round(max(loads) / mean, 4) if mean > 0 \
            else 0.0
    return out


def run_sharded(config: ExperimentConfig, program,
                plan: ShardPlan) -> RunResult:
    """Run one experiment partitioned over ``plan.effective`` shards."""
    return ShardCoordinator(config, program, plan).run()
