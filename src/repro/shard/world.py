"""One engine shard's view of the machine.

A :class:`ShardWorld` is a full :class:`~repro.simmpi.World` — every
rank's mailbox, node placement and NIC resources are constructed
identically in every shard so that node numbering, network parameters
and fault profiles agree bit-for-bit — but only the *owned* ranks are
ever spawned.  Two guards keep the partition honest:

* point-to-point messages whose source and destination fall in
  different shards raise :class:`~repro.errors.ShardError` (the shard
  plan guarantees this cannot happen for plan-conforming workloads;
  hitting it means the plan and the workload disagree);
* world-spanning collectives go through a *bridged* synchronization
  site: the local arrivals are batched to the coordinator, merged with
  every other shard's, and the combined (values, arrivals) set comes
  back so each shard computes the identical combine result and exit
  time an unsharded analytic site would have produced.

Bridging also re-establishes the canonical cross-shard ordering token:
after each bridged site the coordinator ships the merged resume order,
and a rank's position in it becomes the tie-break for same-timestamp
file-system requests (see :mod:`repro.shard.coordinator`).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ShardError
from repro.sim.effects import Sleep, WaitEvent
from repro.sim.engine import Engine, Event
from repro.simmpi.payload import Payload
from repro.simmpi.world import CommDescriptor, Communicator, World


class _BridgedSite:
    """Local half of one world-spanning analytic collective site."""

    __slots__ = ("event", "kind", "nlocal", "members", "values", "arrivals",
                 "results", "exit_time", "posted")

    def __init__(self, engine: Engine, name: Any, kind: str, nlocal: int,
                 members: list[int]):
        self.event = Event(engine, name)
        self.kind = kind
        #: how many owned ranks participate (partial reported when full)
        self.nlocal = nlocal
        #: group rank -> world rank for the whole communicator
        self.members = members
        self.values: dict[int, Any] = {}
        self.arrivals: dict[int, float] = {}
        #: combine/exit computed once from the merged reply, then shared
        self.results: Any = None
        self.exit_time: float = 0.0
        self.posted = False


class ShardWorld(World):
    """A :class:`World` owning one contiguous block of subgroups."""

    def __init__(self, *args, owned: range, runtime, **kwargs):
        #: world ranks this shard executes (contiguous, node-aligned)
        self.owned = owned
        self._owned_set = frozenset(owned)
        #: the worker-side coordinator client (ShardRuntime)
        self.runtime = runtime
        self._span_cache: dict[int, bool] = {}
        super().__init__(*args, **kwargs)
        world_desc = self.procs[0].comm_world.desc
        for proc in self.procs:
            proc.comm_world = ShardCommunicator(proc, world_desc)

    def spans_shards(self, desc: CommDescriptor) -> bool:
        """Does ``desc`` include both owned and foreign ranks?"""
        hit = self._span_cache.get(desc.ctx)
        if hit is None:
            owned = self._owned_set
            mine = sum(1 for r in desc.members if r in owned)
            hit = 0 < mine < len(desc.members)
            self._span_cache[desc.ctx] = hit
        return hit

    def send_message_ev(self, src: int, dst: int, ctx: int, tag: int,
                        payload: Payload) -> "tuple | Event":
        if (src in self._owned_set) != (dst in self._owned_set):
            raise ShardError(
                f"point-to-point message {src}->{dst} (ctx {ctx}, tag "
                f"{tag}) crosses the shard boundary; the shard plan "
                f"owns ranks [{self.owned.start}, {self.owned.stop}) — "
                "cross-shard traffic must ride analytic collectives")
        return super().send_message_ev(src, dst, ctx, tag, payload)


class ShardCommunicator(Communicator):
    """A communicator whose world-spanning analytic sites are bridged."""

    def _analytic_site(self, value: Any,
                       combine: Callable[[dict[int, Any]], list],
                       cost: Callable[[dict[int, Any]], float],
                       kind: str = "generic") -> Generator[Any, Any, Any]:
        world: ShardWorld = self.world  # type: ignore[assignment]
        desc = self.desc
        if not world.spans_shards(desc):
            return (yield from super()._analytic_site(value, combine, cost,
                                                      kind))
        rt = world.runtime
        key = (desc.ctx, self._op_seq)
        site = rt.bridged_sites.get(key)
        if site is None:
            owned = world._owned_set
            nlocal = sum(1 for r in desc.members if r in owned)
            site = _BridgedSite(self.engine, ("bridge",) + key, kind, nlocal,
                                desc.members)
            rt.bridged_sites[key] = site
        elif site.kind != kind:
            from repro.errors import MPIError

            raise MPIError(
                f"collective call mismatch on communicator {desc.ctx}: "
                f"rank {self.rank} called {kind!r} while another rank "
                f"called {site.kind!r} at the same point "
                f"(op #{self._op_seq})")
        site.values[self.rank] = value
        site.arrivals[self.rank] = self.now
        self.engine.external_pending += 1
        if len(site.values) == site.nlocal and not site.posted:
            # every owned member is in: the partial is final, and all of
            # them are now blocked here, so the engine cannot advance
            # past the (still unknown) exit time before the reply lands
            site.posted = True
            rt.site_outbox.append(
                (desc.ctx, self._op_seq, kind, self.size,
                 dict(site.values), dict(site.arrivals)))
        values, arrivals = yield WaitEvent(site.event)
        if site.results is None:
            site.results = combine(values)
            site.exit_time = max(arrivals.values()) + cost(values)
        if site.exit_time > self.now:
            yield Sleep(site.exit_time - self.now)
        return site.results[self.rank]
