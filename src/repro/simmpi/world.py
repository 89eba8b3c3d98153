"""The simulated MPI world: processes, delivery, communicators.

A :class:`World` wires one :class:`Proc` per MPI rank to the machine's
network model and hands each a ``COMM_WORLD`` :class:`Communicator`.
Rank programs are generator functions ``program(comm) -> generator``;
:meth:`World.launch` spawns one per rank and runs the engine to
completion.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.cluster.machine import Machine, MachineConfig
from repro.cluster.network import NetworkModel, NetworkParams
from repro.errors import MPIError, ParCollError, TaskFailedError
from repro.perf import perf_counters
from repro.sim.effects import Sleep, WaitEvent
from repro.sim.engine import _K_CALL1, _K_FIRE, Engine, Event
from repro.simmpi import analytic, collectives_detailed as detailed
from repro.simmpi import collectives_macro as macro
from repro.simmpi.backends import CollectiveBackend, resolve_backend
from repro.simmpi.p2p import (Mailbox, Message, PostedRecv, Request,
                              RTS_BYTES, waitall)
from repro.simmpi.payload import Payload, sizeof
from repro.simmpi.reduce_ops import SUM, ReduceOp
from repro.simmpi.timers import TimeBreakdown


class Proc:
    """Per-rank state: mailbox, node placement, time accounting."""

    __slots__ = ("world", "rank", "node", "mailbox", "breakdown", "comm_world",
                 "cpu_profile")

    def __init__(self, world: "World", rank: int):
        self.world = world
        self.rank = rank
        self.node = world.machine.node_of_rank(rank)
        self.mailbox = Mailbox()
        self.breakdown = TimeBreakdown()
        self.comm_world: Communicator = None  # type: ignore[assignment]
        #: ServiceProfile from a NodeSlowdown fault, or None (nominal CPU)
        self.cpu_profile = None

    def compute(self, seconds: float) -> Generator[Any, Any, None]:
        """Spend ``seconds`` of local CPU time (charged to 'compute')."""
        if self.cpu_profile is not None:
            seconds = self.cpu_profile.finish_time(
                self.world.engine.now, seconds) - self.world.engine.now
        yield Sleep(seconds)
        self.breakdown.add("compute", seconds)


class CommDescriptor:
    """State shared by every rank's handle on one communicator."""

    __slots__ = ("ctx", "members", "rank_of", "sites", "fidelities",
                 "node_cache", "shared")

    def __init__(self, ctx: int, members: list[int]):
        self.ctx = ctx
        #: world ranks of the group, in group-rank order
        self.members = list(members)
        self.rank_of = {wr: i for i, wr in enumerate(self.members)}
        #: analytic collective sites keyed by op sequence number
        self.sites: dict[int, "_Site"] = {}
        #: per-op fidelity ledger for the backend symmetry check:
        #: op seq -> [fidelity, category, first group rank, arrivals]
        self.fidelities: dict[int, list] = {}
        #: node -> (leader, members) cache for the nodeagg protocol
        #: (:func:`repro.mpiio.nodeagg.node_groups`)
        self.node_cache: dict[int, tuple[int, list[int]]] = {}
        #: ``(key, value)`` built once for the latest collective call's
        #: ranks (:meth:`Communicator.once_per_call`)
        self.shared: Optional[tuple] = None


class _Site:
    """Synchronization site for one analytic collective call."""

    __slots__ = ("arrivals", "values", "event", "kind")

    def __init__(self, engine: Engine, name: str, kind: str):
        self.arrivals: dict[int, float] = {}
        self.values: dict[int, Any] = {}
        self.event = Event(engine, name)
        #: operation kind of the first arrival — mismatches mean the
        #: application called collectives in different orders per rank
        self.kind = kind


class World:
    """All ranks plus shared network/communicator state."""

    def __init__(self, machine: Machine | MachineConfig,
                 net_params: Optional[NetworkParams] = None,
                 collective_mode: str | CollectiveBackend = "analytic",
                 engine: Optional[Engine] = None,
                 faults: Optional["object"] = None):
        if isinstance(machine, MachineConfig):
            machine = Machine(machine)
        self.engine = engine or Engine()
        self.machine = machine
        self.network = NetworkModel(self.engine, machine, net_params)
        #: hot-path cache (NetworkParams is frozen for the world's lifetime)
        self._eager_threshold = self.network.params.eager_threshold
        #: default backend for every communicator without an override
        self.backend = resolve_backend(collective_mode)
        #: optional FaultInjector applying NodeSlowdown events here
        self.faults = faults
        self.nprocs = machine.nprocs
        self._msg_seq = 0
        self._next_ctx = 1
        #: registry of split-derived descriptors keyed (parent ctx, seq, color)
        self._split_registry: dict[tuple, CommDescriptor] = {}
        self.procs = [Proc(self, r) for r in range(self.nprocs)]
        if faults is not None:
            # a slow node is slow end to end: CPU and both NIC directions
            for n in range(machine.nnodes):
                prof = faults.node_profile(n)
                if prof is not None:
                    self.network.tx[n].profile = prof
                    self.network.rx[n].profile = prof
            for proc in self.procs:
                proc.cpu_profile = faults.node_profile(proc.node)
        world_desc = CommDescriptor(ctx=0, members=list(range(self.nprocs)))
        for proc in self.procs:
            proc.comm_world = Communicator(proc, world_desc)

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------
    def send_message_ev(self, src: int, dst: int, ctx: int, tag: int,
                        payload: Payload) -> Event:
        """Start a message; returns the sender-completion event."""
        if not 0 <= dst < self.nprocs:
            raise MPIError(f"destination rank {dst} out of range")
        eng = self.engine
        self._msg_seq += 1
        seq = self._msg_seq
        send_event = Event(eng, ("send", seq, src, dst))
        nbytes = payload.nbytes
        if nbytes <= self._eager_threshold:
            free, arrival = self.network.transfer(src, dst, nbytes)
            msg = Message(ctx, src, dst, tag, payload, False, None, seq)
            # the sender rarely waits on its completion before it has
            # passed: reserve the fire's slot, push it only if awaited
            send_event.fire_lazily_at(free)
            # inlined engine._sched for the delivery; transfer() never
            # returns a time before now
            now = eng.now
            if arrival == now:
                eng.heap_bypasses += 1
                eng._ready.append((_K_CALL1, self._deliver, msg))
            else:
                eng._seq += 1
                eng.heap_pushes += 1
                heappush(eng._heap,
                         (arrival, eng._seq, _K_CALL1, self._deliver, msg))
        else:
            _, hdr_arrival = self.network.transfer(src, dst, RTS_BYTES)
            msg = Message(ctx, src, dst, tag, payload, True, send_event, seq)
            eng._sched(hdr_arrival, _K_CALL1, self._deliver, msg)
        return send_event

    def send_batch(self, src: int,
                   entries: list[tuple[int, int, int, Payload]]
                   ) -> list[Request]:
        """Start many messages from one rank at once; returns requests.

        ``entries`` are ``(dst, ctx, tag, payload)`` tuples in issue
        order (world ranks).  Runs of consecutive eager-sized messages
        coalesce: their NIC reservations go through one vectorized
        :meth:`NetworkModel.transfer_batch`, one shared completion event
        fires when the last byte leaves the sender, and the deliveries
        drain through one rolling scheduler entry
        (:meth:`Engine.schedule_batch`) in arrival order.  Rendezvous
        payloads keep the per-message protocol — their schedule depends
        on receiver matching, which is not known up-front.

        Waiting on all returned requests completes at the same virtual
        time as issuing ``len(entries)`` :meth:`send_message_ev` calls in
        the same order; callers must not depend on *individual* eager
        request completions (they share one event).  Intended for
        macro-coalesced exchange rounds, where per-round message sets
        are static; the default per-message fidelities never call it.
        """
        eng = self.engine
        net = self.network
        nprocs = self.nprocs
        requests: list[Request] = []
        n = len(entries)
        i = 0
        coalesced = 0
        while i < n:
            if entries[i][3].nbytes > self._eager_threshold:
                dst, ctx, tag, payload = entries[i]
                requests.append(
                    Request(self.send_message_ev(src, dst, ctx, tag,
                                                 payload)))
                i += 1
                continue
            j = i
            while (j < n and entries[j][3].nbytes <= self._eager_threshold):
                if not 0 <= entries[j][0] < nprocs:
                    raise MPIError(
                        f"destination rank {entries[j][0]} out of range")
                j += 1
            run = entries[i:j]
            frees, arrivals = net.transfer_batch(
                src, [e[0] for e in run], [e[3].nbytes for e in run])
            self._msg_seq += 1
            ev = Event(eng, ("sendbatch", self._msg_seq, src))
            msgs = []
            for dst, ctx, tag, payload in run:
                self._msg_seq += 1
                msgs.append(Message(ctx, src, dst, tag, payload, False,
                                    None, self._msg_seq))
            eng._sched(float(frees.max()), _K_FIRE, ev, None)
            order = np.argsort(arrivals, kind="stable")
            eng.schedule_batch(
                [(float(arrivals[k]), self._deliver, msgs[k])
                 for k in order])
            requests.append(Request(ev))
            coalesced += len(run)
            i = j
        if coalesced:
            perf_counters.macro_rounds += 1
            perf_counters.messages_coalesced += coalesced
        return requests

    def post_recv_ev(self, dst: int, ctx: int, src: int, tag: int) -> Event:
        """Post a receive on rank ``dst``; the returned event fires with
        ``(payload, message)``."""
        self._msg_seq += 1
        seq = self._msg_seq
        event = Event(self.engine, ("recv", seq, "at", dst, "from", src,
                                    "tag", tag))
        mbox = self.procs[dst].mailbox
        msg = mbox.match_unexpected_key(ctx, src, tag)
        if msg is None:
            mbox.add_posted(PostedRecv(ctx, src, tag, event))
        elif not msg.rendezvous:
            # the event is fresh (no waiters yet), so firing it is a
            # plain value store
            event._value = (msg.payload, msg)
        else:
            self._rendezvous_cts(msg, event)
        return event

    def _deliver(self, msg: Message) -> None:
        mbox = self.procs[msg.dst].mailbox
        pr = mbox.match_posted(msg)
        if pr is not None:
            if not msg.rendezvous:
                pr.event.fire((msg.payload, msg))
            else:
                self._rendezvous_cts(msg, pr.event)
        else:
            mbox.add_unexpected(msg)

    def _rendezvous_cts(self, msg: Message, event: Event) -> None:
        """Rendezvous match: clear-to-send travels back, then data moves."""
        eng = self.engine
        p = self.network.params
        eng._sched(eng.now + (p.latency + p.send_overhead), _K_CALL1,
                   self._start_transfer, (msg, event))

    def _start_transfer(self, args: tuple) -> None:
        """Rendezvous data phase: runs after the clear-to-send arrives."""
        msg, event = args
        free, arrival = self.network.transfer(msg.src, msg.dst,
                                              msg.payload.nbytes)
        msg.send_event.fire_at(free)
        event.fire_at(arrival, (msg.payload, msg))

    # ------------------------------------------------------------------
    # communicator derivation
    # ------------------------------------------------------------------
    def derive_comm(self, parent: CommDescriptor, split_seq: int, color: Any,
                    members: list[int]) -> CommDescriptor:
        key = (parent.ctx, split_seq, color)
        desc = self._split_registry.get(key)
        if desc is None:
            desc = CommDescriptor(ctx=self._next_ctx, members=members)
            self._next_ctx += 1
            self._split_registry[key] = desc
        return desc

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------
    def launch(self, program: Callable[["Communicator"], Generator],
               ranks: Optional[list[int]] = None) -> list[Any]:
        """Run ``program(comm_world)`` on every rank; returns per-rank results."""
        ranks = list(range(self.nprocs)) if ranks is None else ranks
        tasks = [
            self.engine.spawn(program(self.procs[r].comm_world),
                              name=("rank", r))
            for r in ranks
        ]
        try:
            self.engine.run()
        except TaskFailedError as exc:
            raise exc.original from exc
        out = []
        for t in tasks:
            if t.error is not None:
                raise t.error
            out.append(t.result)
        return out

    @property
    def breakdowns(self) -> list[TimeBreakdown]:
        return [p.breakdown for p in self.procs]

    @property
    def collective_mode(self) -> str:
        """Canonical spec string of the world's default backend."""
        return self.backend.describe()


class Communicator:
    """One rank's handle on a process group (MPI communicator analog)."""

    def __init__(self, proc: Proc, desc: CommDescriptor):
        self.proc = proc
        self.desc = desc
        self.world = proc.world
        self._engine = proc.world.engine
        self._coll_ctx_val = -(desc.ctx + 1)
        self.rank = desc.rank_of[proc.rank]
        self.size = len(desc.members)
        # one-element boxes so handles derived via with_backend share the
        # operation sequencing (sites and collective tags stay unique)
        self._op_state = [0]
        self._split_state = [0]
        #: per-communicator backend override; None = the world's default
        self._backend: Optional[CollectiveBackend] = None

    # -- helpers --------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def _op_seq(self) -> int:
        return self._op_state[0]

    @property
    def backend(self) -> CollectiveBackend:
        return self._backend if self._backend is not None else self.world.backend

    def once_per_call(self, tag: Any, build: Callable[[], Any]) -> Any:
        """``build()`` for the collective this rank has just completed,
        built by the call's first rank through and shared with the rest.

        Every rank of a collective holds the same result, so whatever is
        derived from it alone is built once per call instead of once
        per rank.  ``tag`` names what is built and every per-rank input
        the build reads (hints, say): a rank whose tag differs builds
        its own, as every rank would without the sharing.  One slot per
        communicator suffices: no rank can finish the communicator's
        next collective before every rank has passed this lookup.
        """
        key = (self._op_seq, tag)
        held = self.desc.shared
        if held is not None and held[0] == key:
            return held[1]
        value = build()
        self.desc.shared = (key, value)
        return value

    def with_backend(self, backend: str | CollectiveBackend) -> "Communicator":
        """A handle on the same group whose collectives run through
        ``backend``.

        The derived handle shares all communicator state (context, sites,
        op sequencing) with the original, so the two may be used
        interchangeably — but every rank must run any given collective
        through the same fidelity, so install overrides symmetrically
        (e.g. from a collectively-agreed hint).
        """
        clone = type(self)(self.proc, self.desc)
        clone._op_state = self._op_state
        clone._split_state = self._split_state
        clone._backend = resolve_backend(backend)
        return clone

    @property
    def now(self) -> float:
        return self._engine.now

    def world_rank(self, group_rank: int) -> int:
        if not 0 <= group_rank < self.size:
            raise MPIError(
                f"rank {group_rank} out of range for communicator of size {self.size}"
            )
        return self.desc.members[group_rank]

    def _as_payload(self, obj: Any, nbytes: Optional[int]) -> Payload:
        if isinstance(obj, Payload):
            return obj
        return Payload.of(obj, nbytes)

    # -- point-to-point (raw: no time-category accounting) ---------------
    def isend(self, obj: Any, dest: int, tag: int = 0,
              nbytes: Optional[int] = None, _ctx: Optional[int] = None) -> Request:
        payload = self._as_payload(obj, nbytes)
        ctx = self.desc.ctx if _ctx is None else _ctx
        return Request(self.world.send_message_ev(
            self.proc.rank, self.world_rank(dest), ctx, tag, payload))

    def isend_batch(self, items: list[tuple[int, Any]],
                    tag: int = 0) -> list[Request]:
        """Batched :meth:`isend`: ``items`` are ``(dest, payload)`` pairs.

        Thin wrapper over :meth:`World.send_batch`; see its contract.
        Exchange rounds use this when the communicator's ``exchange``
        fidelity is ``macro`` — the round's sends coalesce into one
        vectorized NIC schedule instead of per-message events.
        """
        ctx = self.desc.ctx
        entries = [
            (self.world_rank(dest),
             ctx, tag, obj if isinstance(obj, Payload) else Payload.of(obj))
            for dest, obj in items
        ]
        return self.world.send_batch(self.proc.rank, entries)

    def irecv(self, source: int, tag: int = 0,
              _ctx: Optional[int] = None) -> Request:
        """Post a receive; the request's value is ``(payload, message)``."""
        ctx = self.desc.ctx if _ctx is None else _ctx
        return Request(self.world.post_recv_ev(
            self.proc.rank, ctx, self.world_rank(source), tag))

    # -- blocking wrappers with accounting --------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0,
             nbytes: Optional[int] = None,
             category: str = "exchange") -> Generator[Any, Any, None]:
        t0 = self.now
        req = self.isend(obj, dest, tag, nbytes)
        yield req.event
        self.proc.breakdown.add(category, self.now - t0)

    def recv(self, source: int, tag: int = 0,
             category: str = "exchange") -> Generator[Any, Any, Payload]:
        t0 = self.now
        req = self.irecv(source, tag)
        payload, _msg = yield req.event
        self.proc.breakdown.add(category, self.now - t0)
        return payload

    def waitall(self, requests: list[Request],
                category: str = "exchange") -> Generator[Any, Any, list[Any]]:
        t0 = self.now
        values = yield from waitall(requests)
        self.proc.breakdown.add(category, self.now - t0)
        return values

    # -- internal p2p on the collective context ---------------------------
    def _coll_isend(self, obj: Any, dest: int, tag: int,
                    nbytes: Optional[int] = None) -> Event:
        """Internal send on the collective context; returns the bare
        completion event (yield it directly to wait)."""
        payload = obj if isinstance(obj, Payload) else Payload.of(obj, nbytes)
        # collective peers are computed mod size — no range check needed
        return self.world.send_message_ev(
            self.proc.rank, self.desc.members[dest], self._coll_ctx_val, tag,
            payload)

    def _coll_irecv(self, source: int, tag: int) -> Event:
        """Internal recv post on the collective context; the returned
        event fires with ``(payload, message)``."""
        return self.world.post_recv_ev(
            self.proc.rank, self._coll_ctx_val, self.desc.members[source], tag)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _charge(self, category: str, t0: float) -> None:
        self.proc.breakdown.add(category, self.now - t0)

    def _check_fidelity_symmetry(self, fid: str, category: str) -> None:
        """Record this rank's fidelity choice for the current op and
        raise if it diverges from what another rank already chose."""
        ledger = self.desc.fidelities
        key = self._op_seq
        entry = ledger.get(key)
        if entry is None:
            ledger[key] = [fid, category, self.rank, 1]
            return
        held_fid, held_cat, first_rank, arrivals = entry
        if fid != held_fid:
            raise ParCollError(
                f"collective backend divergence on communicator "
                f"{self.desc.ctx} at op #{key}: rank {self.rank} "
                f"(backend {self.backend.describe()!r}) selected "
                f"{fid!r} for category {category!r} while rank "
                f"{first_rank} selected {held_fid!r} for "
                f"{held_cat!r} — all ranks must run a collective "
                "through the same fidelity; install backend overrides "
                "symmetrically (Communicator.with_backend, the "
                "'collective_mode' hint)"
            )
        entry[3] = arrivals + 1
        if entry[3] == self.size:
            del ledger[key]  # complete: every rank agreed

    def _analytic_site(self, value: Any, combine: Callable[[dict[int, Any]], list],
                       cost: Callable[[dict[int, Any]], float],
                       kind: str = "generic") -> Generator[Any, Any, Any]:
        """Generic analytic collective: sync, combine, pay modeled cost."""
        desc = self.desc
        key = self._op_seq
        site = desc.sites.get(key)
        if site is None:
            site = _Site(self.engine, f"coll-ctx{desc.ctx}-op{key}", kind)
            desc.sites[key] = site
        elif site.kind != kind:
            raise MPIError(
                f"collective call mismatch on communicator {desc.ctx}: "
                f"rank {self.rank} called {kind!r} while another rank "
                f"called {site.kind!r} at the same point (op #{key}) — "
                "all ranks must issue collectives in the same order"
            )
        site.values[self.rank] = value
        site.arrivals[self.rank] = self.now
        if len(site.values) == self.size:
            results = combine(site.values)
            exit_time = max(site.arrivals.values()) + cost(site.values)
            del desc.sites[key]
            site.event.fire((exit_time, results))
        exit_time, results = yield WaitEvent(site.event)
        if exit_time > self.now:
            yield Sleep(exit_time - self.now)
        return results[self.rank]

    def _collective(self, category: str,
                    analytic_path: Callable[[], Generator],
                    detailed_path: Callable[[], Generator],
                    macro_path: Optional[Callable[[], Generator]] = None
                    ) -> Generator[Any, Any, Any]:
        """Run one collective through the backend-selected path.

        The paths are thunks; only the chosen generator is ever
        constructed, so no dead execution path is allocated (and then
        closed) per call.

        Backend symmetry across ranks is enforced here, not merely
        documented: every rank records its per-call fidelity choice in
        the communicator's ledger (the same role the analytic site key /
        first detailed tag plays for call-order matching), so a
        rank-divergent backend spec — one rank's backend picking
        'analytic' where another picks 'detailed' for the same
        collective — raises a clear :class:`ParCollError` at the second
        arrival instead of deadlocking the message schedule against the
        synchronization site.

        ``macro_path`` is the coalesced closed-form replay of the
        detailed schedule; only the synchronizing collectives provide
        one.  ``gather`` and ``scatter`` have none (a rank may leave
        before every rank has entered, which a site-based replay cannot
        model), so under the ``macro`` fidelity they fall back to the
        detailed path — a kind-based, rank-symmetric decision.
        """
        self._op_state[0] += 1
        t0 = self.now
        if self.size == 1:
            fid = "analytic"  # degenerate: immediate, no traffic either way
        else:
            fid = self.backend.fidelity(category, comm=self)
            self._check_fidelity_symmetry(fid, category)
        if fid == "analytic":
            path = analytic_path
        elif fid == "macro" and macro_path is not None:
            path = macro_path
        else:
            path = detailed_path
        # the engine runs the path as a subroutine: each of its message
        # steps resumes one frame, not the caller's yield-from chain
        result = yield path()
        self._charge(category, t0)
        return result

    def barrier(self, category: str = "sync") -> Generator[Any, Any, None]:
        params = self.world.network.params

        def a():
            return self._analytic_site(
                None,
                combine=lambda vals: [None] * self.size,
                cost=lambda vals: analytic.barrier_cost(params, self.size),
                kind="barrier",
            )

        return (yield from self._collective(
            category, a, lambda: detailed.barrier(self),
            macro_path=lambda: macro.barrier(self)))

    def allreduce(self, value: Any, op: ReduceOp = SUM,
                  nbytes: Optional[int] = None,
                  category: str = "sync") -> Generator[Any, Any, Any]:
        params = self.world.network.params

        def combine(vals: dict[int, Any]) -> list:
            acc = op.reduce_all([vals[r] for r in range(self.size)])
            return [acc] * self.size

        def cost(vals: dict[int, Any]) -> float:
            nb = nbytes if nbytes is not None else sizeof(vals[0])
            return analytic.allreduce_cost(params, self.size, nb)

        return (yield from self._collective(
            category,
            lambda: self._analytic_site(value, combine, cost,
                                        kind="allreduce"),
            lambda: detailed.allreduce(self, value, op, nbytes),
            macro_path=lambda: macro.allreduce(self, value, op, nbytes)))

    def gather(self, value: Any, root: int = 0, nbytes: Optional[int] = None,
               category: str = "sync") -> Generator[Any, Any, Optional[list]]:
        self.world_rank(root)  # an out-of-range root raises MPIError here
        params = self.world.network.params

        def combine(vals: dict[int, Any]) -> list:
            full = [vals[r] for r in range(self.size)]
            return [full if r == root else None for r in range(self.size)]

        def cost(vals: dict[int, Any]) -> float:
            nb = nbytes if nbytes is not None else max(sizeof(v) for v in vals.values())
            return analytic.gather_cost(params, self.size, nb)

        return (yield from self._collective(
            category,
            lambda: self._analytic_site(value, combine, cost, kind="gather"),
            lambda: detailed.gather(self, value, root, nbytes)))

    def allgather(self, value: Any, nbytes: Optional[int] = None,
                  category: str = "sync") -> Generator[Any, Any, list]:
        # the combine/cost closures live inside the analytic thunk so the
        # detailed path never pays for building them
        def analytic_site():
            params = self.world.network.params

            def combine(vals: dict[int, Any]) -> list:
                full = [vals[r] for r in range(self.size)]
                return [full] * self.size

            def cost(vals: dict[int, Any]) -> float:
                if nbytes is not None:
                    return analytic.allgather_cost(params, self.size, nbytes)
                total = sum(sizeof(v) for v in vals.values())
                own = sizeof(vals[0])
                return analytic.allgatherv_cost(params, self.size, total, own)

            return self._analytic_site(value, combine, cost, kind="allgather")

        return (yield from self._collective(
            category,
            analytic_site,
            lambda: detailed.allgather(self, value, nbytes),
            macro_path=lambda: macro.allgather(self, value, nbytes)))

    def alltoall(self, values: list, nbytes_each: Optional[int] = None,
                 category: str = "sync") -> Generator[Any, Any, list]:
        if len(values) != self.size:
            raise MPIError(
                f"alltoall needs {self.size} values, got {len(values)}"
            )
        def analytic_site():
            params = self.world.network.params

            def combine(vals: dict[int, list]) -> list:
                if all(isinstance(v, np.ndarray) for v in vals.values()):
                    # fast path for count vectors: transpose via numpy
                    mat = np.stack([vals[src] for src in range(self.size)])
                    return [mat[:, dst] for dst in range(self.size)]
                return [[vals[src][dst] for src in range(self.size)]
                        for dst in range(self.size)]

            def cost(vals: dict[int, list]) -> float:
                if nbytes_each is not None:
                    return analytic.alltoall_cost(params, self.size,
                                                  nbytes_each)
                max_send = max(sum(sizeof(x) for x in v)
                               for v in vals.values())
                return analytic.alltoallv_cost(params, self.size, max_send,
                                               max_send)

            return self._analytic_site(values, combine, cost, kind="alltoall")

        return (yield from self._collective(
            category,
            analytic_site,
            lambda: detailed.alltoall(self, values, nbytes_each),
            macro_path=lambda: macro.alltoall(self, values, nbytes_each)))

    def scatter(self, values: Optional[list] = None, root: int = 0,
                nbytes: Optional[int] = None,
                category: str = "sync") -> Generator[Any, Any, Any]:
        """MPI_Scatter: rank i receives ``values[i]`` provided by the root."""
        self.world_rank(root)  # an out-of-range root raises MPIError here
        params = self.world.network.params
        if self.rank == root and (values is None or len(values) != self.size):
            raise MPIError(f"scatter root needs {self.size} values")

        def combine(vals: dict[int, Any]) -> list:
            return list(vals[root])

        def cost(vals: dict[int, Any]) -> float:
            nb = nbytes
            if nb is None:
                nb = max((sizeof(v) for v in vals[root]), default=0)
            return analytic.scatter_cost(params, self.size, nb)

        return (yield from self._collective(
            category,
            lambda: self._analytic_site(values if self.rank == root else None,
                                        combine, cost, kind="scatter"),
            lambda: detailed.scatter(self, values, root, nbytes)))

    # ------------------------------------------------------------------
    # communicator split
    # ------------------------------------------------------------------
    def split(self, color: Any, key: Optional[int] = None,
              category: str = "sync") -> Generator[Any, Any, Optional["Communicator"]]:
        """MPI_Comm_split: ranks with equal color form a new communicator.

        ``color=None`` mirrors MPI_UNDEFINED: the rank gets no communicator.
        """
        self._split_state[0] += 1
        split_seq = self._split_state[0]
        key = self.rank if key is None else key
        entries = yield from self.allgather((color, key, self.rank),
                                            category=category)
        if color is None:
            return None
        groups = self.once_per_call(
            "split", lambda: _split_groups(entries, self.desc.members))
        desc = self.world.derive_comm(self.desc, split_seq, color,
                                      groups[color])
        sub = type(self)(self.proc, desc)
        sub._backend = self._backend  # children inherit any override
        return sub


def _split_groups(entries: list, members: list[int]) -> dict:
    """World ranks of each color's new group, in ``(key, rank)`` order,
    from a split's allgathered ``(color, key, rank)`` entries."""
    by_color: dict = {}
    for c, k, r in entries:
        if c is not None:
            by_color.setdefault(c, []).append((k, r))
    return {c: [members[r] for _, r in sorted(group)]
            for c, group in by_color.items()}
