"""The simulated MPI world: processes, delivery, communicators.

A :class:`World` wires one :class:`Proc` per MPI rank to the machine's
network model and hands each a ``COMM_WORLD`` :class:`Communicator`.
Rank programs are generator functions ``program(comm) -> generator``;
:meth:`World.launch` spawns one per rank and runs the engine to
completion.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.cluster.machine import Machine, MachineConfig
from repro.cluster.network import NetworkModel, NetworkParams
from repro.errors import MPIError, TaskFailedError
from repro.sim.effects import Sleep, WaitEvent
from repro.sim.engine import _K_CALL1, _K_FIRE, Engine, Event
from repro.simmpi import analytic, collectives_detailed as detailed
from repro.simmpi import collectives_macro as macro
from repro.simmpi.backends import CollectiveBackend, resolve_backend
from repro.simmpi.p2p import Mailbox, Message, Request, RTS_BYTES, waitall
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

    __slots__ = ("ctx", "members", "rank_of", "fidelity", "sites",
                 "node_cache", "shared")

    def __init__(self, ctx: int, members: list[int], fidelity: str):
        self.ctx = ctx
        #: world ranks of the group, in group-rank order
        self.members = list(members)
        self.rank_of = {wr: i for i, wr in enumerate(self.members)}
        #: the path ('analytic', 'detailed' or 'macro') every collective
        #: on this communicator takes; a single rank's collectives are
        #: immediate and send nothing, so they stay analytic
        self.fidelity = fidelity if len(self.members) > 1 else "analytic"
        #: analytic collective sites keyed by op sequence number
        self.sites: dict[int, "_Site"] = {}
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
        #: fidelity of the world communicator's collectives and of
        #: every communicator derived from it
        self.backend = resolve_backend(collective_mode)
        #: optional FaultInjector applying NodeSlowdown events here
        self.faults = faults
        self.nprocs = machine.nprocs
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
        world_desc = CommDescriptor(0, list(range(self.nprocs)),
                                    self.backend.world)
        for proc in self.procs:
            proc.comm_world = Communicator(proc, world_desc)

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------
    def send_message_ev(self, src: int, dst: int, ctx: int, tag: int,
                        payload: Payload) -> "tuple | Event":
        """Start a message; returns what its sender waits on.

        The message is matched now, in send order, against the
        receiver's FIFO for ``(ctx, src, tag)``.  An eager send returns
        its completion slot; its delivery fires an already-posted
        receive's event at its arrival slot, or waits on the key as that
        slot, carrying the payload, for the receive that returns it.  A
        rendezvous send returns the event that its data phase fires, and
        its header takes its place in the FIFO the same way.
        """
        if not 0 <= dst < self.nprocs:
            raise MPIError(f"destination rank {dst} out of range")
        eng = self.engine
        key = (ctx, src, tag)
        mbox = self.procs[dst].mailbox
        nbytes = payload.nbytes
        if nbytes <= self._eager_threshold:
            free, arrival = self.network.transfer(src, dst, nbytes)
            done = eng.slot(free)
            recv = mbox.match_posted(key)
            if recv is None:
                mbox.add_unexpected(key, eng.slot(arrival, payload))
            else:
                eng._sched(arrival, _K_FIRE, recv, payload)
            return done
        _, header = self.network.transfer(src, dst, RTS_BYTES)
        msg = Message(src, dst, payload, Event(eng, ("send", src, dst, tag)))
        msg.recv = mbox.match_posted(key)
        if msg.recv is None:
            mbox.add_unexpected(key, msg)
        eng._sched(header, _K_CALL1, self._header_arrives, msg)
        return msg.send_event

    def post_recv_ev(self, dst: int, ctx: int, src: int,
                     tag: int) -> "tuple | Event":
        """Post a receive on rank ``dst``; returns what it waits on,
        which yields the payload: the arrival slot of an eager message
        already sent, else an event fired when the payload is in."""
        key = (ctx, src, tag)
        mbox = self.procs[dst].mailbox
        msg = mbox.match_unexpected(key)
        if msg is not None and msg.__class__ is not Message:
            return msg
        recv = Event(self.engine, ("recv", "at", dst, "from", src, "tag", tag))
        if msg is None:
            mbox.add_posted(key, recv)
        else:
            msg.recv = recv
            if msg.arrived:
                self._rendezvous_cts(msg)
        return recv

    def _header_arrives(self, msg: Message) -> None:
        """Rendezvous header at the receiver: the clear-to-send leaves
        now if a receive has matched, else when one does."""
        msg.arrived = True
        if msg.recv is not None:
            self._rendezvous_cts(msg)

    def _rendezvous_cts(self, msg: Message) -> None:
        """Rendezvous match: clear-to-send travels back, then data moves."""
        eng = self.engine
        p = self.network.params
        eng._sched(eng.now + (p.latency + p.send_overhead), _K_CALL1,
                   self._start_transfer, msg)

    def _start_transfer(self, msg: Message) -> None:
        """Rendezvous data phase: runs after the clear-to-send arrives."""
        free, arrival = self.network.transfer(msg.src, msg.dst,
                                              msg.payload.nbytes)
        msg.send_event.fire_at(free)
        msg.recv.fire_at(arrival, msg.payload)

    # ------------------------------------------------------------------
    # communicator derivation
    # ------------------------------------------------------------------
    def derive_comm(self, parent: CommDescriptor, split_seq: int, color: Any,
                    members: list[int]) -> CommDescriptor:
        key = (parent.ctx, split_seq, color)
        desc = self._split_registry.get(key)
        if desc is None:
            desc = CommDescriptor(self._next_ctx, members,
                                  self.backend.default)
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
        """Canonical spec string of the world's backend."""
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
        #: collectives and splits this handle has entered; they number
        #: the sites, collective tags and derived communicators
        self._op_seq = 0
        self._split_seq = 0

    # -- helpers --------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self._engine

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
        return Request(self._engine, self.world.send_message_ev(
            self.proc.rank, self.world_rank(dest), ctx, tag, payload))

    def irecv(self, source: int, tag: int = 0,
              _ctx: Optional[int] = None) -> Request:
        """Post a receive; the request's value is the payload."""
        ctx = self.desc.ctx if _ctx is None else _ctx
        return Request(self._engine, self.world.post_recv_ev(
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
        payload = yield req.event
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
                    nbytes: Optional[int] = None) -> "tuple | Event":
        """Internal send on the collective context; returns the bare
        completion slot or event (yield it directly to wait)."""
        payload = obj if isinstance(obj, Payload) else Payload.of(obj, nbytes)
        # collective peers are computed mod size — no range check needed
        return self.world.send_message_ev(
            self.proc.rank, self.desc.members[dest], self._coll_ctx_val, tag,
            payload)

    def _coll_irecv(self, source: int, tag: int) -> "tuple | Event":
        """Internal recv post on the collective context; yielding the
        returned slot or event gives the payload."""
        return self.world.post_recv_ev(
            self.proc.rank, self._coll_ctx_val, self.desc.members[source], tag)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _charge(self, category: str, t0: float) -> None:
        self.proc.breakdown.add(category, self.now - t0)

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
        """Run one collective through the communicator's fidelity path.

        The paths are thunks; only the chosen generator is ever
        constructed, so no dead execution path is allocated (and then
        closed) per call.  The fidelity is fixed on the shared
        descriptor, so every rank of the call takes the same path.

        ``macro_path`` is the coalesced closed-form replay of the
        detailed schedule; only the synchronizing collectives provide
        one.  ``gather`` has none (a rank may leave before every rank
        has entered, which a site-based replay cannot model), so under
        the ``macro`` fidelity it falls back to the detailed path — a
        kind-based, rank-symmetric decision.
        """
        self._op_seq += 1
        t0 = self.now
        fid = self.desc.fidelity
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

    # ------------------------------------------------------------------
    # communicator split
    # ------------------------------------------------------------------
    def split(self, color: Any, key: Optional[int] = None,
              category: str = "sync") -> Generator[Any, Any, Optional["Communicator"]]:
        """MPI_Comm_split: ranks with equal color form a new communicator.

        ``color=None`` mirrors MPI_UNDEFINED: the rank gets no communicator.
        """
        self._split_seq += 1
        split_seq = self._split_seq
        key = self.rank if key is None else key
        entries = yield from self.allgather((color, key, self.rank),
                                            category=category)
        if color is None:
            return None
        groups = self.once_per_call(
            "split", lambda: _split_groups(entries, self.desc.members))
        desc = self.world.derive_comm(self.desc, split_seq, color,
                                      groups[color])
        return type(self)(self.proc, desc)


def _split_groups(entries: list, members: list[int]) -> dict:
    """World ranks of each color's new group, in ``(key, rank)`` order,
    from a split's allgathered ``(color, key, rank)`` entries."""
    by_color: dict = {}
    for c, k, r in entries:
        if c is not None:
            by_color.setdefault(c, []).append((k, r))
    return {c: [members[r] for _, r in sorted(group)]
            for c, group in by_color.items()}
