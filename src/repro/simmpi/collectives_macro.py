"""Macro collective fidelity: coalesce a round's messages into closed form.

The ``detailed`` fidelity simulates every collective message as engine
traffic — a send, a mailbox match, generator resumptions, and a
scheduler entry for each wait that has not passed.  For the
synchronizing collectives (barrier, allgather, alltoall, allreduce) the
message schedule is *statically known*: every send's destination, size,
and matching receive are fixed by the algorithm, and no rank can leave
before every rank has entered (each exit transitively depends on a
message from every participant).  The ``macro`` fidelity exploits exactly that:
participating ranks park on one event apiece while a shared per-world
*walker* replays the detailed algorithm's message schedule as a
timestamp-ordered walk over the send/receive dependency graph — no
per-message tasks, mailboxes, or event objects.

The walk reproduces the engine's execution *bit-identically*:

* it is incremental — each rank pushes its first step when it arrives,
  and the walker processes work through at most one engine callback per
  distinct timestamp, so every NIC reservation is issued at its true
  chronological engine moment, interleaved with concurrent
  non-collective traffic (file writes, point-to-point exchange)
  exactly as the per-message simulation would;
* completion times come from the same
  :meth:`~repro.cluster.network.NetworkModel.transfer` NIC arithmetic in
  the same global order (the walker passes its issue time), including
  rendezvous header/clear-to-send/data phases and piecewise fault speed
  profiles;
* ties are broken exactly like the engine's ``(time, seq)`` heap key —
  the walker allocates its sequence numbers *from the engine's own
  counter*, in the same order the per-message schedule would have
  pushed its scheduler entries, so all macro rounds in a world and all
  unrelated engine traffic share one sequence space; the walker heap is
  keyed ``(t, phase, seq)`` (phase separates heap-stage bookkeeping
  from deque-stage continuations, see below);
* at a *contested* timestamp — engine ready-deque entries pending, or
  foreign engine heap entries due — every due walker entry is requeued
  into the *engine heap* at its own ``(t, seq)`` slot
  (:meth:`Engine._sched_at_seq`), so it executes at exactly the
  position the per-message schedule's entry would have occupied,
  interleaved with unrelated same-instant traffic by construction.
  Requeued bookkeeping entries (rendezvous headers, data phases — real
  heap callbacks in the per-message schedule) run at heap stage; a
  requeued rank resumption appends its cascade to the engine ready
  deque when its slot dispatches, mirroring the detailed fire→deque
  two-stage structure, and a rank exit reached at deque stage resumes
  the parked task inline exactly where the detailed task's continuation
  would have run.  At uncontested timestamps no other actor can observe
  the ordering and the walk advances inline at full speed.

``gather`` is the detailed fallback: a rank can leave it before every
rank has entered, so a site-based replay would be unsound, and under
the ``macro`` backend it runs the detailed message schedule (see
:meth:`Communicator._collective`).  The walk itself falls back when
message timestamps are not strictly ordered after their causes
(``send_overhead == 0`` or ``latency == 0`` make same-time scheduling
possible, which the replay cannot order), and for single-rank
communicators (whose detailed path never yields).
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import MPIError, SimulationError
from repro.perf import perf_counters
from repro.sim.effects import WaitEvent
from repro.sim.engine import _K_CALL1, _K_FIRE, Event
from repro.simmpi import collectives_detailed as detailed
from repro.simmpi.p2p import RTS_BYTES
from repro.simmpi.payload import Payload, sizeof
from repro.simmpi.reduce_ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.world import Communicator, World

_INF = float("inf")

#: a rank's step function: step k as ``(dst, dstep, nb, src)``, or None
#: past the last step (see :class:`_Driver`)
_StepFn = Callable[[int], Optional[tuple]]

#: initial site entries must order before any allocated sequence number
_BIG = 1 << 60


def _usable(comm: "Communicator") -> bool:
    """Can the walk order this world's schedules exactly?

    Strictly positive send overhead and wire latency guarantee every
    transfer completes strictly after it was issued, so no collective
    message ever lands on the engine's same-time ready deque — the
    ordering regime the walker reproduces.  Rank-symmetric: depends only
    on world-global parameters.
    """
    p = comm.world.network.params
    return p.send_overhead > 0.0 and p.latency > 0.0


class _MacroSite:
    """Synchronization site for one macro collective call."""

    __slots__ = ("arrivals", "values", "order", "events", "kind",
                 "driver", "extra")

    def __init__(self, kind: str):
        self.arrivals: dict[int, float] = {}
        self.values: dict[int, Any] = {}
        #: ranks in engine execution order of their arrival
        self.order: list[int] = []
        self.events: dict[int, Event] = {}
        self.kind = kind
        self.driver: Optional[_Driver] = None
        #: per-kind memo (forwarded block sizes, partial reductions)
        self.extra: dict = {}


class _Driver:
    """Per-site replay state for one collective round.

    ``steps[r]`` is rank r's step function: ``steps[r](k)`` computes the
    k-th step ``(dst, dstep, nb, src)`` when the walker issues it, and
    returns None past the last one.  A step sends ``nb`` bytes to rank
    ``dst`` (matched by the receiver's step index ``dstep``), then waits
    the receive of a message from some rank (``src >= 0``), then waits
    the send.  ``dst = -1`` is a receive-only step, ``src = -1``
    send-only — exactly the three shapes the detailed algorithms use
    (``sreq = isend; yield irecv; yield sreq``).  Nothing is built ahead:
    a round holds O(P) program state however many steps its schedule
    has, and sizes that depend on other ranks' payloads (forwarded
    blocks, partial reductions) are resolved once the data has causally
    propagated, which is exactly when the step runs.

    All scheduling state (heap, sequence counter, wake) lives on the
    world's shared :class:`_Walker`; the driver only holds the round's
    step functions and per-rank progress.
    """

    __slots__ = ("core", "members", "p", "site", "step_i", "pend", "inbox",
                 "steps", "results", "done")

    def __init__(self, comm: "Communicator", site: _MacroSite,
                 core: "_Walker"):
        p = comm.size
        self.core = core
        self.members = comm.desc.members
        self.p = p
        self.site = site
        self.step_i = [0] * p
        #: parked rank state: [step, sendT, sbind, recvT, rbind]; None
        #: fields are unresolved (rendezvous send, unmatched receive)
        self.pend: list[Optional[list]] = [None] * p
        #: early messages keyed (dst, dstep): ("e", arrival, seq) once
        #: the delivery is scheduled, ("h", src, nb) for an unmatched
        #: rendezvous header sitting in the unexpected queue
        self.inbox: dict[tuple[int, int], tuple] = {}
        self.steps: Optional[list] = [None] * p
        self.results: Optional[list] = None
        self.done = 0

    def push_initial(self, r: int, step: _StepFn) -> None:
        core = self.core
        self.steps[r] = step
        heappush(core.heap,
                 (self.site.arrivals[r], 1, core.initc - _BIG, 0, r, self))
        core.initc += 1

    def release(self) -> None:
        """Drop the finished round's step functions, results and site.

        ``site.driver`` points here while the step functions close over
        ``site``: without this the round is a reference cycle holding
        the site's payloads and the per-rank results until a full cyclic
        collection.
        """
        self.site = None
        self.steps = None
        self.results = None


def _first_seq(heap: list) -> int:
    """The lowest seq among the heap entries at the top's timestamp.

    A wake must order before every entry it will requeue.  Entries at
    the top's time form a subtree at the root — a heap entry never
    orders before its parent, so every ancestor of such an entry shares
    its time — and the walk stops at the first later child.
    """
    t0 = heap[0][0]
    n = len(heap)
    low = heap[0][2]
    todo = [0]
    while todo:
        i = todo.pop()
        for c in (2 * i + 1, 2 * i + 2):
            if c < n and heap[c][0] == t0:
                if heap[c][2] < low:
                    low = heap[c][2]
                todo.append(c)
    return low


class _Walker:
    """Shared per-world schedule walker mirroring the engine seq space.

    Work lives on a heap keyed ``(t, phase, seq)``: phase 0 entries are
    real scheduler entries (rendezvous header deliveries and data
    phases), phase 1 entries are rank resumptions whose seq is the slot
    that woke the task — the send's completion when the send finished
    last, the message's arrival when the receive did.  Sequence numbers
    are allocated *from the engine's own counter*, in the per-message
    schedule's order: per eager message the completion slot then the
    arrival slot, per rendezvous the header delivery, the clear-to-send
    at match time, then the data phase's sender-free and arrival fires.  Sharing the engine's
    sequence space across every macro site in the world keeps concurrent
    rounds — and unrelated per-message traffic — in the one global order
    the engine's own heap would impose.

    :meth:`pump` requeues every entry due at a *contested* current time
    into the engine heap at its own ``(t, seq)`` slot (see the module
    docstring), then advances inline as far as engine quiescence allows,
    and schedules one engine callback at the next entry's timestamp (at
    a seq strictly below every due entry's, so requeued entries land
    ahead of any foreign same-instant traffic they must precede), so the
    walk advances in lockstep with the rest of the simulation.
    """

    __slots__ = ("eng", "net", "eager", "cts_delay", "heap", "initc",
                 "wake_at", "wake_seq", "parked", "unfinished")

    def __init__(self, world: "World"):
        self.eng = world.engine
        self.net = world.network
        self.eager = world._eager_threshold
        p = self.net.params
        #: clear-to-send delay, its latency terms summed first — the
        #: same float association as World._rendezvous_cts
        self.cts_delay = p.latency + p.send_overhead
        self.heap: list[tuple] = []
        self.initc = 0
        self.wake_at = _INF
        self.wake_seq = _INF
        #: entries requeued into the engine scheduler, not yet run
        self.parked = 0
        #: fully-arrived rounds that have not completed yet
        self.unfinished = 0

    def _demote(self, t: float, seq: int) -> int:
        """An entry at the wake's timestamp undercuts the wake's seq:
        add an earlier wake (the stale one fires harmlessly)."""
        self.wake_seq = seq
        self.eng._sched_at_seq(t, seq - 0.5, _K_CALL1, self._wake, None)
        return seq

    def _wake(self, _arg: Any = None) -> None:
        self.wake_at = _INF
        self.wake_seq = _INF
        self.pump()

    def _parked_fire(self, entry: tuple) -> None:
        """A resumption's fire slot dispatching from the engine heap:
        the detailed fire appends the woken task to the ready deque, so
        the cascade takes exactly that deque position."""
        eng = self.eng
        eng.heap_bypasses += 1
        t, phase, _seq, code, r, drv = entry
        # a negative seq marks a cascade at deque stage (see pump)
        eng._ready.append((_K_CALL1, self._parked,
                           (t, phase, -1, code, r, drv)))

    def _parked(self, entry: tuple) -> None:
        """A requeued entry reaching its engine slot: a bookkeeping
        entry at its heap slot, a resumption at its deque position."""
        self.parked -= 1
        self.pump(entry)

    def pump(self, first: Optional[tuple] = None) -> None:
        """Drain due work, then advance inline as far as legality allows.

        ``first`` is a requeued entry whose engine slot has come: it
        runs before anything else.

        Entries due at the engine's current time are processed in
        ``(t, phase, seq)`` order; at contested timestamps every due
        entry is requeued into the engine heap at its own ``(t, seq)``
        slot so it interleaves with unrelated same-instant traffic
        exactly as the per-message schedule's entries would (initial
        entries — seq < 0 — run in their arriving task's own
        continuation and are never requeued).  After the due work, if
        the engine has nothing else to run before our next entry (empty
        ready deque, no earlier engine heap entry), no other traffic
        can touch the NICs in between — so the walk keeps going inline
        at future timestamps instead of paying one engine callback per
        timestamp.  Rank exits reached while ahead of the engine clock
        are scheduled back at their waking entry's seq slot so they
        resume at their true time and position; everything still
        pending when the advance stops gets one wake at the next
        entry's timestamp.

        Every entry runs in this one loop: a resumption walks the rank's
        step cascade — issue the step's send, then take its receive from
        the inbox or park — until the rank waits on a future event or
        exits, with no call per message but the step function's and
        ``transfer``'s.  A resumption with a negative seq is at deque
        stage (an arriving rank's initial entry, or a requeued
        resumption at the deque position its fire gave it): a rank exit
        there resumes the parked task inline, just as the detailed
        task's continuation would have run at that position.  The count
        of messages coalesced is added once, when the pump returns.
        """
        eng = self.eng
        now = eng.now
        heap = self.heap
        eheap = eng._heap
        eready = eng._ready
        transfer = self.net.transfer
        eager = self.eager
        cts_delay = self.cts_delay
        wake_at = self.wake_at
        wake_seq = self.wake_seq
        # messages sent, added to the coalesced count once
        nsent = 0
        drv = None
        cur = now
        entry = first
        # the heap's least entry once taken off, awaiting the checks
        nxt = None
        while True:
            if entry is None:
                if nxt is None:
                    if not heap:
                        break
                    nxt = heappop(heap)
                if nxt[0] > cur:
                    # nothing due now — advance inline only while
                    # the engine has nothing to run first: any
                    # ready-deque entry, or an engine heap entry at
                    # or before this one, could issue traffic that
                    # must interleave with ours
                    if eready or (eheap and eheap[0][0] <= nxt[0]):
                        heappush(heap, nxt)
                        break
                    cur = nxt[0]
                entry = nxt
                nxt = None
                if (cur == now and entry[2] >= 0
                        and (eready or (eheap and eheap[0][0] <= now))):
                    # contested current instant: route the entry
                    # through the engine scheduler at its own
                    # (t, seq) slot
                    self.parked += 1
                    eng._sched_at_seq(
                        entry[0], entry[2], _K_CALL1,
                        self._parked_fire if entry[3] == 0
                        else self._parked, entry)
                    entry = None
                    continue
            t, _phase, seq, code, arg, d = entry
            entry = None
            if d is not drv:
                drv = d
                members = drv.members
                pend = drv.pend
                inbox = drv.inbox
                step_i = drv.step_i
                steps = drv.steps
            if code:
                src, dst, dstep, nb = arg
                if code == 1:
                    # rendezvous header delivered at the receiver
                    pe = pend[dst]
                    if pe is not None and pe[0] == dstep:
                        # receive already posted: match,
                        # clear-to-send goes back
                        tq = t + cts_delay
                        eng._seq += 1
                        sq = eng._seq
                        heappush(heap, (tq, 0, sq, 2, arg, drv))
                        if tq == wake_at and sq < wake_seq:
                            wake_seq = self._demote(tq, sq)
                    else:
                        inbox[(dst, dstep)] = ("h", src, nb)
                    continue
                # rendezvous data phase — a real heap callback in
                # the per-message schedule too
                free, arr = transfer(members[src], members[dst], nb, t)
                sa = eng._seq + 1
                sb = sa + 1
                eng._seq = sb
                pe = pend[src]
                pe[1] = free
                pe[2] = sa
                pe = pend[dst]
                pe[3] = arr
                pe[4] = sb
                for q in (src, dst):
                    pe = pend[q]
                    if pe[1] is None or pe[3] is None:
                        continue
                    pend[q] = None
                    step_i[q] += 1
                    if pe[3] >= pe[1]:
                        tq, sq = pe[3], pe[4]
                    else:
                        tq, sq = pe[1], pe[2]
                    heappush(heap, (tq, 1, sq, 0, q, drv))
                    if tq == wake_at and sq < wake_seq:
                        wake_seq = self._demote(tq, sq)
                continue
            # rank r resumes: walk its step cascade
            r = arg
            step = steps[r]
            while True:
                k = step_i[r]
                st = step(k)
                if st is None:
                    ev = drv.site.events[r]
                    val = drv.results[r]
                    drv.done += 1
                    if drv.done == drv.p:
                        self.unfinished -= 1
                        drv.release()
                    if t > now:
                        # walked ahead of the engine clock: re-enter
                        # the scheduler so the rank resumes at its
                        # true exit time, at the waking entry's own
                        # seq slot
                        eng._sched_at_seq(t, seq, _K_FIRE, ev, val)
                    elif seq < 0 and ev._waiters:
                        # the cascade holds the deque position the
                        # detailed continuation would have run at:
                        # resume inline
                        ev._value = val
                        task = ev._waiters.pop()
                        eng._step(task, val)
                        # the task may have entered a macro round
                        # and pumped, moving the wake
                        wake_at = self.wake_at
                        wake_seq = self.wake_seq
                    else:
                        ev.fire(val)
                    break
                dst, dstep, nb, src = st
                if dst < 0:
                    sendT = 0.0
                    sbind = -1
                elif nb <= eager:
                    nsent += 1
                    free, arr = transfer(members[r], members[dst], nb, t)
                    sendT = free
                    sbind = eng._seq + 1   # completion slot
                    dseq = sbind + 1       # arrival slot
                    eng._seq = dseq
                    pe = pend[dst]
                    if pe is None or pe[0] != dstep:
                        inbox[(dst, dstep)] = ("e", arr, dseq)
                    elif pe[1] is None:
                        # the receiver's own rendezvous send pends
                        pe[3] = arr
                        pe[4] = dseq
                    else:
                        # the receiver waited only for this message
                        pend[dst] = None
                        step_i[dst] += 1
                        if arr >= pe[1]:
                            tq, sq = arr, dseq
                        else:
                            tq, sq = pe[1], pe[2]
                        heappush(heap, (tq, 1, sq, 0, dst, drv))
                        if tq == wake_at and sq < wake_seq:
                            wake_seq = self._demote(tq, sq)
                else:
                    nsent += 1
                    _, tq = transfer(members[r], members[dst], RTS_BYTES,
                                     t)
                    eng._seq += 1
                    sq = eng._seq
                    heappush(heap, (tq, 0, sq, 1, (r, dst, dstep, nb),
                                    drv))
                    if tq == wake_at and sq < wake_seq:
                        wake_seq = self._demote(tq, sq)
                    sendT = sbind = None
                if src < 0:
                    # send-only step: wait for the sender-free event
                    if sendT is None:
                        pend[r] = [k, None, None, 0.0, -1]
                        break
                    tq, sq = sendT, sbind
                else:
                    ib = inbox.pop((r, k), None)
                    if ib is None:
                        pend[r] = [k, sendT, sbind, None, None]
                        break
                    if ib[0] == "h":
                        # unmatched rendezvous header: posting the
                        # receive sends the clear-to-send immediately
                        pend[r] = [k, sendT, sbind, None, None]
                        tq = t + cts_delay
                        eng._seq += 1
                        sq = eng._seq
                        heappush(heap, (tq, 0, sq, 2,
                                        (ib[1], r, k, ib[2]), drv))
                        if tq == wake_at and sq < wake_seq:
                            wake_seq = self._demote(tq, sq)
                        break
                    arrT = ib[1]
                    if dst < 0 and arrT <= t:
                        # receive-only, already in the unexpected
                        # queue: continue inline, keeping this
                        # cascade's ordering token
                        step_i[r] += 1
                        continue
                    if sendT is None:
                        # rendezvous send still pending; receive
                        # resolved
                        pend[r] = [k, None, None, arrT, ib[2]]
                        break
                    if arrT >= sendT:
                        tq, sq = arrT, ib[2]
                    else:
                        tq, sq = sendT, sbind
                step_i[r] += 1
                # the rank's resumption goes in and the least entry
                # comes out in one heap operation
                nxt = heappushpop(heap, (tq, 1, sq, 0, r, drv))
                if tq == wake_at and sq < wake_seq:
                    wake_seq = self._demote(tq, sq)
                break
        perf_counters.messages_coalesced += nsent
        if heap:
            t0 = heap[0][0]
            if t0 < self.wake_at:
                s0 = _first_seq(heap)
                self.wake_at = t0
                self.wake_seq = s0
                eng._sched_at_seq(t0, s0 - 0.5, _K_CALL1, self._wake, None)
        elif self.unfinished and not self.parked:
            raise SimulationError(
                f"macro replay stalled: {self.unfinished} fully-arrived "
                "round(s) never completed their schedule (walker bug)")


def _macro_site(comm: "Communicator", kind: str, value: Any, prog_for,
                results_for) -> Generator[Any, Any, Any]:
    """Park on the round's site; the walker replays the schedule.

    ``prog_for(site, r)`` runs at rank r's arrival and returns its step
    function (see :class:`_Driver`); it may only touch rank r's own
    payload, while the step function may read any payload its step has
    causally received.  ``results_for(site)`` runs once on the
    last-arriving rank, before any exit can fire (every exit strictly
    follows the last arrival), and returns the per-rank results the
    walker hands to :meth:`Event.fire`.
    """
    desc = comm.desc
    key = comm._op_seq
    site = desc.sites.get(key)
    if site is None:
        site = _MacroSite(kind)
        desc.sites[key] = site
    elif site.kind != kind:
        raise MPIError(
            f"collective call mismatch on communicator {desc.ctx}: "
            f"rank {comm.rank} called {kind!r} while another rank "
            f"called {site.kind!r} at the same point (op #{key}) — "
            "all ranks must issue collectives in the same order"
        )
    r = comm.rank
    eng = comm._engine
    site.values[r] = value
    site.arrivals[r] = eng.now
    site.order.append(r)
    ev = Event(eng, ("macro", desc.ctx, key, r))
    site.events[r] = ev
    drv = site.driver
    if drv is None:
        world = comm.world
        core = getattr(world, "_macro_walker", None)
        if core is None:
            core = world._macro_walker = _Walker(world)
        drv = site.driver = _Driver(comm, site, core)
    drv.push_initial(r, prog_for(site, r))
    if len(site.order) == comm.size:
        del desc.sites[key]
        drv.results = results_for(site)
        drv.core.unfinished += 1
        perf_counters.macro_rounds += 1
    drv.core.pump()
    result = yield WaitEvent(ev)
    return result


# ----------------------------------------------------------------------
# per-kind programs and results
# ----------------------------------------------------------------------
def _data_of(v: Any) -> Any:
    return v.data if isinstance(v, Payload) else v


def _block_size(v: Any, nbytes: Optional[int]) -> int:
    if isinstance(v, Payload):
        return v.nbytes
    return nbytes if nbytes is not None else sizeof(v)


def barrier(comm: "Communicator") -> Generator[Any, Any, None]:
    if comm.size == 1 or not _usable(comm):
        return (yield from detailed.barrier(comm))
    p = comm.size
    nrounds = (p - 1).bit_length()

    def prog_for(site: _MacroSite, r: int) -> _StepFn:
        def step(k: int) -> Optional[tuple]:
            if k >= nrounds:
                return None
            dist = 1 << k
            return (r + dist) % p, k, 0, (r - dist) % p

        return step

    return (yield from _macro_site(comm, "barrier", None, prog_for,
                                   lambda site: [None] * p))


def allgather(comm: "Communicator", value: Any,
              nbytes: Optional[int]) -> Generator[Any, Any, list]:
    if comm.size == 1 or not _usable(comm):
        return (yield from detailed.allgather(comm, value, nbytes))
    p = comm.size

    def prog_for(site: _MacroSite, r: int) -> _StepFn:
        right = (r + 1) % p
        left = (r - 1) % p
        values = site.values
        # forwarded block sizes are needed by every rank along the
        # ring: memoize per origin on the site
        sizes = site.extra

        def step(i: int) -> Optional[tuple]:
            # step i forwards origin r - i's block: that payload is
            # known by the time the block has propagated here
            if i >= p - 1:
                return None
            j = (r - i) % p
            sz = sizes.get(j)
            if sz is None:
                sz = sizes[j] = _block_size(values[j], nbytes)
            return right, i, sz, left

        return step

    def results_for(site: _MacroSite) -> list:
        vals = site.values
        base = [_data_of(vals[j]) for j in range(p)]
        results = []
        for r in range(p):
            out = list(base)
            out[r] = vals[r]
            results.append(out)
        return results

    return (yield from _macro_site(comm, "allgather", value, prog_for,
                                   results_for))


def _plain(v: Any) -> Any:
    """A 1-D array as a list: index plain ints, not numpy scalars,
    exactly like the detailed pairwise loop (results restore dtype)."""
    return v.tolist() if isinstance(v, np.ndarray) and v.ndim == 1 else v


def alltoall(comm: "Communicator", values: list,
             nbytes_each: Optional[int]) -> Generator[Any, Any, list]:
    if comm.size == 1 or not _usable(comm):
        return (yield from detailed.alltoall(comm, values, nbytes_each))
    p = comm.size

    def prog_for(site: _MacroSite, r: int) -> _StepFn:
        # pairwise exchange: step k sends vals[r + k + 1] to rank
        # r + k + 1 and receives from r - k - 1; the step function reads
        # the values only for their sizes
        v = site.values[r]
        vals = v if nbytes_each is not None else _plain(v)

        def step(k: int) -> Optional[tuple]:
            if k >= p - 1:
                return None
            dst = (r + k + 1) % p
            nb = (nbytes_each if nbytes_each is not None
                  else sizeof(vals[dst]))
            return dst, k, nb, (r - k - 1) % p

        return step

    def results_for(site: _MacroSite) -> list:
        arrays = [site.values[s] for s in range(p)]
        dt = getattr(arrays[0], "dtype", None)
        if (dt is not None and dt.kind in "biuf" and dt.itemsize <= 8
                and all(isinstance(v, np.ndarray) and v.shape == (p,)
                        and v.dtype == dt for v in arrays)):
            # one P x P transpose, rank r's result in row r: booleans,
            # integers and floats up to 64 bits come through detailed's
            # detour via Python scalars unchanged
            return list(np.stack(arrays, axis=1))
        vals = [_plain(v) for v in arrays]
        results = []
        for r in range(p):
            out = [vals[s][r] for s in range(p)]
            if isinstance(arrays[r], np.ndarray):
                out = np.asarray(out, dtype=arrays[r].dtype)
            results.append(out)
        return results

    return (yield from _macro_site(comm, "alltoall", values, prog_for,
                                   results_for))


def _allreduce_acc(site: _MacroSite, op: ReduceOp, rem: int, pof2: int,
                   q: int, j: int) -> Any:
    """Core rank q's partial reduction after j doubling rounds.

    j = 0 is the post-fold value.  Memoized on the site; every operand
    has causally arrived by the time a step (or the last arrival's
    results pass) asks for it.  A module-level function, so the
    recursion does not make a per-call closure cycle.
    """
    memo = site.extra
    k = (q, j)
    if k in memo:
        return memo[k]
    if j == 0:
        v = site.values[q]
        if q < rem:
            v = op(v, _data_of(site.values[q + pof2]))
    else:
        mask = 1 << (j - 1)
        mine = _allreduce_acc(site, op, rem, pof2, q, j - 1)
        theirs = _allreduce_acc(site, op, rem, pof2, q ^ mask, j - 1)
        v = op(mine, _data_of(theirs))
    memo[k] = v
    return v


def allreduce(comm: "Communicator", value: Any, op: ReduceOp,
              nbytes: Optional[int]) -> Generator[Any, Any, Any]:
    if comm.size == 1 or not _usable(comm):
        return (yield from detailed.allreduce(comm, value, op, nbytes))
    p = comm.size
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    nrounds = pof2.bit_length() - 1

    def nb_of(v: Any) -> int:
        return _block_size(v, nbytes)

    def acc(site: _MacroSite, q: int, j: int) -> Any:
        return _allreduce_acc(site, op, rem, pof2, q, j)

    def prog_for(site: _MacroSite, r: int) -> _StepFn:
        if r >= pof2:
            # folder: push own value into the core, wait for the result
            def folder(k: int) -> Optional[tuple]:
                if k == 0:
                    return r - pof2, 0, nb_of(site.values[r]), -1
                return (-1, 0, 0, r - pof2) if k == 1 else None

            return folder
        folds = 1 if r < rem else 0

        def core(k: int) -> Optional[tuple]:
            j = k - folds
            if j < 0:
                # receive the folder's value
                return -1, 0, 0, r + pof2
            if j < nrounds:
                partner = r ^ (1 << j)
                return (partner, (1 if partner < rem else 0) + j,
                        nb_of(acc(site, r, j)), partner)
            if j == nrounds and folds:
                # hand the result back to the folder
                return r + pof2, 1, nb_of(acc(site, r, nrounds)), -1
            return None

        return core

    def results_for(site: _MacroSite) -> list:
        return [acc(site, r, nrounds) if r < pof2
                else _data_of(acc(site, r - pof2, nrounds))
                for r in range(p)]

    return (yield from _macro_site(comm, "allreduce", value, prog_for,
                                   results_for))
