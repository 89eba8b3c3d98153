"""The discrete-event engine: virtual clock, scheduler, tasks, events.

Design notes
------------
* The ready queue is a binary heap keyed by ``(time, seq)`` where ``seq``
  is a monotone counter; this makes execution order fully deterministic.
* Same-time work bypasses the heap entirely: anything scheduled at the
  *current* virtual time goes onto a FIFO ready deque.  Every heap entry
  at time ``t`` carries a seq allocated while ``now < t`` (same-time
  scheduling allocates none), so it precedes any deque entry created
  at ``t`` — draining heap entries at ``now`` before the deque
  reproduces exact ``(time, seq)`` order.  This matters because
  same-time scheduling is the dominant case: every event fire, task
  resumption, and task finish lands at the current time.
* Scheduler entries are plain tuples ``(kind, a, b)`` dispatched in the
  run loop — no closure is allocated per scheduling operation.
  ``call_at`` with an arbitrary callable remains available for
  higher-level code; the hot paths (task steps, event fires) use the
  dedicated kinds.
* Tasks are trampolined generators, started with :meth:`Engine.spawn`.
  ``_step`` resumes a task and dispatches the effect it yields.  Waiting
  on an already-fired event completes immediately, in a tight loop
  without touching the scheduler, which matters: large collective-I/O
  runs execute millions of effects.
* A task may also yield a generator, which the engine runs as a
  *subroutine*: the caller waits on the task's ``stack`` while the
  engine drives the generator directly, then gets its return value or
  exception at the ``yield``.  Values, virtual times and the effect
  count are those of ``yield from`` (the call and the return are not
  effects), but each resumption enters one frame instead of the whole
  caller chain.  ``yield from`` stays the convention;
  ``Communicator._collective`` is the one subroutine call site.
* A *slot* is a ``(time, seq, value)`` tuple whose seq comes from the
  engine's counter (:meth:`Engine.slot`); a task may yield it as it
  yields an event.  If the slot has passed — ``time < now``, or
  ``time == now`` and its seq precedes the dispatch in progress
  (``_dispatch_seq``: the dispatched heap entry's seq, infinity while
  the ready deque drains) — the yield returns ``value`` at once;
  otherwise the engine pushes one heap entry at exactly ``(time, seq)``
  that puts the task on the ready deque, which is where an event fired
  at that slot would have put it.  A slot thus costs a heap entry only
  if a task waits on it before it passes, and until then the heap
  holds nothing that could act: the macro walker depends on that,
  because it reads the engine heap to decide how far it may advance
  inline (:mod:`repro.simmpi.collectives_macro`).  A slot has one
  waiter: two push equal heap keys, and the heap raises ``TypeError``
  once it compares their tasks.  Point-to-point messaging hands each
  eager message's completion slot to its sender and its arrival slot
  to the one receive that it matched.  A slot that nobody waits on
  never reaches the heap, so it does not advance the clock.
* Diagnostic strings (task blocking state, event names) are kept as
  cheap tuples and rendered only when a diagnostic is actually printed —
  formatting them eagerly used to cost an f-string per message.
* When the scheduler drains while tasks are still blocked the engine
  raises :class:`~repro.errors.DeadlockError` with a description of every
  blocked task — mismatched MPI tags or an absent collective participant
  then produce a readable diagnostic instead of a silent hang.
* A run allocates millions of short-lived tracked objects (events,
  tasks, message tuples) over a live set of up to a few hundred
  thousand, so CPython's default gen-0 threshold of 700 triggers
  thousands of collections that each re-traverse the young survivors —
  about a fifth of a 1024-rank detailed run.  :meth:`Engine.run` raises
  the thresholds to :data:`_RUN_GC_THRESHOLDS` for its duration and
  restores the caller's in ``finally``.  The collector stays enabled
  (failed tasks and tracebacks leave cyclic garbage that must still be
  reclaimed) and ``gc.freeze`` is not used (it would thaw objects the
  caller froze).
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.errors import DeadlockError, SimulationError, TaskFailedError
from repro.sim.effects import Sleep, WaitEvent

_PENDING = object()
_INF = float("inf")

#: scheduler entry kinds, dispatched in the run loop
_K_FN = 0     # a()
_K_STEP = 1   # engine._step(a, b)
_K_WAKE = 2   # a slot's waiter a goes on the ready deque with value b
_K_FIRE = 3   # a.fire(b)
_K_CALL1 = 4  # a(b) — lets callers schedule a bound method + argument
              # without allocating a closure per call

#: cyclic-collector thresholds while :meth:`Engine.run` is executing
_RUN_GC_THRESHOLDS = (100_000, 50, 100)


def _non_effect(task: "Task", effect: Any) -> SimulationError:
    return SimulationError(
        f"task {task.name!r} yielded a non-effect: {effect!r} (yield a "
        "Sleep, a WaitEvent, an Event, a (time, seq, value) slot, or a "
        "generator to run as a subroutine; blocking helpers are invoked "
        "with 'yield from')")


def _label(name: Any) -> str:
    """Render a lazy diagnostic name (str, or a tuple of parts)."""
    if type(name) is tuple:
        return ":".join(str(p) for p in name)
    return str(name)


class Event:
    """A one-shot signal carrying a value.

    Multiple tasks may wait on the same event; all are resumed with the
    fired value.  Firing twice is an error (it would indicate a protocol
    bug in a higher layer, e.g. a message delivered to two receivers).

    ``name`` may be any object; it is only rendered (via :func:`_label`)
    when a diagnostic needs it, so hot paths can pass tuples instead of
    formatting strings per event.
    """

    __slots__ = ("engine", "name", "_value", "_waiters")

    def __init__(self, engine: "Engine", name: Any = "event"):
        self.engine = engine
        self.name = name
        self._value: Any = _PENDING
        self._waiters: list[Task] = []

    @property
    def fired(self) -> bool:
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(
                f"event {_label(self.name)!r} read before being fired")
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire now: resume every waiter at the current virtual time."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {_label(self.name)!r} fired twice")
        self._value = value
        waiters = self._waiters
        if waiters:
            engine = self.engine
            ready = engine._ready
            engine.heap_bypasses += len(waiters)
            for task in waiters:
                ready.append((_K_STEP, task, value))
            self._waiters = []

    def fire_at(self, t: float, value: Any = None) -> None:
        """Schedule this event to fire at virtual time ``t``."""
        self.engine._sched(t, _K_FIRE, self, value)


class Task:
    """A running generator plus its scheduling state.

    ``name`` may be None (rendered as ``task-<id>`` on demand), a string,
    or a lazy tuple of parts — like event names it is only formatted when
    a diagnostic actually needs it, so spawning costs no f-string.
    """

    __slots__ = ("engine", "gen", "stack", "_name", "done", "result",
                 "error", "state", "_tid")

    def __init__(self, engine: "Engine", gen: Generator[Any, Any, Any],
                 name: Any = None):
        self.engine = engine
        #: the generator the engine resumes: the innermost subroutine
        self.gen = gen
        #: callers suspended on a subroutine yield, outermost first
        self.stack: list[Generator[Any, Any, Any]] = []
        self._name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: blocking state for deadlock diagnostics — a string or a lazy
        #: ``(verb, detail)`` tuple rendered by :meth:`describe`
        self.state: Any = "new"
        self._tid: Optional[int] = None

    @property
    def name(self) -> str:
        n = self._name
        if n is None:
            return f"task-{self._tid}"
        return _label(n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} state={self.describe_state()}>"

    def describe_state(self) -> str:
        state = self.state
        if type(state) is not tuple:
            return str(state)
        verb, detail = state
        if verb == "sleeping":
            return f"sleeping until t={detail:.9g}"
        if verb == "waiting":
            return f"waiting on event {_label(detail)!r}"
        if verb == "failed":
            return f"failed: {detail!r}"
        return f"{verb}: {detail}"  # pragma: no cover - future-proofing

    def describe(self) -> str:
        return f"{self.name}: {self.describe_state()}"


class Engine:
    """A deterministic discrete-event scheduler with a virtual clock."""

    def __init__(self):
        self.now: float = 0.0
        #: future work: (time, seq, kind, a, b), a binary heap
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        #: same-time work in FIFO (= seq) order
        self._ready: deque[tuple[int, Any, Any]] = deque()
        self._seq = 0
        self._live_tasks: dict[int, Task] = {}
        self._next_task_id = 0
        #: count of effects dispatched; cheap progress/perf metric
        self.effects_dispatched = 0
        #: scheduler entries that went through the heap
        self.heap_pushes = 0
        #: scheduler entries that bypassed the heap via the ready deque
        self.heap_bypasses = 0
        #: seq of the heap entry being dispatched; infinity while the
        #: ready deque drains (see :meth:`passed`)
        self._dispatch_seq: float = _INF
        #: cyclic-GC passes per generation, and host seconds spent in
        #: them, while :meth:`run` was executing (any thread's passes)
        self.gc_collections = [0, 0, 0]
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0
        #: number of tasks blocked on events that an *external* driver
        #: (the shard sync loop) will fire; while nonzero, draining the
        #: scheduler with blocked tasks returns instead of deadlocking
        self.external_pending = 0
        #: dynamic run ceiling: :meth:`run` hands control back before
        #: advancing past this time.  Unlike the ``until`` argument it
        #: may shrink *mid-run* — a shard sets it to the earliest
        #: unanswered external request so the clock can never overtake a
        #: reply that resumes a task shortly after its submission time.
        self.stop_bound: Optional[float] = None

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _sched(self, t: float, kind: int, a: Any, b: Any) -> None:
        """Schedule a dispatch entry at virtual time ``t`` (>= now)."""
        if t == self.now:
            self.heap_bypasses += 1
            self._ready.append((kind, a, b))
            return
        if t < self.now:
            raise SimulationError(f"cannot schedule in the past: {t} < {self.now}")
        self._seq += 1
        self.heap_pushes += 1
        heapq.heappush(self._heap, (t, self._seq, kind, a, b))

    def _sched_at_seq(self, t: float, seq: int, kind: int, a: Any, b: Any) -> None:
        """Schedule a dispatch entry at an explicit ``(t, seq)`` heap slot.

        Used by components that mirror the engine's sequence space (the
        macro collective walker): the entry lands at exactly the heap
        position a conventionally-scheduled entry with that seq would
        have occupied, so same-instant ordering against unrelated
        traffic is preserved by construction.  ``t == now`` is allowed
        and intentionally does *not* take the ready-deque bypass — the
        heap position is the point.
        """
        if t < self.now:
            raise SimulationError(f"cannot schedule in the past: {t} < {self.now}")
        self.heap_pushes += 1
        heapq.heappush(self._heap, (t, seq, kind, a, b))

    def slot(self, t: float, value: Any = None) -> "tuple | Event":
        """Reserve a wake at virtual time ``t`` (>= now) carrying
        ``value``: the slot ``(t, seq, value)`` with the next seq (see
        the module notes).  A wake at the current time is an
        :class:`Event` fired with ``value`` from the ready deque, where
        a same-time fire goes; it is yielded and read like a slot."""
        if t > self.now:
            self._seq += 1
            return (t, self._seq, value)
        ev = Event(self, "slot")
        self._sched(t, _K_FIRE, ev, value)
        return ev

    def passed(self, slot: "tuple | Event") -> bool:
        """Has ``slot`` been reached: would a yield of it return at once?

        True from exactly the point where the slot's heap entry would
        have been dispatched.  An :class:`Event` counts as passed once
        fired."""
        if slot.__class__ is Event:
            return slot._value is not _PENDING
        t, seq, _ = slot
        return t < self.now or (t == self.now and seq < self._dispatch_seq)

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at virtual time ``t`` (>= now)."""
        self._sched(t, _K_FN, fn, None)

    def spawn(self, gen: Generator[Any, Any, Any], name: Any = None) -> Task:
        """Register ``gen`` as a task and schedule its first step now.

        ``name`` is a lazy diagnostic label (None, a string, or a tuple
        of parts); nothing is formatted here.
        """
        self._next_task_id += 1
        tid = self._next_task_id
        task = Task(self, gen, name)
        task._tid = tid
        self._live_tasks[tid] = task
        task.state = "ready"
        self.heap_bypasses += 1
        self._ready.append((_K_STEP, task, None))
        return task

    # ------------------------------------------------------------------
    # trampoline
    # ------------------------------------------------------------------
    def _step(self, task: Task, value: Any) -> None:
        gen = task.gen
        send = gen.send
        throw = None
        n = 0
        try:
            while True:
                n += 1
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        effect = gen.throw(exc)
                    else:
                        effect = send(value)
                except StopIteration as stop:
                    if not task.stack:
                        self._finish(task, result=stop.value)
                        return
                    # a subroutine returned: resume its caller with the
                    # value (the return is not an effect)
                    n -= 1
                    gen = task.gen = task.stack.pop()
                    send = gen.send
                    value = stop.value
                    continue
                except BaseException as exc:  # noqa: BLE001 - fails the run
                    if not task.stack:
                        self._finish(task, error=exc)
                        return
                    # a subroutine raised: raise it in its caller
                    n -= 1
                    gen = task.gen = task.stack.pop()
                    send = gen.send
                    throw = exc
                    continue

                cls = effect.__class__
                if cls is Event:
                    # a bare Event yield is an implicit WaitEvent — the
                    # dominant effect in message-heavy runs, so it skips
                    # the wrapper allocation entirely
                    if effect._value is not _PENDING:
                        value = effect._value
                        continue
                    task.state = ("waiting", effect.name)
                    effect._waiters.append(task)
                    return
                if cls is tuple:
                    # a slot: returns its value once passed, else one
                    # heap entry at its (time, seq) wakes the task
                    try:
                        t, seq, value = effect
                        if t < self.now or (t == self.now
                                            and seq < self._dispatch_seq):
                            continue
                    except (TypeError, ValueError):
                        throw = _non_effect(task, effect)
                        value = None
                        continue
                    task.state = ("sleeping", t)
                    self.heap_pushes += 1
                    heapq.heappush(self._heap, (t, seq, _K_WAKE, task, value))
                    return
                if cls is Sleep:
                    dt = effect.dt
                    if dt == 0.0:
                        # same-time resumption: skip the heap
                        task.state = "ready"
                        self.heap_bypasses += 1
                        self._ready.append((_K_STEP, task, None))
                        return
                    if dt < 0:
                        throw = SimulationError(f"negative sleep: {dt}")
                        value = None
                        continue
                    t = self.now + dt
                    task.state = ("sleeping", t)
                    self._seq += 1
                    self.heap_pushes += 1
                    heapq.heappush(self._heap, (t, self._seq, _K_STEP, task, None))
                    return
                elif cls is WaitEvent:
                    ev = effect.event
                    if ev._value is not _PENDING:
                        value = ev._value
                        continue
                    task.state = ("waiting", ev.name)
                    ev._waiters.append(task)
                    return
                elif cls is GeneratorType:
                    # a subroutine call: drive the generator directly,
                    # its caller suspended (the call is not an effect)
                    n -= 1
                    task.stack.append(gen)
                    gen = task.gen = effect
                    send = gen.send
                    value = None
                else:
                    throw = _non_effect(task, effect)
                    value = None
        finally:
            self.effects_dispatched += n

    def _finish(self, task: Task, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        task.done = True
        task.result = result
        task.error = error
        task.state = "done" if error is None else ("failed", error)
        if task._tid is not None:
            self._live_tasks.pop(task._tid, None)
        if error is not None:
            # a failed task fails the whole run
            raise TaskFailedError(task.name, error) from error

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the scheduler drains (or past ``until``); returns
        final time.

        Raises :class:`DeadlockError` if the scheduler drains while
        spawned tasks are still blocked.

        The cyclic collector runs at :data:`_RUN_GC_THRESHOLDS` for the
        duration (see the module notes).  Only a run that found lower,
        nonzero thresholds raises them, and that run restores them, so
        nested and sequential runs leave the caller's thresholds as they
        were; a run racing another thread's run can at worst run at the
        caller's thresholds.
        """
        saved = gc.get_threshold()
        raise_gc = 0 < saved[0] < _RUN_GC_THRESHOLDS[0]
        if raise_gc:
            gc.set_threshold(*_RUN_GC_THRESHOLDS)
        before = [s["collections"] for s in gc.get_stats()]
        timer = self._gc_timer
        gc.callbacks.append(timer)
        try:
            return self._run(until)
        finally:
            gc.callbacks.remove(timer)
            counts = self.gc_collections
            for gen, s in enumerate(gc.get_stats()):
                counts[gen] += s["collections"] - before[gen]
            if raise_gc:
                gc.set_threshold(*saved)

    def _gc_timer(self, phase: str, _info: dict) -> None:
        """``gc.callbacks`` hook: accumulate collector pause time."""
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0

    def _run(self, until: Optional[float]) -> float:
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        step = self._step
        now = self.now
        while True:
            # heap entries due at the current time precede every ready
            # entry (they were scheduled earlier — smaller seq)
            if ready and not (heap and heap[0][0] <= now):
                self._dispatch_seq = _INF
                kind, a, b = popleft()
                # while ready drains the clock is pinned, so every new
                # heap entry is strictly in the future: dispatch the
                # whole deque without re-checking the heap head
                while ready:
                    if kind == _K_STEP:
                        step(a, b)
                    elif kind == _K_FIRE:
                        a.fire(b)
                    elif kind == _K_CALL1:
                        a(b)
                    else:  # _K_FN
                        a()
                    kind, a, b = popleft()
            elif heap:
                if until is not None and heap[0][0] > until and not ready:
                    self.now = until
                    return until
                sb = self.stop_bound
                if sb is not None and heap[0][0] > sb and not ready:
                    if sb > now:
                        self.now = sb
                    return self.now
                t, seq, kind, a, b = pop(heap)
                self.now = now = t
                self._dispatch_seq = seq
            else:
                break
            if kind == _K_STEP:
                step(a, b)
            elif kind == _K_FIRE:
                a.fire(b)
            elif kind == _K_WAKE:
                # only ever a heap entry: the slot's event-like fire
                self.heap_bypasses += 1
                ready.append((_K_STEP, a, b))
            elif kind == _K_CALL1:
                a(b)
            else:  # _K_FN
                a()
        blocked = [task.describe() for task in self._live_tasks.values()
                   if not task.done]
        if blocked:
            if self.external_pending > 0:
                # tasks are waiting on replies an external driver (the
                # shard coordinator) will deliver; hand control back
                return self.now
            raise DeadlockError(blocked)
        return self.now

    def run_tasks(self, gens: list[Generator[Any, Any, Any]],
                  names: Optional[list[str]] = None) -> list[Any]:
        """Start ``gens`` as tasks, run to completion, return their
        results in order."""
        names = names or [None] * len(gens)
        tasks = [self.spawn(g, name=n) for g, n in zip(gens, names)]
        try:
            self.run()
        except TaskFailedError as exc:
            raise exc.original from exc
        out = []
        for task in tasks:
            if task.error is not None:
                raise task.error
            out.append(task.result)
        return out
