"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, Event, Sleep, WaitEvent


def test_sleep_advances_virtual_clock():
    eng = Engine()
    seen = []

    def prog():
        yield Sleep(1.5)
        seen.append(eng.now)
        yield Sleep(2.5)
        seen.append(eng.now)
        return "done"

    (result,) = eng.run_tasks([prog()])
    assert result == "done"
    assert seen == [1.5, 4.0]
    assert eng.now == 4.0


def test_zero_sleep_is_allowed():
    eng = Engine()

    def prog():
        yield Sleep(0.0)
        return eng.now

    (result,) = eng.run_tasks([prog()])
    assert result == 0.0


def test_negative_sleep_raises():
    eng = Engine()

    def prog():
        yield Sleep(-1.0)

    with pytest.raises(SimulationError):
        eng.run_tasks([prog()])


def test_two_tasks_interleave_deterministically():
    eng = Engine()
    order = []

    def prog(name, dt):
        for i in range(3):
            yield Sleep(dt)
            order.append((name, eng.now))

    eng.run_tasks([prog("a", 1.0), prog("b", 0.5)])
    assert order == [
        ("b", 0.5), ("a", 1.0), ("b", 1.0), ("b", 1.5), ("a", 2.0), ("a", 3.0),
    ]


def test_event_wait_and_fire():
    eng = Engine()
    ev = Event(eng, "ping")
    got = []

    def waiter():
        val = yield WaitEvent(ev)
        got.append((eng.now, val))

    def firer():
        yield Sleep(3.0)
        ev.fire(42)

    eng.run_tasks([waiter(), firer()])
    assert got == [(3.0, 42)]


def test_event_fired_before_wait_returns_immediately():
    eng = Engine()
    ev = Event(eng, "pre")
    ev.fire("early")

    def waiter():
        val = yield WaitEvent(ev)
        return (eng.now, val)

    (result,) = eng.run_tasks([waiter()])
    assert result == (0.0, "early")


def test_event_multiple_waiters_all_resume():
    eng = Engine()
    ev = Event(eng, "broadcast")
    got = []

    def waiter(i):
        val = yield WaitEvent(ev)
        got.append((i, val))

    def firer():
        yield Sleep(1.0)
        ev.fire("x")

    eng.run_tasks([waiter(0), waiter(1), waiter(2), firer()])
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


def test_event_double_fire_raises():
    eng = Engine()
    ev = Event(eng, "once")
    ev.fire(1)
    with pytest.raises(SimulationError):
        ev.fire(2)


def test_unjoined_child_exception_fails_run():
    eng = Engine()

    def child():
        yield Sleep(1.0)
        raise ValueError("unseen")

    def parent():
        eng.spawn(child(), "c")
        yield Sleep(5.0)

    # run_tasks unwraps the TaskFailedError to the original exception
    with pytest.raises(ValueError, match="unseen"):
        eng.run_tasks([parent()])


def test_deadlock_detection_names_blocked_tasks():
    eng = Engine()
    ev = Event(eng, "never")

    def prog():
        yield WaitEvent(ev)

    eng.spawn(prog(), name="stuck-task")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert "stuck-task" in str(exc.value)
    assert "never" in str(exc.value)


def test_yielding_non_effect_raises():
    # a tuple is an effect only as a (time, seq, value) slot
    for effect in ("not an effect", (1.0, 2), ("a", "b", "c")):
        eng = Engine()

        def prog():
            yield effect

        with pytest.raises(SimulationError, match="generator to run as a "
                                                  "subroutine"):
            eng.run_tasks([prog()])


def test_run_until_pauses_and_resumes():
    eng = Engine()
    seen = []

    def prog():
        for _ in range(4):
            yield Sleep(1.0)
            seen.append(eng.now)

    eng.spawn(prog())
    eng.run(until=2.5)
    assert seen == [1.0, 2.0]
    assert eng.now == 2.5
    eng.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.now = 10.0
    with pytest.raises(SimulationError):
        eng.call_at(5.0, lambda: None)


def test_many_tasks_scale():
    eng = Engine()
    counter = []

    def prog(i):
        yield Sleep(i * 0.001)
        counter.append(i)

    eng.run_tasks([prog(i) for i in range(1000)])
    assert counter == list(range(1000))


# -- subroutine yields ------------------------------------------------------
# Each case runs one program twice: calling its helpers with ``yield
# from`` and as engine subroutines (a bare ``yield`` of the generator).
# Both must log the same values at the same virtual times and dispatch
# the same number of effects.

def _call_from(gen):
    return (yield from gen)


def _call_sub(gen):
    return (yield gen)


def _both(make_programs):
    """Run ``make_programs(eng, call, log)`` under both call styles;
    returns ``(log, results, effects_dispatched)`` per style."""
    out = []
    for call in (_call_from, _call_sub):
        eng = Engine()
        log = []
        results = eng.run_tasks(make_programs(eng, call, log))
        out.append((log, results, eng.effects_dispatched))
    return out


def test_subroutine_resumes_caller_with_its_return_value():
    def make(eng, call, log):
        ev = Event(eng, "go")

        def inner(x):
            yield Sleep(1.0)
            got = yield ev
            log.append(("inner", eng.now, got))
            return x * 2

        def caller():
            y = yield from call(inner(21))
            log.append(("caller", eng.now, y))
            yield Sleep(0.5)
            return y

        def firer():
            yield Sleep(3.0)
            ev.fire("v")

        return [caller(), firer()]

    ref, sub = _both(make)
    assert sub == ref
    log, results, _ = sub
    assert log == [("inner", 3.0, "v"), ("caller", 3.0, 42)]
    assert results == [42, None]


def test_subroutine_exception_reaches_the_caller_at_its_yield():
    def make(eng, call, log):
        def inner():
            yield Sleep(1.0)
            raise KeyError("inner")

        def caller():
            try:
                yield from call(inner())
            except KeyError as exc:
                log.append(("caught", eng.now, exc.args[0]))
            yield Sleep(1.0)
            return eng.now

        return [caller()]

    ref, sub = _both(make)
    assert sub == ref
    assert sub[0] == [("caught", 1.0, "inner")]
    assert sub[1] == [2.0]


def test_uncaught_subroutine_exception_fails_the_run():
    eng = Engine()
    boom = ValueError("boom")

    def inner():
        yield Sleep(1.0)
        raise boom

    def caller():
        yield inner()
        yield Sleep(1.0)

    with pytest.raises(ValueError) as exc:
        eng.run_tasks([caller()])
    assert exc.value is boom
    assert eng.now == 1.0


def test_nested_and_non_yielding_subroutines():
    def make(eng, call, log):
        def leaf(x):
            return x + 1
            yield  # a generator that returns without yielding

        def middle(x):
            a = yield from call(leaf(x))
            yield Sleep(0.25)
            b = yield from call(leaf(a))
            log.append(("middle", eng.now, b))
            return b

        def outer():
            c = yield from call(middle(1))
            d = yield from call(leaf(c))
            log.append(("outer", eng.now, d))
            return d

        return [outer(), outer()]

    ref, sub = _both(make)
    assert sub == ref
    assert sub[1] == [4, 4]


def test_subroutines_dispatch_as_many_effects_as_yield_from():
    def make(eng, call, log):
        ev = Event(eng, "e")

        def step(i):
            yield Sleep(0.1 * i)
            if i == 2:
                yield WaitEvent(ev)
            return i

        def prog():
            total = 0
            for i in range(4):
                total += yield from call(step(i))
            return total

        def firer():
            yield Sleep(1.0)
            ev.fire()

        return [prog(), firer()]

    ref, sub = _both(make)
    assert sub == ref
    assert sub[2] == ref[2] > 0


def test_deadlock_inside_a_subroutine_names_the_inner_event():
    eng = Engine()
    inner_ev = Event(eng, "inner-never")

    def inner():
        yield Sleep(1.0)
        yield inner_ev

    def caller():
        yield inner()

    eng.spawn(caller(), name="stuck-caller")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert "stuck-caller" in str(exc.value)
    assert "inner-never" in str(exc.value)



# -- engine slots ------------------------------------------------------------

def _run_schedule(use_slots, fires, waiters, order):
    """Run one schedule; ``use_slots`` wakes through engine slots, else
    through events fired by ``fire_at`` (the reference).

    ``fires[k] = (s, d)``: wake k is reserved at time ``s`` for
    ``s + d``.  A slot has one waiter, so only waiter ``k % len(waiters)``
    waits on wake k; the others read it.  ``waiters[i]`` is a list of
    ``(dt, via_deque, k, how)`` ops: sleep ``dt`` (a heap-stage wake),
    optionally yield once more at the same time (a deque-stage
    resumption), then wait on or read wake k.  A wait on a wake not yet
    reserved waits on an event that the reservation fires at its slot,
    as a receive posted before its send does.  Returns the resume log,
    the effect count and the heap pushes.
    """
    eng = Engine()
    events = [Event(eng, ("e", k)) for k in range(len(fires))]
    #: slot mode: k -> the reserved slot, or the event a wait posted
    #: before the reservation
    held = {}
    log = []

    def firer(k, s, d):
        if s:
            yield Sleep(s)
        value = ("v", k)
        if not use_slots:
            events[k].fire_at(eng.now + d, value)
        elif k in held:
            held[k].fire_at(eng.now + d, value)
        else:
            held[k] = eng.slot(eng.now + d, value)

    def waiter(i, ops):
        for dt, via_deque, k, how in ops:
            if dt:
                yield Sleep(dt)
            if via_deque:
                yield Sleep(0.0)
            k %= len(fires)
            if how in ("event", "wait") and k % len(waiters) != i:
                how = "fired"
            w = held.get(k) if use_slots else events[k]
            if how in ("event", "wait"):
                if w is None:
                    w = held[k] = Event(eng, ("posted", k))
                got = yield (WaitEvent(w) if how == "wait" and
                             isinstance(w, Event) else w)
            elif how == "fired":
                got = w is not None and eng.passed(w)
            elif w is not None and eng.passed(w):
                got = w.value if isinstance(w, Event) else w[2]
            else:
                got = "unfired"
            log.append((i, eng.now, how, got))

    tasks = ([firer(k, s, d) for k, (s, d) in enumerate(fires)]
             + [waiter(i, ops) for i, ops in enumerate(waiters)])
    eng.run_tasks([tasks[j] for j in order])
    return log, eng.effects_dispatched, eng.heap_pushes


_TIMES = st.sampled_from([0.0, 1.0, 2.0])
_OPS = st.lists(st.tuples(_TIMES, st.booleans(), st.integers(0, 3),
                          st.sampled_from(["event", "wait", "fired",
                                           "value"])),
                min_size=1, max_size=3)


@given(fires=st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=4),
       waiters=st.lists(_OPS, min_size=1, max_size=5),
       perm=st.permutations(range(9)))
# a deque-stage read at the slot's time, and heap-stage reads whose wake
# slot comes right after and right before the fire's
@example(fires=[(0.0, 1.0)], waiters=[[(1.0, True, 0, "fired")]],
         perm=range(9))
@example(fires=[(0.0, 1.0)], waiters=[[(1.0, False, 0, "fired")]],
         perm=range(9))
@example(fires=[(0.0, 1.0)], waiters=[[(1.0, False, 0, "fired")]],
         perm=[1, 0])
# a wait that comes before the reservation, and a same-time wake
@example(fires=[(1.0, 1.0)], waiters=[[(0.0, False, 0, "event")]],
         perm=range(9))
@example(fires=[(1.0, 0.0)], waiters=[[(1.0, True, 0, "wait")]],
         perm=range(9))
def test_lazy_fire_resumes_exactly_like_fire_at(fires, waiters, perm):
    """A task that yields a slot resumes at the same time, and in the
    same order, as one that waits on an event fired at that slot."""
    # the spawn order: tasks are numbered firers first, then waiters
    order = [j for j in perm if j < len(fires) + len(waiters)]
    ref_log, ref_effects, ref_pushes = _run_schedule(False, fires, waiters,
                                                     order)
    log, effects, pushes = _run_schedule(True, fires, waiters, order)
    assert log == ref_log
    assert effects == ref_effects
    assert pushes <= ref_pushes


def test_lazy_tuple_task_and_event_names():
    from repro.sim.engine import _label

    eng = Engine()
    seen = {}

    def child():
        yield from ()
        return "ok"

    def slot_waiter(slot):
        yield slot

    def prog():
        task = eng.spawn(child(), ("write", 3))
        seen["name"] = task.name
        ev = Event(eng, ("send-free", 1, 0))
        ev.fire("v")
        seen["event"] = _label(ev.name)
        waiter = eng.spawn(slot_waiter(eng.slot(2.5)), ("recv", 7))
        yield Sleep(1.0)
        seen["waiter"] = waiter.describe()

    eng.run_tasks([prog()])
    assert seen["name"] == "write:3"
    assert seen["event"] == "send-free:1:0"
    assert seen["waiter"] == "recv:7: sleeping until t=2.5"
