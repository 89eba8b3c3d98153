"""Unit tests for the discrete-event engine."""

import pytest

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


def test_event_fire_later():
    eng = Engine()
    ev = Event(eng, "delayed")

    def waiter():
        val = yield WaitEvent(ev)
        return (eng.now, val)

    def firer():
        ev.fire_later(5.0, "v")
        return None
        yield  # pragma: no cover

    results = eng.run_tasks([waiter(), firer()])
    assert results[0] == (5.0, "v")


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
    eng = Engine()

    def prog():
        yield "not an effect"

    with pytest.raises(SimulationError):
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
