"""Unit tests for FIFO resources and RNG streams."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Engine, FIFOResource, RngStreams, Sleep, TraceRecorder


def test_single_request_service_time():
    eng = Engine()
    res = FIFOResource(eng, "ost", rate=100.0, overhead=1.0)

    def prog():
        done = yield from res.service(200)
        return done

    (done,) = eng.run_tasks([prog()])
    assert done == pytest.approx(1.0 + 200 / 100.0)
    assert eng.now == pytest.approx(3.0)


def test_concurrent_requests_serialize():
    eng = Engine()
    res = FIFOResource(eng, "ost", rate=100.0, overhead=0.0)
    finish = {}

    def prog(i):
        yield from res.service(100)  # 1 second each
        finish[i] = eng.now

    eng.run_tasks([prog(0), prog(1), prog(2)])
    assert finish[0] == pytest.approx(1.0)
    assert finish[1] == pytest.approx(2.0)
    assert finish[2] == pytest.approx(3.0)


def test_resource_idles_then_serves():
    eng = Engine()
    res = FIFOResource(eng, "ost", rate=10.0, overhead=0.0)

    def prog():
        yield Sleep(5.0)
        yield from res.service(10)
        return eng.now

    (t,) = eng.run_tasks([prog()])
    assert t == pytest.approx(6.0)


def test_reserve_with_extra_time():
    eng = Engine()
    res = FIFOResource(eng, "ost", rate=10.0, overhead=0.5)
    done = res.reserve(10, extra=2.0)
    assert done == pytest.approx(0.5 + 1.0 + 2.0)
    assert res.busy_until == done


def test_back_to_back_services_keep_the_resource_busy():
    eng = Engine()
    res = FIFOResource(eng, "ost", rate=100.0)

    def prog():
        yield from res.service(50)
        yield from res.service(50)

    eng.run_tasks([prog()])
    assert res.busy_until == pytest.approx(1.0) == eng.now


def test_invalid_resource_parameters():
    eng = Engine()
    with pytest.raises(SimulationError):
        FIFOResource(eng, "bad", rate=0.0)
    with pytest.raises(SimulationError):
        FIFOResource(eng, "bad", rate=1.0, overhead=-1.0)
    res = FIFOResource(eng, "ok", rate=1.0)
    with pytest.raises(SimulationError):
        res.reserve(-5)


def test_rng_streams_are_deterministic_and_independent():
    a1 = RngStreams(seed=7).stream("ost-3").random(5)
    a2 = RngStreams(seed=7).stream("ost-3").random(5)
    b = RngStreams(seed=7).stream("ost-4").random(5)
    c = RngStreams(seed=8).stream("ost-3").random(5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_rng_fork_changes_streams():
    root = RngStreams(seed=7)
    fork = root.fork("rep-1")
    assert not np.array_equal(root.stream("x").random(4), fork.stream("x").random(4))


def test_trace_recorder_filters_and_caps():
    tr = TraceRecorder(categories={"io"}, max_records=2)
    tr.record(0.0, "io", "a")
    tr.record(1.0, "net", "ignored")
    tr.record(2.0, "io", "b")
    tr.record(3.0, "io", "dropped")
    assert len(tr) == 2
    assert tr.dropped == 1
    assert tr.by_category("io") == [(0.0, "a"), (2.0, "b")]
    tr.clear()
    assert len(tr) == 0 and tr.dropped == 0
