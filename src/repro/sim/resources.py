"""Shared serial resources with FIFO service semantics.

A :class:`FIFOResource` models a device that serves requests one after
another at a fixed byte rate with a fixed per-request overhead — an OST
data mover, a NIC injection port, a metadata server.  Because service is
strictly FIFO and the engine is deterministic, the resource does not need
a queue object: it keeps a single ``busy_until`` watermark and each
request computes its own completion time.

Contention falls out naturally: if many clients hit the same resource at
the same virtual time, their completions serialize, so the *last* one
observes the sum of all service times — exactly the behaviour that makes
unaggregated small I/O slow on a real parallel file system.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.effects import Sleep
from repro.sim.engine import Engine


class ServiceProfile:
    """A piecewise-constant service-*speed* multiplier over virtual time.

    Built from ``(start, end, factor)`` windows: inside a window the
    resource serves at ``factor`` times its nominal rate (``factor`` < 1
    degrades, ``factor`` == 0 stalls, overlapping windows multiply).
    ``end=None`` means the window never closes.  Outside every window the
    speed is 1.0, so a resource without any active window behaves exactly
    like an unprofiled one.

    The profile answers one question: given a request that *starts*
    service at ``start`` and needs ``work`` seconds at nominal speed,
    when does it finish?  Deterministic piecewise integration — no
    randomness, no engine coupling — which keeps time-varying resources
    reproducible and cheap.
    """

    __slots__ = ("times", "speeds")

    def __init__(self, windows: Iterable[tuple[float, Optional[float], float]]):
        ws: list[tuple[float, Optional[float], float]] = []
        points = {0.0}
        for start, end, factor in windows:
            start = float(start)
            factor = float(factor)
            if start < 0:
                raise SimulationError(
                    f"profile window start must be >= 0, got {start}")
            if factor < 0:
                raise SimulationError(
                    f"profile speed factor must be >= 0, got {factor}")
            if end is not None:
                end = float(end)
                if end <= start:
                    raise SimulationError(
                        f"profile window must end after it starts "
                        f"({start} >= {end})")
                points.add(end)
            ws.append((start, end, factor))
            points.add(start)
        #: segment boundaries; ``speeds[i]`` holds on [times[i], times[i+1])
        self.times = sorted(points)
        self.speeds = []
        for t in self.times:
            speed = 1.0
            for start, end, factor in ws:
                if start <= t and (end is None or t < end):
                    speed *= factor
            self.speeds.append(speed)
        if self.speeds[-1] == 0.0:
            raise SimulationError(
                "service profile ends in a permanent stall (an open-ended "
                "window with factor 0); requests would never complete"
            )

    def speed_at(self, t: float) -> float:
        """Effective speed multiplier at virtual time ``t``."""
        i = bisect_right(self.times, t) - 1
        if i < 0:
            return 1.0
        return self.speeds[i]

    def finish_time(self, start: float, work: float) -> float:
        """Completion time of ``work`` nominal-speed seconds begun at ``start``."""
        if work <= 0.0:
            return start
        i = max(0, bisect_right(self.times, start) - 1)
        t = float(start)
        while True:
            speed = self.speeds[i]
            seg_end = (self.times[i + 1] if i + 1 < len(self.times)
                       else math.inf)
            if speed > 0.0:
                dt = work / speed
                if t + dt <= seg_end:
                    return t + dt
                work -= (seg_end - t) * speed
            t = seg_end
            i += 1


class FIFOResource:
    """A serially-served resource: ``service time = overhead + nbytes/rate``."""

    __slots__ = ("engine", "name", "rate", "overhead", "busy_until",
                 "profile")

    def __init__(self, engine: Engine, name: str, rate: float,
                 overhead: float = 0.0):
        if rate <= 0:
            raise SimulationError(f"resource {name!r}: rate must be > 0, got {rate}")
        if overhead < 0:
            raise SimulationError(f"resource {name!r}: overhead must be >= 0")
        self.engine = engine
        self.name = name
        #: service rate in bytes per second
        self.rate = float(rate)
        #: fixed per-request latency in seconds
        self.overhead = float(overhead)
        self.busy_until = 0.0
        #: optional ServiceProfile (time-varying speed); None = nominal
        self.profile: Optional[ServiceProfile] = None

    def service_time(self, nbytes: int) -> float:
        return self.overhead + nbytes / self.rate

    def reserve(self, nbytes: int, extra: float = 0.0) -> float:
        """Reserve a service slot starting now; returns the completion time.

        Non-blocking: callers that want to wait should use :meth:`service`.
        ``extra`` adds request-specific time (e.g. a lock-revocation
        penalty) that occupies the resource.
        """
        return self.reserve_span(self.engine.now, nbytes, extra=extra)[1]

    def reserve_span(self, t: float, nbytes: int, extra: float = 0.0
                     ) -> tuple[float, float]:
        """Reserve a slot for a request that *arrives* at time ``t`` >= now;
        returns ``(service_start, done)``.

        Used by the network model: a message cannot occupy the receiving
        NIC before it has left the sender, but the reservation must be
        made now so later arrivals queue behind it deterministically.
        :meth:`NetworkModel.transfer` inlines the nominal-speed branch.

        Without a profile this computes exactly the same arithmetic as it
        always has (``done = start + stime``; the reported start is
        ``done - stime`` so existing callers that derived it by
        subtraction see bit-identical values).  With a profile, service
        time stretches through slow/stalled windows via
        :meth:`ServiceProfile.finish_time`.
        """
        if nbytes < 0:
            raise SimulationError(f"resource {self.name!r}: negative size {nbytes}")
        busy = self.busy_until
        start = t if t > busy else busy
        stime = self.overhead + nbytes / self.rate + extra
        if self.profile is None:
            done = start + stime
            span_start = done - stime
        else:
            done = self.profile.finish_time(start, stime)
            span_start = start
        self.busy_until = done
        return span_start, done

    def service(self, nbytes: int, extra: float = 0.0) -> Generator[Any, Any, float]:
        """Blocking helper: wait until this request has been served."""
        done = self.reserve(nbytes, extra=extra)
        yield Sleep(done - self.engine.now)
        return done
