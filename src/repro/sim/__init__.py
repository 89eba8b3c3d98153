"""Deterministic discrete-event simulation engine.

The engine executes *tasks* — trampolined Python generators — against a
virtual clock.  Tasks block by yielding :mod:`effect <repro.sim.effects>`
objects (``Sleep``, ``WaitEvent``); nested blocking calls compose with
``yield from``.  Execution order is fully deterministic:
events fire in (time, sequence-number) order and no wall-clock time or
OS-level concurrency is involved.

This is the substrate on which :mod:`repro.simmpi` implements MPI and
:mod:`repro.lustre` implements the parallel file system.
"""

from repro.sim.effects import Sleep, WaitEvent
from repro.sim.engine import Engine, Event, Task
from repro.sim.resources import FIFOResource
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder

__all__ = [
    "Engine",
    "Event",
    "Task",
    "Sleep",
    "WaitEvent",
    "FIFOResource",
    "RngStreams",
    "TraceRecorder",
]
