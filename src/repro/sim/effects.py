"""Effect objects yielded by simulation tasks.

A task is a generator.  Whenever it needs to interact with the virtual
world — advance time or wait for a signal — it yields one of these
effect objects and is resumed by the engine when the effect completes.
Blocking helpers in higher layers are themselves generators and are
invoked with ``yield from``.  A task may instead yield a helper's
generator: the engine then runs it as a subroutine, with the same
results and effect count, resuming only the helper's frame per step
(see :mod:`repro.sim.engine`).  ``yield from`` stays the convention;
:meth:`Communicator._collective
<repro.simmpi.world.Communicator._collective>` is the one subroutine
call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Event


@dataclass(frozen=True)
class Sleep:
    """Suspend the task for ``dt`` seconds of virtual time.

    ``dt`` may be zero (yield the scheduler without advancing time); it
    must not be negative.
    """

    dt: float


@dataclass(frozen=True)
class WaitEvent:
    """Suspend the task until the event fires; resumes with its value."""

    event: "Event"


Effect = Sleep | WaitEvent
