"""Simulated MPI over the discrete-event engine.

Provides communicators with MPI matching semantics (source/tag/context,
FIFO per peer), eager and rendezvous point-to-point protocols timed
through the :mod:`repro.cluster` network model, and the collective
operations collective I/O depends on (barrier, allreduce, gather,
allgather(v), alltoall(v), split) behind collective-fidelity backends
(:mod:`repro.simmpi.backends`):

* ``detailed`` — collectives run their real message schedules
  (dissemination barrier, recursive doubling, binomial gather, ring,
  pairwise exchange) as simulated point-to-point traffic;
* ``analytic`` — a collective is a synchronization site whose exit time is
  ``max(entry times) + LogP-style cost``; used for large-scale sweeps and
  validated against ``detailed`` in tests and an ablation benchmark;
* ``macro`` — the synchronizing collectives (all but ``gather``) replay
  their detailed message schedule in closed form: the same virtual time,
  far fewer events;
* ``scoped`` — one fidelity for world-communicator collectives, another
  for those on every derived communicator
  (``scoped:world=analytic,default=macro``).

Each communicator's fidelity is fixed when it is created.

Point-to-point traffic (the two-phase data exchange included) is
simulated per message under every backend.

Rank programs are generators; every blocking call is ``yield from``.
"""

from repro.simmpi.backends import CollectiveBackend, resolve_backend
from repro.simmpi.payload import Payload, sizeof
from repro.simmpi.reduce_ops import MAX, SUM, ReduceOp
from repro.simmpi.timers import TimeBreakdown
from repro.simmpi.world import Communicator, Proc, World

__all__ = [
    "World",
    "Communicator",
    "Proc",
    "CollectiveBackend",
    "resolve_backend",
    "Payload",
    "sizeof",
    "TimeBreakdown",
    "ReduceOp",
    "SUM",
    "MAX",
]
