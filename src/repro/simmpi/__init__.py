"""Simulated MPI over the discrete-event engine.

Provides communicators with MPI matching semantics (source/tag/context,
FIFO per peer), eager and rendezvous point-to-point protocols timed
through the :mod:`repro.cluster` network model, and the collective
operations collective I/O depends on (barrier, allreduce, gather,
allgather(v), alltoall(v), split), plus scatter, behind
collective-fidelity backends (:mod:`repro.simmpi.backends`):

* ``detailed`` — collectives run their real message schedules
  (dissemination barrier, recursive doubling, binomial gather and
  scatter, ring, pairwise exchange) as simulated point-to-point traffic;
* ``analytic`` — a collective is a synchronization site whose exit time is
  ``max(entry times) + LogP-style cost``; used for large-scale sweeps and
  validated against ``detailed`` in tests and an ablation benchmark;
* ``macro`` — the synchronizing collectives (all but ``gather`` and
  ``scatter``) replay their detailed message schedule in closed form:
  the same virtual time, far fewer events;
* ``hybrid`` — per-category fidelity selection
  (``hybrid:sync=analytic,exchange=detailed,io=detailed``), so the
  collective wall can be modeled analytically while everything else keeps
  full message fidelity;
* ``scoped`` — one fidelity for world-communicator collectives, another
  for subgroup ones (``scoped:world=analytic,default=macro``).

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
