"""Simulated MPI over the discrete-event engine.

Provides communicators with MPI matching semantics (source/tag/context,
wildcards, FIFO per peer), eager and rendezvous point-to-point protocols
timed through the :mod:`repro.cluster` network model, and the collective
operations collective I/O depends on (barrier, bcast, reduce, allreduce,
gather(v), allgather(v), alltoall(v), scan) behind collective-fidelity
backends (:mod:`repro.simmpi.backends`):

* ``detailed`` — collectives run their real message schedules
  (dissemination barrier, binomial trees, recursive doubling, ring,
  pairwise exchange) as simulated point-to-point traffic;
* ``analytic`` — a collective is a synchronization site whose exit time is
  ``max(entry times) + LogP-style cost``; used for large-scale sweeps and
  validated against ``detailed`` in tests and an ablation benchmark;
* ``macro`` — the synchronizing collectives replay their detailed
  message schedule in closed form: the same virtual time, far fewer
  events;
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
from repro.simmpi.reduce_ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.simmpi.timers import TimeBreakdown
from repro.simmpi.world import ANY_SOURCE, ANY_TAG, Communicator, Proc, World

__all__ = [
    "World",
    "Communicator",
    "Proc",
    "CollectiveBackend",
    "resolve_backend",
    "Payload",
    "sizeof",
    "TimeBreakdown",
    "ANY_SOURCE",
    "ANY_TAG",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
]
