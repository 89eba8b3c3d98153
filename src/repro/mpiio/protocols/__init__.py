"""Pluggable collective-I/O protocols.

A :class:`CollectiveProtocol` turns one collective access — an
:class:`~repro.mpiio.two_phase.IOEnv` plus the rank's physical segments —
into simulation events.  The file layer (:mod:`repro.mpiio.file`) holds no
strategy logic of its own: ``write_at_all``/``read_at_all`` resolve the
``protocol`` hint through this registry and delegate, so a rival strategy
is a new module that registers itself here, never an edit to the file
layer.

Implementations register themselves on import (see the builtin modules in
this package); call sites resolve them by spec string only:

``"independent"``
    every rank issues its own file-system operation (the paper's
    "w/o Coll" configuration);
``"ext2ph"``
    the extended two-phase engine over the whole communicator (the
    paper's baseline);
``"parcoll"``
    partitioned collective I/O (:mod:`repro.parcoll`);
``"nodeagg"``
    intra-node request aggregation: cores funnel requests through a node
    leader before the inter-node exchange (Kang et al.).

Like collective backends, every rank of a communicator must run one
collective call through the same protocol — the file layer enforces this
with a symmetry ledger and raises :class:`~repro.errors.ParCollError` on
divergence, mirroring the backend fidelity-symmetry check.

Per-protocol shared state (cached subgroup communicators, partition
plans, leader communicators) lives in named slots on the shared file
handle (``_SharedFile.state_for(name)``) — each protocol sees only its
own dict, passed to every call as ``state``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Union

import numpy as np

from repro.datatypes.flatten import Segments
from repro.errors import ParCollError


class CollectiveProtocol:
    """One collective-I/O strategy: segments + data -> simulation events.

    ``write_all``/``read_all`` are generator functions driven by the
    simulation engine exactly like the rank programs themselves; they run
    on every rank of the communicator (collective semantics) and may use
    any :class:`~repro.simmpi.world.Communicator` operation.

    ``state`` is this protocol's private slot of the shared file handle:
    one dict per (file, protocol-name) pair, shared by all ranks, empty
    on first use and invalidated by the file layer when the protocol or a
    partitioning-relevant hint changes mid-file.
    """

    #: registry name of this protocol (set by subclasses)
    name: str = "?"

    def write_all(self, env, segs: Segments, data: Optional[np.ndarray],
                  state: dict, view) -> Generator[Any, Any, int]:
        """Collectively write ``segs`` (+dense ``data``); returns bytes
        written by this rank."""
        raise NotImplementedError

    def read_all(self, env, segs: Segments, state: dict, view
                 ) -> Generator[Any, Any, Optional[np.ndarray]]:
        """Collectively read ``segs``; returns dense bytes (None in model
        mode)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Canonical spec string that reconstructs this protocol."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()!r}>"


#: name -> factory(option string after ':') -> protocol instance
_REGISTRY: dict[str, Callable[[str], CollectiveProtocol]] = {}


def register_protocol(name: str,
                      factory: Callable[[str], CollectiveProtocol]) -> None:
    """Register a protocol factory under ``name``."""
    _REGISTRY[name] = factory


def _ensure_builtins() -> None:
    """Import the builtin protocol modules so their registrations run."""
    import repro.mpiio.protocols.direct  # noqa: F401  ('independent')
    import repro.mpiio.protocols.twophase  # noqa: F401  ('ext2ph')
    import repro.mpiio.protocols.partitioned  # noqa: F401  ('parcoll')
    import repro.mpiio.protocols.nodeagg  # noqa: F401  ('nodeagg')


def available_protocols() -> tuple[str, ...]:
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def resolve_protocol(spec: Union[str, CollectiveProtocol]
                     ) -> CollectiveProtocol:
    """Turn a spec string (or a ready protocol) into a protocol instance.

    Unknown names raise :class:`~repro.errors.ParCollError` naming the
    registered protocols (the hint layer re-wraps this as
    :class:`~repro.errors.MPIIOError` for invalid-hint call sites).
    """
    if isinstance(spec, CollectiveProtocol):
        return spec
    if not isinstance(spec, str):
        raise ParCollError(
            f"protocol spec must be a string or a CollectiveProtocol, "
            f"got {type(spec).__name__}"
        )
    _ensure_builtins()
    name, _, options = spec.partition(":")
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ParCollError(
            f"unknown collective protocol {name!r}; registered protocols: "
            f"{', '.join(available_protocols())}"
        )
    return factory(options)


def _reject_options(name: str, options: str) -> None:
    if options:
        raise ParCollError(
            f"collective protocol {name!r} takes no options, got {options!r}"
        )
