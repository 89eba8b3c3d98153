"""Collective-fidelity backends.

A collective runs one of three execution paths: the ``analytic`` LogP
site model (:mod:`repro.simmpi.analytic` — one synchronization event per
collective), the ``detailed`` message schedule
(:mod:`repro.simmpi.collectives_detailed` — every tree/ring/pairwise
message is simulated), or the ``macro`` closed-form replay of that
schedule (:mod:`repro.simmpi.collectives_macro`).  A
:class:`CollectiveBackend` holds two of them: ``world`` for collectives
on the world communicator (context 0 — the global barriers, extent
allgathers and splits every rank joins) and ``default`` for those on
every communicator derived from it (FA subgroups, node groups).  That is
ParColl's split between global synchronization and synchronization
inside each subgroup.  Each communicator takes its fidelity once, when
the world creates its descriptor, so every rank of a collective runs the
same path.  Point-to-point traffic is simulated per message whatever the
backend.  :func:`resolve_backend` builds one from a spec string:

``"analytic"``
    every collective uses the LogP site model;
``"detailed"``
    every collective runs its message schedule;
``"macro"``
    the synchronizing collectives replay their detailed message schedule
    in closed form (bit-identical virtual time, far fewer events); the
    rest run detailed;
``"scoped:world=analytic,default=macro"``
    one fidelity for the world communicator, another for derived
    communicators; ``"scoped"`` alone means exactly this table.  With
    world collectives analytic, the sharded engine bridges shards by
    merging timestamps (see :mod:`repro.shard.plan`).
"""

from __future__ import annotations

from typing import Union

from repro.errors import MPIError

#: the execution paths a collective can take
FIDELITIES = ("analytic", "detailed", "macro")
#: every name a backend spec can start with
BACKEND_NAMES = (*FIDELITIES, "scoped")


class CollectiveBackend:
    """The fidelity of collectives on the world communicator (``world``)
    and on every communicator derived from it (``default``).  Build
    backends with :func:`resolve_backend`, which checks both."""

    __slots__ = ("world", "default")

    def __init__(self, world: str, default: str):
        self.world = world
        self.default = default

    def describe(self) -> str:
        """Canonical spec string that reconstructs this backend."""
        if self.world == self.default:
            return self.world
        return f"scoped:world={self.world},default={self.default}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CollectiveBackend {self.describe()!r}>"


def resolve_backend(spec: Union[str, CollectiveBackend]) -> CollectiveBackend:
    """Turn a spec string (or a ready backend) into a backend instance.

    Any malformed spec raises :class:`~repro.errors.MPIError`.
    """
    if isinstance(spec, CollectiveBackend):
        return spec
    if not isinstance(spec, str):
        raise MPIError(
            f"collective backend spec must be a string or a "
            f"CollectiveBackend, got {type(spec).__name__}"
        )
    name, _, options = spec.partition(":")
    if name not in BACKEND_NAMES:
        raise MPIError(
            f"unknown collective backend {name!r}; backends: "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if name != "scoped":
        if options:
            raise MPIError(
                f"collective backend {name!r} takes no options, "
                f"got {options!r}"
            )
        return CollectiveBackend(name, name)
    entries = {"world": "analytic", "default": "macro"}
    for item in options.split(",") if options else ():
        key, sep, fid = item.partition("=")
        key, fid = key.strip(), fid.strip()
        if not sep or key not in entries:
            raise MPIError(
                f"malformed scoped backend entry {item!r}; expected "
                "'scoped:world=<fidelity>,default=<fidelity>'"
            )
        if fid not in FIDELITIES:
            raise MPIError(
                f"scoped fidelity for {key!r} must be one of "
                f"{FIDELITIES}, got {fid!r}"
            )
        entries[key] = fid
    return CollectiveBackend(entries["world"], entries["default"])
