"""Collective-fidelity backends.

A :class:`CollectiveBackend` decides, per collective invocation, which
execution path runs: the ``analytic`` LogP site model
(:mod:`repro.simmpi.analytic` — one synchronization event per
collective), the ``detailed`` message schedule
(:mod:`repro.simmpi.collectives_detailed` — every tree/ring/pairwise
message is simulated), or the ``macro`` closed-form replay of that
schedule (:mod:`repro.simmpi.collectives_macro`).  A backend picks the
fidelity from the time-accounting category the call site charges the
collective to and, for ``scoped``, from whether it runs on the world
communicator.  Every collective the I/O protocols call is charged to
'sync'.  Point-to-point traffic is simulated per message whatever the
backend.  :func:`resolve_backend` builds one from a spec string:

``"analytic"``
    every collective uses the LogP site model;
``"detailed"``
    every collective runs its message schedule;
``"macro"``
    the synchronizing collectives replay their detailed message schedule
    in closed form (bit-identical virtual time, far fewer events); the
    rest run detailed;
``"hybrid"``
    per-category selection with the default table
    ``sync=analytic``, everything else ``detailed`` — on the I/O
    protocols' collectives, all 'sync', exactly ``analytic``;
``"hybrid:sync=macro,default=detailed"``
    explicit per-category table; a ``default=<fidelity>`` entry sets the
    fidelity of categories not listed (``detailed`` if omitted);
``"scoped:world=analytic,default=macro"``
    one fidelity for collectives on the world communicator (context 0 —
    the global barriers, extent allgathers and splits every rank joins),
    another for collectives on derived communicators (FA subgroups, node
    groups); ``"scoped"`` alone means exactly this table.  With world
    collectives analytic, the sharded engine bridges shards by merging
    timestamps (see :mod:`repro.shard.plan`).

All ranks must run any given collective through the same fidelity — a
backend is world-global or installed symmetrically on every rank's handle
(``Communicator.with_backend``, the ``collective_mode`` I/O hint), exactly
like the MPI requirement that collectives match across ranks.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import MPIError

#: the execution paths a collective can take
FIDELITIES = ("analytic", "detailed", "macro")
#: every name a backend spec can start with
BACKEND_NAMES = ("analytic", "detailed", "hybrid", "macro", "scoped")

_ENTRY_FORM = {"hybrid": "hybrid:<category>=<fidelity>,...",
               "scoped": "scoped:world=<fidelity>,default=<fidelity>"}


class CollectiveBackend:
    """Chooses the execution fidelity of each collective invocation.

    ``table`` maps categories to fidelities and ``default`` covers the
    categories it does not list; ``world``, when set, overrides both for
    collectives on the world communicator.  ``name`` is the spec's
    backend name.  Build backends with :func:`resolve_backend`, which
    checks every fidelity.
    """

    __slots__ = ("name", "table", "default", "world")

    def __init__(self, name: str, table: dict[str, str], default: str,
                 world: Optional[str] = None):
        self.name = name
        self.table = table
        self.default = default
        self.world = world

    def fidelity(self, category: str, comm=None) -> str:
        """The fidelity ('analytic', 'detailed' or 'macro') of one
        collective.

        ``category`` is the time-accounting category the call site charges
        the collective to ('sync', 'exchange', 'io', ...).  ``comm`` is the
        issuing communicator; call sites that cannot name it (None) take
        the table path.  Both arguments are the same on every rank of one
        collective, so every rank selects the same fidelity.
        """
        if self.world is not None and comm is not None and comm.desc.ctx == 0:
            return self.world
        return self.table.get(category, self.default)

    def world_fidelities(self) -> set[str]:
        """Every fidelity a collective on the world communicator can take."""
        if self.world is not None:
            return {self.world}
        return {*self.table.values(), self.default}

    def describe(self) -> str:
        """Canonical spec string that reconstructs this backend."""
        if self.name == "scoped":
            return f"scoped:world={self.world},default={self.default}"
        if self.name == "hybrid":
            parts = [f"{c}={f}" for c, f in sorted(self.table.items())]
            parts.append(f"default={self.default}")
            return f"hybrid:{','.join(parts)}"
        return self.name

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
    if name in FIDELITIES:
        if options:
            raise MPIError(
                f"collective backend {name!r} takes no options, "
                f"got {options!r}"
            )
        return CollectiveBackend(name, {}, name)
    entries: dict[str, str] = {}
    for item in options.split(",") if options else ():
        key, sep, fid = item.partition("=")
        key, fid = key.strip(), fid.strip()
        if (not sep or not key or not fid
                or (name == "scoped" and key not in ("world", "default"))):
            raise MPIError(
                f"malformed {name} backend entry {item!r}; expected "
                f"'{_ENTRY_FORM[name]}'"
            )
        if fid not in FIDELITIES:
            raise MPIError(
                f"{name} fidelity for {key!r} must be one of "
                f"{FIDELITIES}, got {fid!r}"
            )
        entries[key] = fid
    if name == "scoped":
        return CollectiveBackend(name, {}, entries.get("default", "macro"),
                                 world=entries.get("world", "analytic"))
    default = entries.pop("default", "detailed")
    return CollectiveBackend(name, entries if options else {"sync": "analytic"},
                             default)
