"""Pluggable collective-fidelity backends.

A :class:`CollectiveBackend` decides, per collective invocation, which
execution path runs: the ``analytic`` LogP site model (cheap — one
synchronization event per collective) or the ``detailed`` message-schedule
model (faithful — every tree/ring/pairwise message is simulated).  The
``hybrid`` backend picks a fidelity *per collective category* (the same
'sync' / 'exchange' / 'io' labels the time breakdown uses), so a sweep can
run its synchronization collectives analytically while anything it cares
about stays detailed — the per-phase cost separation ParColl's ext2ph
breakdown is built on.

Implementations register themselves here (see
:mod:`repro.simmpi.analytic` and
:mod:`repro.simmpi.collectives_detailed`); call sites resolve them by
spec string only:

``"analytic"``
    every collective uses the LogP site model;
``"detailed"``
    every collective runs its message schedule;
``"macro"``
    the synchronizing collectives replay their detailed message schedule
    in closed form (bit-identical virtual time, far fewer events); the
    rest run detailed (:mod:`repro.simmpi.collectives_macro`);
``"hybrid"``
    per-category selection with the default table
    ``sync=analytic``, everything else ``detailed``;
``"hybrid:sync=analytic,exchange=detailed,io=detailed"``
    explicit per-category table; a ``default=<fidelity>`` entry sets the
    fidelity of categories not listed;
``"scoped:world=analytic,default=macro"``
    one fidelity for collectives on the world communicator, another for
    collectives on derived communicators (see :class:`ScopedBackend`).

All ranks must run any given collective through the same fidelity — a
backend is world-global or installed symmetrically on every rank's handle
(``Communicator.with_backend``, the ``collective_mode`` I/O hint), exactly
like the MPI requirement that collectives match across ranks.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.errors import MPIError


class CollectiveBackend:
    """Chooses the execution fidelity of each collective invocation."""

    #: registry name of this backend (set by subclasses)
    name: str = "?"

    def fidelity(self, category: str, comm=None) -> str:
        """Leaf fidelity ('analytic', 'detailed' or 'macro') for one
        collective.

        ``category`` is the time-accounting category the call site charges
        the collective to ('sync', 'exchange', 'io', ...).  ``comm`` is the
        issuing communicator (or None when the caller has none to name) —
        scope backends dispatch on its (rank-symmetric) identity, e.g.
        world versus derived subgroup.  Implementations must return the
        same fidelity on every rank for one collective — dispatch only on
        these (rank-symmetric) arguments.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Canonical spec string that reconstructs this backend."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()!r}>"


#: name -> factory(option string after ':') -> backend instance
_REGISTRY: dict[str, Callable[[str], CollectiveBackend]] = {}
#: leaf fidelity names usable as hybrid per-category targets
_LEAF_FIDELITIES: set[str] = set()


def register_backend(name: str, factory: Callable[[str], CollectiveBackend],
                     leaf: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``leaf`` marks the backend as a terminal fidelity that composite
    backends (hybrid) may select per category.
    """
    _REGISTRY[name] = factory
    if leaf:
        _LEAF_FIDELITIES.add(name)


def _ensure_builtins() -> None:
    """Import the fidelity modules so their registrations run."""
    import repro.simmpi.analytic  # noqa: F401  (registers 'analytic')
    import repro.simmpi.collectives_detailed  # noqa: F401  ('detailed')
    import repro.simmpi.collectives_macro  # noqa: F401  ('macro')


def available_backends() -> tuple[str, ...]:
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def leaf_fidelities() -> tuple[str, ...]:
    _ensure_builtins()
    return tuple(sorted(_LEAF_FIDELITIES))


def resolve_backend(spec: Union[str, CollectiveBackend]) -> CollectiveBackend:
    """Turn a spec string (or a ready backend) into a backend instance."""
    if isinstance(spec, CollectiveBackend):
        return spec
    if not isinstance(spec, str):
        raise MPIError(
            f"collective backend spec must be a string or a "
            f"CollectiveBackend, got {type(spec).__name__}"
        )
    _ensure_builtins()
    name, _, options = spec.partition(":")
    factory = _REGISTRY.get(name)
    if factory is None:
        raise MPIError(
            f"unknown collective backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return factory(options)


def _reject_options(name: str, options: str) -> None:
    if options:
        raise MPIError(
            f"collective backend {name!r} takes no options, "
            f"got {options!r}"
        )


class _LeafBackend(CollectiveBackend):
    """A single-fidelity backend: every category runs the same path."""

    def fidelity(self, category: str, comm=None) -> str:
        return self.name

    @classmethod
    def from_spec(cls, options: str) -> "_LeafBackend":
        _reject_options(cls.name, options)
        return cls()


class HybridBackend(CollectiveBackend):
    """Per-category fidelity selection.

    ``table`` maps category names to leaf fidelities; ``default`` covers
    categories not in the table.  The default configuration —
    ``sync`` analytic, everything else detailed — targets the common
    large-sweep shape: the per-round count exchanges and barriers that
    form the collective wall are modeled analytically, while collectives
    a workload explicitly charges elsewhere keep full message fidelity.
    """

    name = "hybrid"
    DEFAULT_TABLE = {"sync": "analytic"}
    DEFAULT_FIDELITY = "detailed"

    def __init__(self, table: Optional[dict[str, str]] = None,
                 default: Optional[str] = None):
        _ensure_builtins()
        self._table = dict(self.DEFAULT_TABLE if table is None else table)
        self._default = self.DEFAULT_FIDELITY if default is None else default
        for cat, fid in [*self._table.items(), ("default", self._default)]:
            if fid not in _LEAF_FIDELITIES:
                raise MPIError(
                    f"hybrid fidelity for {cat!r} must be one of "
                    f"{leaf_fidelities()}, got {fid!r}"
                )

    def fidelity(self, category: str, comm=None) -> str:
        return self._table.get(category, self._default)

    def describe(self) -> str:
        parts = [f"{c}={f}" for c, f in sorted(self._table.items())]
        parts.append(f"default={self._default}")
        return f"{self.name}:{','.join(parts)}"

    @classmethod
    def from_spec(cls, options: str) -> "HybridBackend":
        """Parse ``sync=analytic,exchange=detailed,default=detailed``."""
        if not options:
            return cls()
        table: dict[str, str] = {}
        default = None
        for item in options.split(","):
            key, sep, fid = item.partition("=")
            key, fid = key.strip(), fid.strip()
            if not sep or not key or not fid:
                raise MPIError(
                    f"malformed hybrid backend entry {item!r}; expected "
                    "'category=fidelity' (e.g. 'hybrid:sync=analytic,"
                    "exchange=detailed')"
                )
            if key == "default":
                default = fid
            else:
                table[key] = fid
        return cls(table=table, default=default)


register_backend(HybridBackend.name, HybridBackend.from_spec)


class ScopedBackend(CollectiveBackend):
    """Communicator-scope fidelity: world collectives vs everything else.

    ``scoped:world=analytic,default=macro`` runs collectives issued on
    the *world* communicator (context 0 — the global barriers, extent
    allgathers and splits that every rank joins) at one fidelity and
    collectives on derived communicators (FA subgroups, node groups) at
    another.  This is the shape the sharded DES needs: with world-scope
    collectives analytic, cross-shard interaction reduces to pure
    timestamp merging, while subgroup traffic — which never crosses a
    shard boundary under ParColl's partition — keeps full message (or
    macro) fidelity.  Call sites that cannot name their communicator
    (``comm=None``) take the ``default`` path.
    """

    name = "scoped"
    DEFAULT_WORLD = "analytic"
    DEFAULT_SCOPED = "macro"

    def __init__(self, world: Optional[str] = None,
                 default: Optional[str] = None):
        _ensure_builtins()
        self._world = self.DEFAULT_WORLD if world is None else world
        self._default = self.DEFAULT_SCOPED if default is None else default
        for scope, fid in (("world", self._world),
                           ("default", self._default)):
            if fid not in _LEAF_FIDELITIES:
                raise MPIError(
                    f"scoped fidelity for {scope!r} must be one of "
                    f"{leaf_fidelities()}, got {fid!r}"
                )

    def fidelity(self, category: str, comm=None) -> str:
        if comm is not None and comm.desc.ctx == 0:
            return self._world
        return self._default

    def describe(self) -> str:
        return f"{self.name}:world={self._world},default={self._default}"

    @classmethod
    def from_spec(cls, options: str) -> "ScopedBackend":
        """Parse ``world=<fidelity>,default=<fidelity>`` (both optional)."""
        if not options:
            return cls()
        kwargs: dict = {}
        for item in options.split(","):
            key, sep, fid = item.partition("=")
            key, fid = key.strip(), fid.strip()
            if not sep or key not in ("world", "default") or not fid:
                raise MPIError(
                    f"malformed scoped backend entry {item!r}; expected "
                    "'scoped:world=<fidelity>,default=<fidelity>'"
                )
            kwargs[key] = fid
        return cls(**kwargs)


register_backend(ScopedBackend.name, ScopedBackend.from_spec)
