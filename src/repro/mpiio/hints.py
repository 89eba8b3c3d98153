"""MPI Info hints controlling collective I/O.

Mirrors the ROMIO hint names where one exists; ParColl's controls follow
the paper's Section 4.2: the user may give either the number of
aggregators to draw from the default list (``cb_nodes``) or an explicit
list of aggregator ranks (``cb_config_ranks``), and ParColl adds the
subgroup count (``parcoll_ngroups``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from repro.errors import MPIIOError


@dataclass(frozen=True)
class IOHints:
    """Validated hint set for one open file."""

    #: collective buffer bytes per aggregator per round (ROMIO cb_buffer_size)
    cb_buffer_size: int = 4 << 20
    #: number of I/O aggregators from the default list; None = one per node
    cb_nodes: Optional[int] = None
    #: explicit aggregator ranks (communicator ranks); overrides cb_nodes
    cb_config_ranks: Optional[tuple[int, ...]] = None
    #: collective protocol used by *_all operations: a name in
    #: :data:`repro.mpiio.file.PROTOCOLS` ('ext2ph', 'independent',
    #: 'nodeagg', 'parcoll')
    protocol: str = "ext2ph"
    #: ParColl: number of subgroups (file areas); 1 degenerates to ext2ph
    parcoll_ngroups: int = 1
    #: ParColl: allow switching to an intermediate file view (pattern (c))
    parcoll_intermediate_views: bool = True
    #: ParColl: data path under an intermediate view.  'physical'
    #: (default, the paper's design) groups processes by logical offsets
    #: but runs each subgroup's two-phase exchange over the original
    #: physical segments, so windows stay dense and writes coalesce;
    #: 'logical' runs the exchange in logical space and translates each
    #: shipped piece back to physical segments (simpler, but every
    #: aggregator write is scattered) — kept as an ablation.
    parcoll_data_path: str = "physical"
    #: ParColl: 'once' plans the grouping on the first collective call and
    #: reuses it (the paper partitions at file-view initiation; subsequent
    #: calls coordinate only within subgroups, letting groups drift apart);
    #: 'always' re-plans globally every call (fully general, but keeps one
    #: global collective per call); 'auto' reuses the grouping like 'once'
    #: but re-plans (globally) when the stationarity guard would otherwise
    #: reject the call — at the price of one tiny global agreement
    #: allreduce per call, so subgroups re-synchronize like 'always' but
    #: skip the extent allgather and regrouping while the pattern holds
    parcoll_replan: str = "once"

    def __post_init__(self) -> None:
        if self.cb_buffer_size <= 0:
            raise MPIIOError("cb_buffer_size must be positive")
        if self.cb_nodes is not None and self.cb_nodes <= 0:
            raise MPIIOError("cb_nodes must be positive")
        from repro.mpiio.file import PROTOCOLS

        if not isinstance(self.protocol, str) or self.protocol not in PROTOCOLS:
            raise MPIIOError(
                f"unknown collective protocol {self.protocol!r}; protocols: "
                f"{', '.join(PROTOCOLS)}")
        if self.parcoll_ngroups <= 0:
            raise MPIIOError("parcoll_ngroups must be positive")
        if self.parcoll_data_path not in ("physical", "logical"):
            raise MPIIOError(
                f"parcoll_data_path must be 'physical' or 'logical', "
                f"got {self.parcoll_data_path!r}"
            )
        if self.parcoll_replan not in ("once", "always", "auto"):
            raise MPIIOError(
                f"parcoll_replan must be 'once', 'always' or 'auto', "
                f"got {self.parcoll_replan!r}"
            )
        if self.cb_config_ranks is not None:
            if len(self.cb_config_ranks) == 0:
                raise MPIIOError("cb_config_ranks must not be empty")
            if len(set(self.cb_config_ranks)) != len(self.cb_config_ranks):
                raise MPIIOError("cb_config_ranks contains duplicates")

    @classmethod
    def from_dict(cls, info: Mapping[str, Any]) -> "IOHints":
        """Build from a plain ``{hint-name: value}`` mapping (MPI_Info analog)."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(info) - known
        if unknown:
            raise MPIIOError(f"unknown hint(s): {sorted(unknown)}")
        kwargs = dict(info)
        if "cb_config_ranks" in kwargs and kwargs["cb_config_ranks"] is not None:
            kwargs["cb_config_ranks"] = tuple(kwargs["cb_config_ranks"])
        return cls(**kwargs)

    def with_(self, **kwargs: Any) -> "IOHints":
        """Copy with overrides (validated)."""
        if "cb_config_ranks" in kwargs and kwargs["cb_config_ranks"] is not None:
            kwargs["cb_config_ranks"] = tuple(kwargs["cb_config_ranks"])
        return replace(self, **kwargs)
