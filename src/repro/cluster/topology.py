"""3-D torus topology helpers (SeaStar-style interconnect).

Jaguar's SeaStar network is a 3-D torus.  The cost model treats the
network as distance-mostly-flat (wormhole routing makes per-hop cost
small), but an optional per-hop latency term lets experiments probe
topology sensitivity.  Hop counts are computed analytically; a networkx
graph construction is provided for cross-validation in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class Torus3D:
    """A ``dims[0] x dims[1] x dims[2]`` torus of nodes."""

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise ConfigError(f"invalid torus dims {self.dims}")

    @property
    def nnodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    @classmethod
    def fit(cls, nnodes: int) -> "Torus3D":
        """Smallest near-cubic torus with at least ``nnodes`` slots."""
        if nnodes <= 0:
            raise ConfigError(f"nnodes must be positive, got {nnodes}")
        side = max(1, round(nnodes ** (1.0 / 3.0)))
        # grow dims one axis at a time until the torus is large enough
        dims = [side, side, side]
        axis = 0
        while dims[0] * dims[1] * dims[2] < nnodes:
            dims[axis] += 1
            axis = (axis + 1) % 3
        return cls(tuple(dims))  # type: ignore[arg-type]

    def coords(self, node: int) -> tuple[int, int, int]:
        if not 0 <= node < self.nnodes:
            raise ConfigError(f"node {node} out of range [0, {self.nnodes})")
        x, y, z = self.dims
        return (node % x, (node // x) % y, node // (x * y))

    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between nodes ``a`` and ``b`` on the torus."""
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for d, (pa, pb) in zip(self.dims, zip(ca, cb)):
            delta = abs(pa - pb)
            total += min(delta, d - delta)
        return total

    def diameter(self) -> int:
        return sum(d // 2 for d in self.dims)

    def to_networkx(self):  # pragma: no cover - exercised in tests only
        """Build the torus as a networkx graph (for validation)."""
        import networkx as nx

        g = nx.Graph()
        x, y, z = self.dims
        for n in range(self.nnodes):
            cx, cy, cz = self.coords(n)
            for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                nxt = (((cx + dx) % x) + ((cy + dy) % y) * x
                       + ((cz + dz) % z) * x * y)
                g.add_edge(n, nxt)
        return g
