"""Shared workload plumbing: per-rank data, timing records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class AccessTimes:
    """Start/end of one rank's timed I/O phase (virtual seconds)."""

    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class WorkloadIOStats:
    """What one rank reports back to the harness."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_times: Optional[AccessTimes] = None
    read_times: Optional[AccessTimes] = None
    #: summed duration of this rank's I/O operations (excludes compute
    #: phases between them; includes waits inside collective calls)
    io_seconds: float = 0.0
    #: workload-specific extras (e.g. per-phase timings)
    extra: dict = field(default_factory=dict)


def deterministic_bytes(rank: int, n: int, salt: int = 0) -> np.ndarray:
    """Cheap reproducible per-rank payload for verified runs.

    Byte ``i`` is ``(i * 131 + rank * 17 + salt * 29 + 7) mod 251``, which
    repeats every 251 bytes: one period is built and tiled.
    """
    period = ((np.arange(251, dtype=np.int64) * 131
               + (rank * 17 + salt * 29 + 7)) % 251).astype(np.uint8)
    return np.tile(period, -(-n // 251))[:n]


def payload_for(rank: int, n: int, verified: bool,
                salt: int = 0) -> Optional[np.ndarray]:
    """Real bytes in verified mode, None (size-only) in model mode."""
    return deterministic_bytes(rank, n, salt) if verified else None


def compute_phase_time(rank: int, step: int, base: float, jitter: float,
                       seed: int = 0) -> float:
    """Duration of one solver/compute phase for one rank.

    ``base`` plus an exponential tail of scale ``jitter`` — heavy-tailed
    per-rank imbalance is what makes the *max* entry skew into a
    collective grow with the process count (the cascading effect global
    synchronization amplifies).  Deterministic per (seed, rank, step).
    """
    if base <= 0 and jitter <= 0:
        return 0.0
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rank, step))
    rng = np.random.Generator(np.random.PCG64(ss))
    extra = float(rng.exponential(jitter)) if jitter > 0 else 0.0
    return base + extra
