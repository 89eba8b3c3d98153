"""Striping math: file offsets to (OST, chunk) decomposition, vectorized."""

from __future__ import annotations

import numpy as np

from repro.errors import FileSystemError


class StripeLayout:
    """Round-robin striping of a file across OSTs.

    Byte ``b`` lives in stripe ``b // stripe_size``; stripe ``s`` lives on
    OST ``(start_ost + s) % n_osts`` restricted to the file's
    ``stripe_count`` targets.
    """

    __slots__ = ("stripe_size", "stripe_count", "start_ost", "n_osts")

    def __init__(self, stripe_size: int, stripe_count: int, n_osts: int,
                 start_ost: int = 0):
        if stripe_size <= 0:
            raise FileSystemError(f"stripe_size must be > 0, got {stripe_size}")
        if not 0 < stripe_count <= n_osts:
            raise FileSystemError(
                f"stripe_count {stripe_count} must be in 1..{n_osts}"
            )
        if not 0 <= start_ost < n_osts:
            raise FileSystemError(f"start_ost {start_ost} out of range")
        self.stripe_size = int(stripe_size)
        self.stripe_count = int(stripe_count)
        self.start_ost = int(start_ost)
        self.n_osts = int(n_osts)

    def ost_of_stripe(self, stripe_index) -> np.ndarray:
        """Global OST id(s) holding the given stripe index(es)."""
        s = np.asarray(stripe_index, dtype=np.int64)
        return (self.start_ost + s % self.stripe_count) % self.n_osts

    def ost_of_offset(self, offset) -> np.ndarray:
        return self.ost_of_stripe(np.asarray(offset, dtype=np.int64)
                                  // self.stripe_size)

    def chunks(self, offsets, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split segments at stripe boundaries.

        Returns ``(chunk_offsets, chunk_lengths, chunk_osts)`` — every chunk
        lies within one stripe, hence on one OST.  Fully vectorized.
        """
        offs = np.asarray(offsets, dtype=np.int64).ravel()
        lens = np.asarray(lengths, dtype=np.int64).ravel()
        if offs.shape != lens.shape:
            raise FileSystemError("offsets/lengths shape mismatch")
        keep = lens > 0
        offs, lens = offs[keep], lens[keep]
        if offs.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        if offs.min() < 0:
            raise FileSystemError("negative file offset")
        S = self.stripe_size
        first = offs // S
        last = (offs + lens - 1) // S
        nchunks = (last - first + 1)
        seg_of = np.repeat(np.arange(offs.size, dtype=np.int64), nchunks)
        # index of each chunk within its segment
        starts = np.zeros(offs.size, dtype=np.int64)
        np.cumsum(nchunks[:-1], out=starts[1:])
        within = np.arange(seg_of.size, dtype=np.int64) - starts[seg_of]
        stripe = first[seg_of] + within
        chunk_lo = np.maximum(offs[seg_of], stripe * S)
        chunk_hi = np.minimum(offs[seg_of] + lens[seg_of], (stripe + 1) * S)
        return chunk_lo, chunk_hi - chunk_lo, self.ost_of_stripe(stripe)
