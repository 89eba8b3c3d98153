"""Backing stores for simulated files.

:class:`ByteStore` keeps real bytes (verified mode); :class:`ExtentTracker`
records only which byte ranges were written (model mode), so experiments
with multi-gigabyte virtual files never allocate the data while tests can
still assert complete, non-overlapping coverage.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.flatten import coalesce
from repro.datatypes.packing import copy_segments, dense_starts
from repro.errors import FileSystemError

#: refuse to materialize verified-mode files beyond this size
MAX_VERIFIED_BYTES = 1 << 30


class ByteStore:
    """A growable flat byte array with explicit read/write extents."""

    def __init__(self, initial_capacity: int = 4096):
        self._buf = np.zeros(max(16, initial_capacity), dtype=np.uint8)
        self.size = 0  # highest written end

    def _ensure(self, end: int) -> None:
        if end > MAX_VERIFIED_BYTES:
            raise FileSystemError(
                f"verified-mode file would grow to {end} bytes "
                f"(cap {MAX_VERIFIED_BYTES}); use model mode for large runs"
            )
        if end > self._buf.size:
            new_cap = self._buf.size
            while new_cap < end:
                new_cap *= 2
            # only the written prefix is copied: capacity past ``size``
            # stays untouched zero pages until a write reaches it
            buf = np.zeros(new_cap, dtype=np.uint8)
            buf[: self.size] = self._buf[: self.size]
            self._buf = buf

    def write(self, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8).ravel()
        self.write_segments([offset], [data.size], data)

    def write_segments(self, offsets, lengths, data: np.ndarray) -> None:
        """Write densely packed ``data`` at the segments, growing the file."""
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        if offsets.size == 0:
            return
        if int(offsets.min()) < 0:
            raise FileSystemError(f"negative offset {int(offsets.min())}")
        end = int((offsets + lengths).max())
        self._ensure(end)
        copy_segments(self._buf, offsets, np.asarray(data, dtype=np.uint8),
                      dense_starts(lengths), lengths)
        self.size = max(self.size, end)

    def read(self, offset: int, length: int) -> np.ndarray:
        return self.read_segments([offset], [length])

    def read_segments(self, offsets, lengths) -> np.ndarray:
        """The bytes at the segments, densely packed.

        Bytes past the written size read as zero; a read never grows
        the buffer.
        """
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        if offsets.size == 0:
            return np.empty(0, dtype=np.uint8)
        if int(offsets.min()) < 0 or int(lengths.min()) < 0:
            raise FileSystemError("negative offset/length")
        packed = dense_starts(lengths)
        ends = offsets + lengths
        if int(ends.max()) <= self.size:
            out = np.empty(int(lengths.sum()), dtype=np.uint8)
        else:
            out = np.zeros(int(lengths.sum()), dtype=np.uint8)
            lengths = np.maximum(np.minimum(ends, self.size) - offsets, 0)
            offsets = np.minimum(offsets, self.size)
        copy_segments(out, packed, self._buf, offsets, lengths)
        return out

    def view(self) -> np.ndarray:
        """The file contents up to its current size (read-only, no copy)."""
        out = self._buf[: self.size]
        out.flags.writeable = False
        return out

    def snapshot(self) -> np.ndarray:
        """The file contents up to its current size (copy)."""
        return self._buf[: self.size].copy()


class ExtentTracker:
    """Records written extents without storing data (model mode).

    Extents are merged lazily; ``covered_bytes`` and ``extents`` give the
    coalesced view for coverage assertions.
    """

    def __init__(self) -> None:
        self._offs: list[int] = []
        self._lens: list[int] = []
        self._dirty = False
        self.size = 0

    def write(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise FileSystemError("negative offset/length")
        if length == 0:
            return
        self._offs.append(offset)
        self._lens.append(length)
        self._dirty = True
        self.size = max(self.size, offset + length)

    def _compact(self) -> None:
        if self._dirty:
            o, l = coalesce(np.array(self._offs, dtype=np.int64),
                            np.array(self._lens, dtype=np.int64))
            self._offs = o.tolist()
            self._lens = l.tolist()
            self._dirty = False

    @property
    def extents(self) -> tuple[np.ndarray, np.ndarray]:
        self._compact()
        return (np.array(self._offs, dtype=np.int64),
                np.array(self._lens, dtype=np.int64))

    @property
    def covered_bytes(self) -> int:
        self._compact()
        return int(sum(self._lens))

    def is_fully_covered(self, lo: int, hi: int) -> bool:
        """True when every byte of [lo, hi) has been written."""
        if hi <= lo:
            return True
        o, l = self.extents
        idx = np.searchsorted(o, lo, side="right") - 1
        return bool(idx >= 0 and o[idx] <= lo and o[idx] + l[idx] >= hi)
