"""Segment-array utilities shared by the datatype and I/O layers.

A *segment list* is a pair of equally-sized ``int64`` arrays
``(offsets, lengths)`` with ``lengths > 0``, sorted by offset, and
non-overlapping.  ``coalesce`` additionally guarantees no two segments are
adjacent (they would have been merged) — the canonical form every
flattened datatype is kept in.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatatypeError

Segments = tuple[np.ndarray, np.ndarray]

EMPTY: Segments = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def as_segments(offsets, lengths) -> Segments:
    """Normalize to int64 arrays, dropping zero-length entries."""
    offs = np.asarray(offsets, dtype=np.int64).ravel()
    lens = np.asarray(lengths, dtype=np.int64).ravel()
    if offs.shape != lens.shape:
        raise DatatypeError(
            f"offsets/lengths shape mismatch: {offs.shape} vs {lens.shape}"
        )
    if offs.size and lens.min() < 0:
        raise DatatypeError("negative segment length")
    keep = lens > 0
    if not keep.all():
        offs, lens = offs[keep], lens[keep]
    return offs, lens


def coalesce(offsets, lengths) -> Segments:
    """Sort, merge overlapping/adjacent segments; returns canonical form.

    Vectorized: a segment starts a new *group* when its offset exceeds the
    running maximum end of everything before it.  Overlap is tolerated on
    input (it arises when callers union access ranges) and merged away.
    Input already sorted by offset skips the sort.
    """
    offs, lens = as_segments(offsets, lengths)
    if offs.size <= 1:
        return offs, lens
    if (offs[1:] < offs[:-1]).any():
        order = np.argsort(offs, kind="stable")
        offs, lens = offs[order], lens[order]
    # running max of ends; group boundary where offset > the previous max
    max_end = np.maximum.accumulate(offs + lens)
    boundary = np.empty(offs.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = offs[1:] > max_end[:-1]
    starts = np.flatnonzero(boundary)
    # a group's end is the running max at its last member: every earlier
    # group ended before this group's first offset
    last = np.empty_like(starts)
    last[:-1] = starts[1:] - 1
    last[-1] = offs.size - 1
    out_offs = offs[starts]
    return out_offs, max_end[last] - out_offs


def validate_segments(offsets, lengths, allow_adjacent: bool = True) -> None:
    """Raise :class:`DatatypeError` unless the pair is a valid segment list."""
    offs, lens = np.asarray(offsets, np.int64), np.asarray(lengths, np.int64)
    if offs.shape != lens.shape or offs.ndim != 1:
        raise DatatypeError("segments must be 1-D arrays of equal shape")
    if offs.size == 0:
        return
    if lens.min() <= 0:
        raise DatatypeError("segment lengths must be positive")
    if np.any(np.diff(offs) < 0):
        raise DatatypeError("segment offsets must be sorted")
    ends = offs[:-1] + lens[:-1]
    if np.any(offs[1:] < ends):
        raise DatatypeError("segments overlap")
    if not allow_adjacent and np.any(offs[1:] == ends):
        raise DatatypeError("segments are adjacent but not merged")


def total_bytes(segments: Segments) -> int:
    return int(segments[1].sum())


def replicate(segments: Segments, displacements) -> Segments:
    """Place a copy of ``segments`` at each displacement, then coalesce.

    The core of datatype composition: child data regions stamped at every
    parent slot.  Fully vectorized via broadcasting.
    """
    offs, lens = segments
    disps = np.asarray(displacements, dtype=np.int64).ravel()
    if offs.size == 0 or disps.size == 0:
        return EMPTY
    new_offs = (disps[:, None] + offs[None, :]).ravel()
    new_lens = np.broadcast_to(lens, (disps.size, lens.size)).ravel()
    return coalesce(new_offs, new_lens)


def slice_by_data(segments: Segments, dlo: int, dhi: int) -> Segments:
    """Sub-segments covering data positions [dlo, dhi) of a segment list.

    The *data position* of a byte is its index in the densely-packed view
    of the segments (segment order).  This is the logical→physical
    translation primitive behind ParColl's intermediate file views.
    """
    offs, lens = segments
    if dlo < 0 or dhi < dlo:
        raise DatatypeError(f"invalid data range [{dlo}, {dhi})")
    if offs.size == 0 or dhi == dlo:
        return EMPTY
    prefix = np.zeros(offs.size + 1, dtype=np.int64)
    np.cumsum(lens, out=prefix[1:])
    total = int(prefix[-1])
    if dhi > total:
        raise DatatypeError(f"data range end {dhi} beyond {total} bytes")
    i0 = int(np.searchsorted(prefix, dlo, side="right") - 1)
    i1 = int(np.searchsorted(prefix, dhi, side="left"))
    out_offs = offs[i0:i1].copy()
    out_lens = lens[i0:i1].copy()
    head_skip = dlo - int(prefix[i0])
    out_offs[0] += head_skip
    out_lens[0] -= head_skip
    tail_cut = int(prefix[i1]) - dhi
    if tail_cut > 0:
        out_lens[-1] -= tail_cut
    keep = out_lens > 0
    return out_offs[keep], out_lens[keep]


def intersect_range(segments: Segments, lo: int, hi: int) -> Segments:
    """Clip a segment list to the half-open byte range [lo, hi)."""
    offs, lens = segments
    if offs.size == 0 or hi <= lo:
        return EMPTY
    ends = offs + lens
    keep = (ends > lo) & (offs < hi)
    offs, ends = offs[keep], ends[keep]
    if offs.size == 0:
        return EMPTY
    clipped_offs = np.maximum(offs, lo)
    clipped_ends = np.minimum(ends, hi)
    return clipped_offs, clipped_ends - clipped_offs
