"""Move bytes between buffers and segment lists.

:func:`copy_segments` is the one byte mover of verified mode: every
pack, unpack, merge, file-store access and oracle update goes through
it.  ``gather_segments`` pulls the bytes a segment list addresses out of
a buffer into one dense array (pack); ``scatter_segments`` pushes dense
bytes back out (unpack).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import DatatypeError
from repro.perf import perf_counters

#: a length shared by fewer segments than this moves by slice loop: a
#: row gather costs a few numpy calls, a slice about one
_MIN_ROWS = 8


def dense_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each segment starts once the segments are densely packed."""
    out = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size > 1:
        np.cumsum(lengths[:-1], out=out[1:])
    return out


def _check(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
           side: str) -> None:
    if buf.dtype != np.uint8 or buf.ndim != 1:
        raise DatatypeError(f"{side} buffer must be a 1-D uint8 array")
    if starts.size != lengths.size:
        raise DatatypeError(f"{starts.size} {side} starts for "
                            f"{lengths.size} segments")
    if int(starts.min()) < 0:
        raise DatatypeError(f"negative {side} start")
    end = int((starts + lengths).max())
    if end > buf.size:
        raise DatatypeError(
            f"segments extend to {end} beyond {side} buffer of "
            f"{buf.size} bytes"
        )


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of ``buf`` as a row: row k is buf[k:k+width]."""
    step = buf.strides[0]
    shape = (buf.size - width + 1, width)
    if buf.flags.c_contiguous:
        # several times cheaper than as_strided, but needs a contiguous buffer
        return np.ndarray(shape, np.uint8, buf, 0, (step, step))
    return as_strided(buf, shape, (step, step))


def _rows(starts: np.ndarray, width: int):
    """Which window rows hold the segments: a slice when they lie back to
    back in order (a view, so that side is read or written in place),
    else the starts themselves (a gather)."""
    first = int(starts[0])
    if (int(starts[-1]) - first == (starts.size - 1) * width
            and (np.diff(starts) == width).all()):
        return slice(first, first + starts.size * width, width)
    return starts


def _row_gather(dst: np.ndarray, dst_starts: np.ndarray, src: np.ndarray,
                src_starts: np.ndarray, width: int) -> None:
    """Copy equal-length segments as one row gather between window views."""
    _windows(dst, width)[_rows(dst_starts, width)] = (
        _windows(src, width)[_rows(src_starts, width)])
    perf_counters.segments_vectorized += dst_starts.size


def copy_segments(dst: np.ndarray, dst_starts, src: np.ndarray, src_starts,
                  lengths) -> None:
    """Copy ``src[src_starts[i]:][:lengths[i]]`` to ``dst[dst_starts[i]:]``.

    Segments are grouped by length.  A length that at least
    :data:`_MIN_ROWS` segments share moves as one row gather between the
    ``(size - L + 1, L)`` window views of the two buffers, so no
    per-byte index is ever built; rarer lengths take a slice loop.
    Destination segments must be disjoint and must not overlap the
    source ones.
    """
    dst_starts = np.asarray(dst_starts, dtype=np.int64).ravel()
    src_starts = np.asarray(src_starts, dtype=np.int64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if lengths.size == 0:
        return
    shortest = int(lengths.min())
    if shortest < 0:
        raise DatatypeError("negative segment length")
    _check(dst, dst_starts, lengths, "destination")
    _check(src, src_starts, lengths, "source")
    if lengths.size >= _MIN_ROWS:
        if shortest == int(lengths.max()):
            if shortest:
                _row_gather(dst, dst_starts, src, src_starts, shortest)
            return
        order = np.argsort(lengths, kind="stable")
        by_len = lengths[order]
        bounds = [0, *(np.flatnonzero(by_len[1:] != by_len[:-1]) + 1).tolist(),
                  lengths.size]
        rare = []
        for i0, i1 in zip(bounds[:-1], bounds[1:]):
            group = order[i0:i1]
            width = int(by_len[i0])
            if i1 - i0 < _MIN_ROWS or width == 0:
                rare.append(group)
            else:
                _row_gather(dst, dst_starts[group], src, src_starts[group],
                            width)
        rare = np.concatenate(rare) if rare else order[:0]
        dst_starts = dst_starts[rare]
        src_starts = src_starts[rare]
        lengths = lengths[rare]
    for d, s, n in zip(dst_starts.tolist(), src_starts.tolist(),
                       lengths.tolist()):
        dst[d:d + n] = src[s:s + n]


def gather_segments(buf: np.ndarray, offsets, lengths) -> np.ndarray:
    """Return the bytes of ``buf`` addressed by the segments, densely packed."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    copy_segments(out, dense_starts(lengths), buf, offsets, lengths)
    return out


def scatter_segments(buf: np.ndarray, offsets, lengths, data: np.ndarray) -> None:
    """Write densely-packed ``data`` into ``buf`` at the segment positions."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    data = np.asarray(data, dtype=np.uint8).ravel()
    total = int(lengths.sum())
    if data.size != total:
        raise DatatypeError(
            f"data has {data.size} bytes but segments cover {total}"
        )
    copy_segments(buf, offsets, data, dense_starts(lengths), lengths)
