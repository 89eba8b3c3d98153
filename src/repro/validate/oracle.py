"""Byte-level file-content oracles.

The paper's central correctness claim is that FA partitioning plus
intermediate file views produce *the same file bytes* as the
unpartitioned extended two-phase engine.  This module materializes the
expected bytes without running any protocol at all:

:func:`sequential_golden`
    a sequential golden writer — applies each rank's flattened view
    segments and dense data to a plain array, in rank order, exactly as
    MPI-IO semantics demand for disjoint collective writes.  No
    aggregation, no rounds, no exchange: just datatype flattening.
:class:`ShadowFile`
    the same golden state grown incrementally, one recorded write at a
    time, next to a live simulation.  In verified mode it holds real
    bytes; in model mode it tracks written extents only, so the oracle
    still checks *coverage* when experiments never materialize data.
:class:`OracleDiff`
    a structured mismatch report (first diverging offset, expected/got
    context bytes) that harnesses can dump as a CI artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.datatypes.flatten import EMPTY, Segments, coalesce
from repro.datatypes.packing import scatter_segments
from repro.errors import ValidationError
from repro.lustre.store import ByteStore

#: bump when oracle semantics change: part of every RunCache key, so a
#: cached result validated under old semantics is never trusted by new ones
ORACLE_VERSION = 1

#: bytes of context shown around the first mismatch
_DIFF_CONTEXT = 8
#: bytes compared per step of the in-place diff (bounds its temporaries)
_DIFF_BLOCK = 1 << 20


@dataclass
class OracleDiff:
    """One file-content mismatch between a run and its golden oracle."""

    file: str
    #: 'bytes' (verified mode) or 'extents' (model mode)
    kind: str
    #: first diverging file offset (byte granularity)
    offset: int
    #: total mismatching bytes
    nbytes: int
    expected: list[int] = field(default_factory=list)
    got: list[int] = field(default_factory=list)

    def describe(self) -> str:
        exp = " ".join(f"{b:02x}" for b in self.expected)
        got = " ".join(f"{b:02x}" for b in self.got)
        return (f"file {self.file!r}: {self.kind} diverge from the golden "
                f"oracle at offset {self.offset} ({self.nbytes} byte(s) "
                f"differ); expected [{exp}] got [{got}]")

    def to_dict(self) -> dict[str, Any]:
        return {"file": self.file, "kind": self.kind, "offset": self.offset,
                "nbytes": self.nbytes, "expected": list(self.expected),
                "got": list(self.got)}

    def raise_(self) -> None:
        raise ValidationError("file_oracle", self.describe(),
                              detail=self.to_dict())


def sequential_golden(size: int,
                      writes: Sequence[tuple[Segments, np.ndarray]]
                      ) -> np.ndarray:
    """Expected file bytes of ``writes`` applied sequentially.

    Each write is ``(segments, dense_data)`` — the flattened form of one
    rank's file view plus the bytes in data order.  Writes are applied
    in sequence, so later writes win on overlap (MPI-IO write ordering
    for non-concurrent operations; collective writers within one call
    must be disjoint anyway).
    """
    out = np.zeros(size, dtype=np.uint8)
    for (offs, lens), data in writes:
        flat = np.asarray(data, dtype=np.uint8).ravel()
        total = int(np.asarray(lens, dtype=np.int64).sum())
        if flat.size != total:
            raise ValidationError(
                "golden_writer",
                f"data has {flat.size} bytes, segments cover {total}")
        scatter_segments(out, offs, lens, flat)
    return out


def _segments_overlap(a: Segments, b: Segments) -> bool:
    """Whether two segment lists touch any common byte.

    Both sides are coalesced (sorted, disjoint), so a merge walk over
    interval boundaries decides in one pass.
    """
    a_offs, a_lens = a
    b_offs, b_lens = b
    if len(a_offs) == 0 or len(b_offs) == 0:
        return False
    a_offs = np.asarray(a_offs, dtype=np.int64)
    a_ends = a_offs + np.asarray(a_lens, dtype=np.int64)
    b_offs = np.asarray(b_offs, dtype=np.int64)
    b_ends = b_offs + np.asarray(b_lens, dtype=np.int64)
    # for each a-interval, the first b-interval that ends after a starts
    idx = np.searchsorted(b_ends, a_offs, side="right")
    valid = idx < b_offs.size
    if not valid.any():
        return False
    return bool((b_offs[idx[valid]] < a_ends[valid]).any())


def _merge(a: Segments, b: Segments) -> Segments:
    """Union of two coalesced segment lists by one sorted merge."""
    pos = np.searchsorted(a[0], b[0])
    return coalesce(np.insert(a[0], pos, b[0]), np.insert(a[1], pos, b[1]))


def _union(parts: Sequence[Segments]) -> Segments:
    """Coalesced union of any number of segment lists."""
    if not parts:
        return EMPTY
    return coalesce(np.concatenate([offs for offs, _ in parts]),
                    np.concatenate([lens for _, lens in parts]))


class ShadowFile:
    """The golden state of one simulated file, grown write by write.

    ``verified`` mirrors the platform: with real bytes the shadow holds
    a dense array; without, it accumulates written extents.  Both sides
    start as all-zeros / nothing-written, matching a fresh
    :class:`~repro.lustre.store.ByteStore` / ``ExtentTracker``.

    The shadow also tracks *happens-before*: every recorded write stays
    **pending** until the caller marks it complete (its data provably
    landed in the simulated file system).  A read is oracle-checkable
    only over bytes whose every overlapping write has completed — a read
    racing an in-flight write may legitimately observe either state, so
    the oracle must not judge it (:meth:`checkable_read`).

    Race checks run against one coalesced union of the pending writes,
    so a record costs one overlap test plus one sorted merge, however
    many writes are in flight; only a hit walks the pending writes to
    find the racing one.
    """

    def __init__(self, name: str, verified: bool):
        self.name = name
        self.verified = verified
        self._store = ByteStore()
        self.size = 0
        #: each recorded write's coalesced segments not yet folded into
        #: ``_extents`` (the merged coverage, built on demand)
        self._recorded: list[Segments] = []
        self._extents: Segments = EMPTY
        #: writes recorded (for report counting)
        self.writes = 0
        #: total bytes recorded, counting overlap multiplicity; differs
        #: from ``covered_bytes`` once any write rewrote covered bytes
        self.total_recorded = 0
        #: recorded-but-not-landed writes: token -> coalesced segments
        self._pending: dict[int, Segments] = {}
        #: coalesced union of ``_pending``; None once a retired write
        #: made it stale (rebuilt on the next query)
        self._pending_union: Optional[Segments] = EMPTY
        self._next_token = 0
        #: byte ranges two unordered writes both touched: the shadow
        #: applies them in record order but the file may land them in
        #: either order, so reads there are never checkable
        self._unordered: Segments = EMPTY

    # -- recording ------------------------------------------------------
    def record(self, segs: Segments, data: Optional[np.ndarray]) -> int:
        """Apply one rank's write (its view segments + dense bytes).

        Returns a happens-before token: the write counts as *pending*
        (in flight) until :meth:`complete` is called with the token, or
        :meth:`complete_all` marks a quiescent point.
        """
        offs, lens = segs
        offs = np.asarray(offs, dtype=np.int64).ravel()
        lens = np.asarray(lens, dtype=np.int64).ravel()
        total = int(lens.sum())
        self.writes += 1
        mine = coalesce(offs, lens)
        pending = self._union_of_pending()
        if _segments_overlap(mine, pending):
            for other in self._pending.values():
                if _segments_overlap(mine, other):
                    # racing writers: the landing order is undefined, so
                    # permanently blind the read oracle on both extents
                    self._unordered = _union([self._unordered, mine, other])
                    break
        self._next_token += 1
        token = self._next_token
        self._pending[token] = mine
        self._pending_union = _merge(pending, mine)
        if self.verified:
            if data is None:
                raise ValidationError(
                    "file_oracle",
                    f"verified-mode write on {self.name!r} recorded "
                    "without data")
            flat = np.asarray(data, dtype=np.uint8).ravel()
            if flat.size != total:
                raise ValidationError(
                    "file_oracle",
                    f"recorded write on {self.name!r} has {flat.size} "
                    f"data bytes but covers {total}")
            if total:
                self._store.write_segments(offs, lens, flat)
        self._recorded.append(mine)
        self.total_recorded += total
        if total:
            self.size = max(self.size, int((offs + lens).max()))
        return token

    # -- happens-before tracking ----------------------------------------
    @property
    def pending_writes(self) -> int:
        """Recorded writes whose data has not provably landed yet."""
        return len(self._pending)

    def complete(self, token: Optional[int]) -> None:
        """Mark one recorded write landed (its call returned and the
        simulated fs applied its bytes)."""
        if token is not None and self._pending.pop(token, None) is not None:
            self._pending_union = None

    def complete_all(self) -> None:
        """Quiescent point: every recorded write has landed (e.g. all
        ranks passed a close barrier, or coverage equality proved no
        write is still in flight)."""
        self._pending.clear()
        self._pending_union = EMPTY

    def _union_of_pending(self) -> Segments:
        if self._pending_union is None:
            self._pending_union = _union(list(self._pending.values()))
        return self._pending_union

    def checkable_read(self, segs: Segments) -> bool:
        """Whether a read of ``segs`` provably happens after every
        overlapping write: no overlapping write is pending and no byte
        was ever touched by unordered (racing) writers."""
        offs, lens = segs
        read = coalesce(np.asarray(offs, dtype=np.int64).ravel(),
                        np.asarray(lens, dtype=np.int64).ravel())
        return not (_segments_overlap(read, self._union_of_pending())
                    or _segments_overlap(read, self._unordered))

    # -- oracle views ---------------------------------------------------
    @property
    def bytes(self) -> np.ndarray:
        """The expected file contents up to the current size (copy)."""
        return self._store.read(0, self.size)

    @property
    def extents(self) -> Segments:
        """Coalesced extents every recorded write covered."""
        if self._recorded:
            self._extents = _union([self._extents, *self._recorded])
            self._recorded.clear()
        return self._extents

    @property
    def covered_bytes(self) -> int:
        """Distinct bytes the recorded writes cover (coalesced measure)."""
        return int(self.extents[1].sum())

    def expected_read(self, segs: Segments) -> np.ndarray:
        """The dense bytes a correct read of ``segs`` must return."""
        return self._store.read_segments(*segs)

    # -- diffing --------------------------------------------------------
    def diff_bytes(self, actual: np.ndarray) -> Optional[OracleDiff]:
        """First divergence of ``actual`` from the golden bytes, or None.

        ``actual`` may be shorter than the shadow (trailing zero bytes
        are never stored by the simulated fs) — missing tail bytes
        compare as zero, exactly like a short read would return them.
        The two buffers are compared in place, block by block; only a
        diverging file pays for the report's details.
        """
        expected = self._store.view()[: self.size]
        actual = np.asarray(actual, dtype=np.uint8).ravel()
        first, nbytes = -1, 0
        for lo in range(0, expected.size, _DIFF_BLOCK):
            exp = expected[lo:lo + _DIFF_BLOCK]
            got = actual[lo:lo + exp.size]
            if got.size < exp.size:
                got = np.pad(got, (0, exp.size - got.size))
            differ = exp != got
            if differ.any():
                if first < 0:
                    first = lo + int(differ.argmax())
                nbytes += int(np.count_nonzero(differ))
        if first < 0:
            return None
        lo = max(0, first - _DIFF_CONTEXT // 2)
        hi = min(expected.size, first + _DIFF_CONTEXT)
        got = np.zeros(hi - lo, dtype=np.uint8)
        seen = actual[lo:hi]
        got[:seen.size] = seen
        return OracleDiff(file=self.name, kind="bytes", offset=first,
                          nbytes=nbytes, expected=expected[lo:hi].tolist(),
                          got=got.tolist())

    def diff_extents(self, offsets, lengths) -> Optional[OracleDiff]:
        """Model-mode oracle: written coverage must match exactly."""
        want_o, want_l = self.extents
        got_o, got_l = coalesce(np.asarray(offsets, dtype=np.int64),
                                np.asarray(lengths, dtype=np.int64))
        if (want_o.size == got_o.size and np.array_equal(want_o, got_o)
                and np.array_equal(want_l, got_l)):
            return None
        # first offset where the coverage maps disagree
        want_set = set(zip(want_o.tolist(), want_l.tolist()))
        got_set = set(zip(got_o.tolist(), got_l.tolist()))
        odd = sorted(want_set.symmetric_difference(got_set))
        first = odd[0][0] if odd else 0
        missing = sum(l for _, l in want_set - got_set)
        extra = sum(l for _, l in got_set - want_set)
        return OracleDiff(file=self.name, kind="extents", offset=int(first),
                          nbytes=int(missing + extra))
