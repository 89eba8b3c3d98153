"""The file system facade: MDS, OSTs, files, and timed client operations.

All client operations are generators (``yield from``) so callers block for
the modeled service time; callers charge the elapsed time to their own
category ('io' in the MPI-IO layer).

Timing of a write/read of a segment list from one client:

1. split segments into stripe chunks (``StripeLayout.chunks``);
2. per touched OST: lock check (revocation penalties), then one FIFO
   reservation covering the OST's bytes plus per-RPC overheads (requests
   are chunked into ``max_rpc_size`` RPCs) and deterministic jitter;
3. the client blocks until the slowest OST finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.errors import FileSystemError
from repro.lustre.layout import StripeLayout
from repro.lustre.locks import LockManager
from repro.lustre.store import ByteStore, ExtentTracker
from repro.sim.effects import Sleep, WaitEvent
from repro.sim.engine import _K_CALL1, Engine, Event
from repro.sim.resources import FIFOResource
from repro.sim.rng import RngStreams

#: heap-seq band for same-instant file-system commits.  Every FS
#: operation defers its state mutation (resource reservation, lock
#: access, jitter draw, store update) to an entry at
#: ``(now, _FS_COMMIT_SEQ + client)``: all ordinary engine traffic at an
#: instant runs first, then the FS commits in client-rank order.  That
#: makes the global service order of same-time requests *canonical* —
#: a deterministic function of (time, client) instead of an artifact of
#: event-cascade scheduling — which is what lets a sharded run
#: (:mod:`repro.shard`) reproduce it exactly.  Far above any reachable
#: engine sequence number.
_FS_COMMIT_SEQ = 1 << 62
#: sub-band for anonymous (client < 0) callers, ordered by arrival
_FS_COMMIT_ANON = 1 << 63


@dataclass(frozen=True)
class LustreParams:
    """File-system configuration; defaults follow the paper's testbed.

    The paper's file system has 72 OSTs on 4 Gb FC links; test files are
    striped over 64 targets with 4 MB stripes.
    """

    n_osts: int = 72
    #: per-OST sustained bandwidth, bytes/second
    ost_bandwidth: float = 400e6
    #: fixed service overhead per RPC at the OST
    ost_rpc_overhead: float = 0.4e-3
    #: largest single RPC; bigger transfers become several RPCs
    max_rpc_size: int = 1 << 20
    #: per-discontiguous-extent cost (niobuf descriptor + OST extent
    #: processing); Lustre packs many extents into one bulk RPC, so this
    #: is far cheaper than a full RPC round-trip
    ost_chunk_overhead: float = 5e-6
    #: default striping for new files
    default_stripe_count: int = 64
    default_stripe_size: int = 4 << 20
    #: penalty per extent-lock revocation (round trip + dirty flush)
    lock_revoke_cost: float = 2.0e-3
    #: penalty per fresh lock grant (enqueue + server round trip)
    lock_grant_cost: float = 0.2e-3
    #: penalty when an OST *read* is not sequential with the previous
    #: request it served for the same file (disk head movement).  Writes
    #: are absorbed by the server's write-back cache and elevator, so
    #: by default they pay per-extent costs but not seeks.
    ost_seek_cost: float = 1.0e-3
    #: charge seeks on writes too (servers without write-back, e.g. the
    #: PVFS-like preset)
    seek_on_writes: bool = False
    #: MDS service time per open/create/close
    mds_op_cost: float = 0.5e-3
    #: client-side per-operation overhead (liblustre/SYSIO path)
    client_overhead: float = 20e-6
    #: deterministic service-time jitter fraction (skew source)
    jitter: float = 0.15
    #: store real bytes (verified mode) or track extents only (model mode)
    store_data: bool = True

    def __post_init__(self) -> None:
        if self.n_osts <= 0:
            raise FileSystemError("n_osts must be positive")
        if self.ost_bandwidth <= 0:
            raise FileSystemError("ost_bandwidth must be positive")
        if not 0 < self.default_stripe_count <= self.n_osts:
            raise FileSystemError("default_stripe_count must be in 1..n_osts")
        if self.default_stripe_size <= 0 or self.max_rpc_size <= 0:
            raise FileSystemError("stripe/rpc sizes must be positive")
        if self.jitter < 0:
            raise FileSystemError("jitter must be >= 0")


class LustreFile:
    """An open file: layout, lock state, and its backing store."""

    __slots__ = ("name", "layout", "locks", "store", "tracker")

    def __init__(self, name: str, layout: StripeLayout, store_data: bool):
        self.name = name
        self.layout = layout
        self.locks = LockManager()
        self.store: Optional[ByteStore] = ByteStore() if store_data else None
        self.tracker = ExtentTracker()

    @property
    def size(self) -> int:
        return self.tracker.size

    def contents(self) -> np.ndarray:
        if self.store is None:
            raise FileSystemError(
                f"file {self.name!r} is in model mode; no data stored"
            )
        return self.store.snapshot()


class LustreFS:
    """The shared file system instance for one simulated machine."""

    def __init__(self, engine: Engine, params: Optional[LustreParams] = None,
                 seed: int = 0, trace: Optional["object"] = None,
                 faults: Optional["object"] = None,
                 retry: Optional["object"] = None):
        self.engine = engine
        self.params = params or LustreParams()
        #: optional TraceRecorder receiving ('ost', {...}) events
        self.trace = trace
        #: optional FaultInjector (OST degradation/stalls/flaky RPCs)
        self.faults = faults
        p = self.params
        self.mds = FIFOResource(engine, "mds", rate=1e12, overhead=p.mds_op_cost)
        self.osts = [
            FIFOResource(engine, f"ost-{i}", rate=p.ost_bandwidth,
                         overhead=p.ost_rpc_overhead)
            for i in range(p.n_osts)
        ]
        if faults is not None:
            for i, res in enumerate(self.osts):
                res.profile = faults.ost_profile(i)
        #: RetryPolicy for faulted RPCs
        if retry is None:
            from repro.faults.retry import RetryPolicy

            retry = RetryPolicy()
        self.retry = retry
        #: per-client (retry seconds, lost RPCs) since last take_retry()
        self._retry_accum: dict[int, tuple[float, int]] = {}
        #: arrival counter ordering anonymous (client < 0) commits
        self._anon_commits = 0
        self._rng = RngStreams(seed)
        self._ost_rngs = [self._rng.stream(f"ost-{i}") for i in range(p.n_osts)]
        #: last byte each OST served, per file (sequentiality tracking)
        self._ost_heads: list[dict[str, int]] = [{} for _ in range(p.n_osts)]
        self._files: dict[str, LustreFile] = {}
        self._next_start_ost = 0
        # statistics
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # canonical commit ordering
    # ------------------------------------------------------------------
    def _commit(self, client: int, fn):
        """Run ``fn`` at this instant's canonical commit slot.

        Defers the operation's state mutation to the
        :data:`_FS_COMMIT_SEQ` heap band so same-time operations commit
        in client-rank order regardless of task scheduling order.
        Returns ``fn()``'s value; exceptions re-raise in the caller.
        """
        eng = self.engine
        if client >= 0:
            seq = _FS_COMMIT_SEQ + client
        else:
            self._anon_commits += 1
            seq = _FS_COMMIT_ANON + self._anon_commits
        ev = Event(eng, ("fs-commit", client))

        def run(_none):
            try:
                ev.fire((True, fn()))
            except Exception as exc:  # re-raised in the waiting task
                ev.fire((False, exc))

        eng._sched_at_seq(eng.now, seq, _K_CALL1, run, None)
        ok, out = yield WaitEvent(ev)
        if not ok:
            raise out
        return out

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def open(self, name: str, create: bool = True,
             stripe_count: Optional[int] = None,
             stripe_size: Optional[int] = None,
             client: int = -1) -> Generator[Any, Any, LustreFile]:
        """Open (and maybe create) a file; serializes through the MDS.

        ``client`` identifies the calling rank; it breaks same-instant
        ordering ties and keys the canonical global service order in
        sharded runs.
        """
        done = yield from self._commit(client, lambda: self.mds.reserve(0))
        yield Sleep(done - self.engine.now)
        f = self._files.get(name)
        if f is None:
            if not create:
                raise FileSystemError(f"no such file: {name!r}")
            p = self.params
            layout = StripeLayout(
                stripe_size=stripe_size or p.default_stripe_size,
                stripe_count=stripe_count or p.default_stripe_count,
                n_osts=p.n_osts,
                start_ost=self._next_start_ost,
            )
            self._next_start_ost = (self._next_start_ost + 1) % p.n_osts
            f = LustreFile(name, layout, p.store_data)
            self._files[name] = f
        return f

    def lookup(self, name: str) -> LustreFile:
        f = self._files.get(name)
        if f is None:
            raise FileSystemError(f"no such file: {name!r}")
        return f

    def unlink(self, name: str, client: int = -1) -> Generator[Any, Any, None]:
        done = yield from self._commit(client, lambda: self.mds.reserve(0))
        yield Sleep(done - self.engine.now)
        self._files.pop(name, None)

    def mds_close(self, client: int = -1) -> Generator[Any, Any, None]:
        """One close-time MDS round trip, attributable to ``client``."""
        done = yield from self._commit(client, lambda: self.mds.reserve(0))
        yield Sleep(done - self.engine.now)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _jitter_time(self, ost: int, stime: float) -> float:
        j = self.params.jitter
        if j <= 0:
            return 0.0
        return float(self._ost_rngs[ost].random()) * j * stime

    def take_retry(self, client: int) -> tuple[float, int]:
        """Pop (retry seconds, lost RPCs) accumulated for one client.

        The MPI-IO layer calls this at each io-charge site so that time
        lost to fault retries lands in the ``fault_retry`` breakdown
        category instead of ``io``.
        """
        return self._retry_accum.pop(client, (0.0, 0))

    def _do_io(self, f: LustreFile, client: int, offsets, lengths,
               mode: str) -> float:
        """Reserve OST time for the access; returns the completion time."""
        p = self.params
        chunk_off, chunk_len, chunk_ost = f.layout.chunks(offsets, lengths)
        if chunk_len.size == 0:
            return self.engine.now
        done = self.engine.now
        # group chunks per OST: one reservation per OST per call
        order = np.argsort(chunk_ost, kind="stable")
        osts = chunk_ost[order]
        lens = chunk_len[order]
        boundaries = np.flatnonzero(np.diff(osts)) + 1
        groups = np.split(np.arange(osts.size), boundaries)
        sorted_off = chunk_off[order]
        for grp in groups:
            ost = int(osts[grp[0]])
            nbytes = int(lens[grp].sum())
            # bulk RPCs are sized by volume (Lustre packs discontiguous
            # extents into one BRW request); each extent adds a small
            # descriptor/processing cost on top
            nchunks = grp.size
            nrpcs = max(1, -(-nbytes // p.max_rpc_size))
            grants, revokes = f.locks.access(ost, client, mode)
            # sequentiality: a request picking up where the OST last left
            # off for this file streams; anything else pays a seek
            first = int(sorted_off[grp[0]])
            last = int(sorted_off[grp[-1]] + lens[grp[-1]])
            heads = self._ost_heads[ost]
            seek = 0.0
            if ((mode == "r" or p.seek_on_writes)
                    and heads.get(f.name) != first):
                seek = p.ost_seek_cost
            heads[f.name] = last
            res = self.osts[ost]
            extra = ((nrpcs - 1) * p.ost_rpc_overhead
                     + nchunks * p.ost_chunk_overhead
                     + grants * p.lock_grant_cost
                     + revokes * p.lock_revoke_cost
                     + seek)
            base = res.service_time(nbytes) + extra
            extra += self._jitter_time(ost, base)
            now = self.engine.now
            if self.faults is not None:
                # a lost RPC dies in transit: the OST is never occupied,
                # the client just re-issues after timeout + backoff, so
                # the request reaches the server `delay` seconds late
                delay, failures = self.faults.rpc_delay(ost, now,
                                                        self.retry)
                if failures:
                    self.faults.record_retry(ost, delay, failures)
                    held_s, held_n = self._retry_accum.get(client, (0.0, 0))
                    self._retry_accum[client] = (held_s + delay,
                                                 held_n + failures)
                span_start, finished = res.reserve_span(now + delay, nbytes,
                                                        extra=extra)
            else:
                span_start, finished = res.reserve_span(now, nbytes,
                                                        extra=extra)
            if self.trace is not None:
                self.trace.record(self.engine.now, "ost", {
                    "ost": ost, "client": client, "mode": mode,
                    "start": span_start, "end": finished,
                    "nbytes": nbytes, "nchunks": nchunks,
                })
            done = max(done, finished)
        return done + p.client_overhead

    def write(self, f: LustreFile, client: int, offsets, lengths,
              data: Optional[np.ndarray] = None
              ) -> Generator[Any, Any, int]:
        """Write segments (densely packed ``data``) as one client operation.

        Returns bytes written.  ``data=None`` is allowed only in model mode.
        The bytes are copied into the store at the commit, so the call
        drops its reference to ``data`` there, before the modeled OST
        service time elapses.
        """
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        total = int(lengths.sum())
        if f.store is not None:
            if data is None:
                raise FileSystemError(
                    "verified-mode write requires data (or set store_data=False)"
                )
            flat = np.asarray(data, dtype=np.uint8).ravel()
            if flat.size != total:
                raise FileSystemError(
                    f"data has {flat.size} bytes, segments cover {total}"
                )
        else:
            flat = None

        def commit():
            if flat is not None:
                f.store.write_segments(offsets, lengths, flat)
            for off, ln in zip(offsets.tolist(), lengths.tolist()):
                f.tracker.write(off, ln)
            return self._do_io(f, client, offsets, lengths, "w")

        done = yield from self._commit(client, commit)
        del data, flat, commit
        self.bytes_written += total
        yield Sleep(done - self.engine.now)
        return total

    def read(self, f: LustreFile, client: int, offsets, lengths
             ) -> Generator[Any, Any, Optional[np.ndarray]]:
        """Read segments; returns densely packed bytes (None in model mode)."""
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        total = int(lengths.sum())
        done = yield from self._commit(
            client, lambda: self._do_io(f, client, offsets, lengths, "r"))
        self.bytes_read += total
        yield Sleep(done - self.engine.now)
        if f.store is None:
            return None
        return f.store.read_segments(offsets, lengths)
