"""The extended two-phase (ext2ph) collective I/O engine.

Faithful to the ROMIO structure the paper dissects (Section 2.2):

1. **file range gathering** — allgather each process's (start, end)
   physical extent ('sync');
2. **file domain partitioning** — the accessed range is split into one
   contiguous file domain per I/O aggregator;
3. **round agreement** — allreduce(MAX) of the per-aggregator round count
   (domain bytes / ``cb_buffer_size``) ('sync');
4. **interleaved rounds** — each round moves one collective-buffer window
   per aggregator: an alltoall of per-aggregator byte counts ('sync'),
   point-to-point data exchange ('exchange'), and the aggregator's file
   read/write ('io').

The per-round alltoall is the global synchronization whose cost grows
with the process count — the *collective wall*.  ParColl reuses this very
engine per subgroup, which is why shrinking the group shrinks the wall.

Data moves for real in verified mode: writers slice their dense buffers,
aggregators merge by file offset and write; readers get exact bytes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, NamedTuple, Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.datatypes.flatten import Segments, coalesce
from repro.datatypes.packing import (copy_segments, dense_starts,
                                     gather_segments, scatter_segments)
from repro.errors import MPIIOError
from repro.lustre.fs import LustreFS, LustreFile
from repro.mpiio.aggregation import (default_aggregators, domain_of_offsets,
                                     partition_file_domains)
from repro.mpiio.hints import IOHints
from repro.perf import perf_counters
from repro.sim.effects import Sleep
from repro.simmpi.payload import Payload
from repro.simmpi.reduce_ops import MAX
from repro.simmpi.world import Communicator

#: tag base for two-phase data exchange (clear of workload tags)
TP_TAG = 1 << 20
#: tag base for read replies (distinct from request/data tags)
REPLY_TAG = TP_TAG + 10_000_000

#: modeled wire bytes per (offset, length) pair in a request list
SEG_HEADER_BYTES = 16


@dataclass
class IOEnv:
    """Everything one collective call needs besides the access itself."""

    comm: Communicator
    machine: Machine
    fs: LustreFS
    lfile: LustreFile
    hints: IOHints
    #: active correctness oracle (:class:`repro.validate.Validator`);
    #: None = validation off, the hooks below cost nothing
    validator: Optional[object] = None

    @property
    def breakdown(self):
        return self.comm.proc.breakdown

    def charge_io(self, t0: float) -> None:
        """Charge time since ``t0`` to 'io', splitting out fault retries.

        Pops the retry seconds the file system accumulated for this rank
        since the last charge and books them as ``fault_retry`` (count =
        lost RPCs); the remainder stays 'io'.  Capped at the elapsed
        time: each OST's lost RPCs delay its request from the same
        start, so one call's retry seconds can sum past its duration.
        """
        elapsed = self.comm.now - t0
        retry_s, failures = self.fs.take_retry(self.comm.proc.rank)
        if failures:
            retry_s = min(retry_s, elapsed)
            self.breakdown.add("fault_retry", retry_s, n=failures)
            self.breakdown.add("io", elapsed - retry_s)
        else:
            self.breakdown.add("io", elapsed)


def data_positions(offs: np.ndarray, prefix: np.ndarray,
                   sub_offs: np.ndarray) -> np.ndarray:
    """Dense-buffer positions of sub-segment starts within a segment list.

    ``prefix[i]`` is the dense position of segment ``i``'s first byte;
    every ``sub_offs`` entry must fall inside some segment.
    """
    idx = np.searchsorted(offs, sub_offs, side="right") - 1
    return prefix[idx] + (sub_offs - offs[idx])


def extract_data(segs: Segments, prefix: np.ndarray, data: np.ndarray,
                 sub: Segments) -> np.ndarray:
    """Slice the dense bytes of ``sub`` (a subset of ``segs``) out of ``data``."""
    return gather_segments(data, data_positions(segs[0], prefix, sub[0]),
                           sub[1])


def place_data(segs: Segments, prefix: np.ndarray, out: np.ndarray,
               sub: Segments, incoming: np.ndarray) -> None:
    """Inverse of :func:`extract_data`: write ``incoming`` into ``out``."""
    scatter_segments(out, data_positions(segs[0], prefix, sub[0]), sub[1],
                     incoming)


def _file_domains(env: IOEnv, extents: list) -> Optional[tuple]:
    """``(aggs, aggregator index by rank, starts, ends)`` for the
    allgathered ``(lo, hi)`` extents, or None when no rank accesses
    anything.

    Every rank of the call holds the same extents, so the call builds
    the result once (:meth:`Communicator.once_per_call`), tagged with
    the hints it derives from.
    """
    comm = env.comm
    hints = env.hints

    def build() -> Optional[tuple]:
        ext = np.array(extents, dtype=np.int64)
        ext = ext[ext[:, 0] >= 0]
        if not ext.size:
            return None
        aggs = default_aggregators(comm.desc.members, env.machine, hints)
        starts, ends = partition_file_domains(
            int(ext[:, 0].min()), int(ext[:, 1].max()), len(aggs))
        return aggs, {r: i for i, r in enumerate(aggs)}, starts, ends

    return comm.once_per_call(
        ("file_domains", hints.cb_config_ranks, hints.cb_nodes), build)


def _setup(env: IOEnv, segs: Segments
           ) -> Generator[Any, Any, Optional[tuple]]:
    """Shared phases 1-3; returns (aggs, starts, ends, ntimes, my_idx)
    or None."""
    comm = env.comm
    offs, lens = segs
    lo = int(offs[0]) if offs.size else -1
    hi = int(offs[-1] + lens[-1]) if offs.size else -1
    extents = yield from comm.allgather((lo, hi), category="sync")
    domains = _file_domains(env, extents)
    if domains is None:
        return None
    aggs, agg_index, starts, ends = domains
    cb = env.hints.cb_buffer_size
    my_idx = agg_index.get(comm.rank, -1)
    my_rounds = 0
    if my_idx >= 0:
        my_rounds = int(-(-(ends[my_idx] - starts[my_idx]) // cb))
    ntimes = yield from comm.allreduce(my_rounds, op=MAX, nbytes=8,
                                       category="sync")
    return aggs, starts, ends, int(ntimes), my_idx


class RoundPlan(NamedTuple):
    """One rank's exchange pieces in round order (see :func:`plan_rounds`)."""

    offs: np.ndarray
    lens: np.ndarray
    #: index of the aggregator (file domain) each piece goes to
    aggs: np.ndarray
    rounds: np.ndarray
    #: round ``r``'s pieces are ``[bounds[r], bounds[r + 1])``
    bounds: list[int]


_NO_PIECES = np.empty(0, dtype=np.int64)
_EMPTY_PLAN = RoundPlan(_NO_PIECES, _NO_PIECES, _NO_PIECES, _NO_PIECES, [0])


def _runs(first: np.ndarray, count: np.ndarray, total: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Expand item ``i`` into ``count[i]`` entries labelled ``first[i]``,
    ``first[i] + 1``, ...; returns each entry's item index and label."""
    item = np.repeat(np.arange(first.size), count)
    label = np.arange(total) + np.repeat(first - (np.cumsum(count) - count),
                                         count)
    return item, label


def plan_rounds(segs: Segments, starts: np.ndarray, ends: np.ndarray,
                cb: int) -> RoundPlan:
    """Cut my segments at every aggregator domain and round window in one pass.

    Each segment's first and last byte are looked up in the (contiguous,
    ordered) domains; a segment spanning several domains is expanded to
    one piece per domain and clipped to it, and pieces of empty domains
    drop out.  Pieces are then split at their domain's collective-buffer
    windows, and a piece's window index is its round.  A stable sort by
    round keeps each round's pieces in offset order, which is also
    aggregator order, so :func:`_send_lists_from_plan` takes one round's
    send lists as one slice cut where the aggregator changes.
    """
    offs, lens = segs
    if offs.size == 0:
        return _EMPTY_PLAN
    lo, hi = offs, offs + lens
    agg = domain_of_offsets(lo, starts, ends)
    span = domain_of_offsets(hi - 1, starts, ends) - agg + 1
    n = int(span.sum())
    if n != lo.size:
        item, agg = _runs(agg, span, n)
        lo, hi = lo[item], hi[item]
    lo = np.maximum(lo, starts[agg])
    hi = np.minimum(hi, ends[agg])
    keep = hi > lo
    if not keep.all():
        lo, hi, agg = lo[keep], hi[keep], agg[keep]
        if not lo.size:
            return _EMPTY_PLAN
    base = starts[agg]
    rounds = (lo - base) // cb
    nwin = (hi - 1 - base) // cb - rounds + 1
    n = int(nwin.sum())
    if n != lo.size:
        # some piece straddles a window boundary
        item, rounds = _runs(rounds, nwin, n)
        win_lo = base[item] + rounds * cb
        lo = np.maximum(lo[item], win_lo)
        hi = np.minimum(hi[item], win_lo + cb)
        agg = agg[item]
    if n > 1 and (rounds[1:] < rounds[:-1]).any():
        order = np.argsort(rounds, kind="stable")
        lo, hi, agg, rounds = lo[order], hi[order], agg[order], rounds[order]
    perf_counters.rounds_planned += n
    bounds = np.searchsorted(rounds, np.arange(int(rounds[-1]) + 2))
    return RoundPlan(lo, hi - lo, agg, rounds, bounds.tolist())


def _send_lists_from_plan(plan: RoundPlan, rnd: int) -> dict[int, Segments]:
    """Round ``rnd``'s send lists: the plan's slice for that round, split
    where the aggregator index changes (keys ascending)."""
    bounds = plan.bounds
    if rnd + 1 >= len(bounds):
        return {}
    lo, hi = bounds[rnd], bounds[rnd + 1]
    if lo == hi:
        return {}
    offs, lens, aggs = plan.offs, plan.lens, plan.aggs
    first = int(aggs[lo])
    if first == aggs[hi - 1]:
        return {first: (offs[lo:hi], lens[lo:hi])}
    run = aggs[lo:hi]
    edges = [lo, *(np.flatnonzero(run[1:] != run[:-1]) + (lo + 1)).tolist(),
             hi]
    out: dict[int, Segments] = {}
    for a, i0, i1 in zip(aggs[edges[:-1]].tolist(), edges, edges[1:]):
        out[a] = (offs[i0:i1], lens[i0:i1])
    return out


def _counts_vector(send_lists: dict[int, Segments], aggs: list[int],
                   size: int) -> np.ndarray:
    counts = np.zeros(size, dtype=np.int64)
    for a, (so, sl) in send_lists.items():
        counts[aggs[a]] = int(sl.sum())
    return counts


def collective_write(env: IOEnv, segs: Segments,
                     data: Optional[np.ndarray],
                     translate=None) -> Generator[Any, Any, int]:
    """ext2ph collective write of my ``segs`` (+dense ``data``); returns bytes.

    ``translate(sub) -> Segments`` (optional) maps the sender's window
    intersections to a different file space before they are shipped —
    ParColl's intermediate file views run the protocol in *logical* space
    and translate to physical segments at this boundary.  The translation
    must preserve total bytes and data order.
    """
    comm = env.comm
    setup = yield from _setup(env, segs)
    if setup is None:
        return 0
    aggs, starts, ends, ntimes, my_idx = setup
    cb = env.hints.cb_buffer_size
    offs, lens = segs
    prefix = dense_starts(lens)
    total = int(lens.sum())
    if data is not None:
        data = np.asarray(data, dtype=np.uint8).ravel()
        if data.size != total:
            raise MPIIOError(f"data has {data.size} bytes, view covers {total}")
    model = data is None and env.lfile.store is None
    if data is None and env.lfile.store is not None:
        raise MPIIOError("verified-mode collective write requires data")

    memcpy_bw = comm.world.network.params.memcpy_bandwidth
    plan = plan_rounds(segs, starts, ends, cb)
    if env.validator is not None:
        env.validator.check_exchange_plan(segs, plan, ntimes)
    for rnd in range(ntimes):
        send_lists = _send_lists_from_plan(plan, rnd)
        counts = _counts_vector(send_lists, aggs, comm.size)
        all_counts = yield from comm.alltoall(counts, nbytes_each=8,
                                              category="sync")
        # dispatch my pieces (local piece short-circuits the network);
        # the aggregator side empties ``pieces`` once it has merged them
        reqs = []
        pieces: list = []
        for a, sub in send_lists.items():
            piece_data = None if model else extract_data(segs, prefix, data, sub)
            if translate is not None:
                sub = translate(sub)
            nbytes = int(sub[1].sum()) + SEG_HEADER_BYTES * sub[0].size
            if aggs[a] == comm.rank:
                pieces.append((sub, piece_data))
                continue
            payload = Payload(nbytes, (sub[0], sub[1], piece_data))
            reqs.append(comm.isend(payload, dest=aggs[a], tag=TP_TAG + rnd))
        if my_idx >= 0:
            yield from _aggregate_and_write(env, all_counts, pieces,
                                            rnd, memcpy_bw)
        if reqs:
            yield from comm.waitall(reqs, category="exchange")
    return total


def merge_pieces(pieces: list[tuple[Segments, Optional[np.ndarray]]],
                 verified: bool
                 ) -> tuple[Segments, Optional[np.ndarray]]:
    """Merge ``(segments, dense-data)`` pieces by file offset.

    Returns coalesced segments plus the correspondingly reordered dense
    bytes (None in model mode).  Raises on overlap — collective writers
    must target disjoint regions.
    """
    all_offs = np.concatenate([p[0][0] for p in pieces])
    all_lens = np.concatenate([p[0][1] for p in pieces])
    order = np.argsort(all_offs, kind="stable")
    sorted_offs = all_offs[order]
    sorted_lens = all_lens[order]
    merged_data = None
    if verified:
        # each piece's data is its segments densely packed in order, so
        # the concatenation of all piece datas holds segment k's bytes at
        # the dense start of all_lens[k] — the reorder is one copy from
        # those starts, taken in sorted order, to the dense sorted layout
        cat = np.concatenate([p[1] for p in pieces])
        merged_data = np.empty(cat.size, dtype=np.uint8)
        copy_segments(merged_data, dense_starts(sorted_lens), cat,
                      dense_starts(all_lens)[order], sorted_lens)
    w_offs, w_lens = coalesce(sorted_offs, sorted_lens)
    if int(w_lens.sum()) != int(sorted_lens.sum()):
        raise MPIIOError(
            "overlapping segments reached one merge point; "
            "collective writes must target disjoint file regions"
        )
    return (w_offs, w_lens), merged_data


def _sources(all_counts: np.ndarray, me: int) -> list[int]:
    """Ranks with a nonzero count for this aggregator, ascending, minus
    ``me``: the ``irecv`` posting order fixes matching and sequence
    numbers."""
    return [s for s in np.flatnonzero(all_counts > 0).tolist() if s != me]


def _aggregate_and_write(env: IOEnv, all_counts: np.ndarray,
                         pieces: list, rnd: int, memcpy_bw: float
                         ) -> Generator[Any, Any, None]:
    """Aggregator side of one write round: collect, merge, write.

    ``pieces`` holds this rank's own ``(segments, data)`` piece, if any;
    the received pieces join it, and the list is emptied once merged.
    The merged window lives only until the file system has copied it
    into the store.
    """
    comm = env.comm
    recv_reqs = [comm.irecv(source=s, tag=TP_TAG + rnd)
                 for s in _sources(all_counts, comm.rank)]
    got = yield from comm.waitall(recv_reqs, category="exchange")
    pieces.extend(((p.data[0], p.data[1]), p.data[2]) for p in got)
    del recv_reqs, got  # the completed requests hold the payloads too
    if not pieces:
        if env.validator is not None:
            env.validator.check_round_conservation(
                int(np.asarray(all_counts).sum()), 0, 0, rnd)
        return
    (w_offs, w_lens), merged_data = merge_pieces(
        pieces, verified=env.lfile.store is not None)
    # copy into the collective buffer costs a memcpy
    nbytes = int(w_lens.sum())
    if env.validator is not None:
        env.validator.check_round_conservation(
            int(np.asarray(all_counts).sum()),
            sum(int(p[0][1].sum()) for p in pieces), nbytes, rnd)
    pieces.clear()
    copy_t = nbytes / memcpy_bw
    yield Sleep(copy_t)
    env.breakdown.add("compute", copy_t)
    write_gen = env.fs.write(env.lfile, client=comm.proc.rank,
                             offsets=w_offs, lengths=w_lens,
                             data=merged_data)
    del merged_data  # the write drops it once committed
    t0 = comm.now
    yield from write_gen
    env.charge_io(t0)


def collective_read(env: IOEnv, segs: Segments,
                    translate=None) -> Generator[Any, Any, Optional[np.ndarray]]:
    """ext2ph collective read of my ``segs``; returns dense bytes (None in model).

    ``translate`` as in :func:`collective_write`: requests ship translated
    (physical) segments while placement into the caller's dense buffer
    uses the original (logical) ones.
    """
    comm = env.comm
    setup = yield from _setup(env, segs)
    if setup is None:
        return None if env.lfile.store is None else np.empty(0, np.uint8)
    aggs, starts, ends, ntimes, my_idx = setup
    cb = env.hints.cb_buffer_size
    offs, lens = segs
    prefix = dense_starts(lens)
    total = int(lens.sum())
    verified = env.lfile.store is not None
    out = np.empty(total, dtype=np.uint8) if verified else None

    memcpy_bw = comm.world.network.params.memcpy_bandwidth
    plan = plan_rounds(segs, starts, ends, cb)
    if env.validator is not None:
        env.validator.check_exchange_plan(segs, plan, ntimes)
    for rnd in range(ntimes):
        want_lists = _send_lists_from_plan(plan, rnd)
        counts = _counts_vector(want_lists, aggs, comm.size)
        all_counts = yield from comm.alltoall(counts, nbytes_each=8,
                                              category="sync")
        # send my request lists to remote aggregators (translated if needed)
        sent_lists = (want_lists if translate is None
                      else {a: translate(sub) for a, sub in want_lists.items()})
        req_reqs = []
        local_want = None
        for a, sub in sent_lists.items():
            if aggs[a] == comm.rank:
                local_want = sub
                continue
            nbytes = SEG_HEADER_BYTES * sub[0].size
            payload = Payload(nbytes, (sub[0], sub[1]))
            req_reqs.append(comm.isend(payload, dest=aggs[a],
                                       tag=TP_TAG + rnd))
        local_reply = None
        reply_reqs: list = []
        if my_idx >= 0:
            local_reply, reply_reqs = yield from _read_and_reply(
                env, all_counts, local_want, rnd, memcpy_bw)
        # collect replies for my requests; my own outbound replies are
        # still in flight (isends) — waiting for them before receiving
        # would deadlock two aggregators serving each other
        for a, sub in want_lists.items():
            if aggs[a] == comm.rank:
                if verified:
                    place_data(segs, prefix, out, sub, local_reply)
                continue
            payload = yield from comm.recv(source=aggs[a],
                                           tag=REPLY_TAG + rnd,
                                           category="exchange")
            if verified:
                place_data(segs, prefix, out, sub, payload.data)
        if reply_reqs:
            yield from comm.waitall(reply_reqs, category="exchange")
        if req_reqs:
            yield from comm.waitall(req_reqs, category="exchange")
    return out


def _read_and_reply(env: IOEnv, all_counts: np.ndarray, local_want,
                    rnd: int, memcpy_bw: float
                    ) -> Generator[Any, Any,
                                   tuple[Optional[np.ndarray], list]]:
    """Aggregator side of one read round: gather requests, read, reply.

    Returns ``(local_reply, reply_requests)`` — the reply isends are NOT
    awaited here: the caller must first receive its own incoming replies
    (two aggregators serving each other would otherwise cycle).
    """
    comm = env.comm
    sources = _sources(all_counts, comm.rank)
    reqs = [comm.irecv(source=s, tag=TP_TAG + rnd) for s in sources]
    got = yield from comm.waitall(reqs, category="exchange")
    requests: list[tuple[int, Segments]] = []
    for src, payload in zip(sources, got):
        sub_offs, sub_lens = payload.data
        requests.append((src, (sub_offs, sub_lens)))
    if local_want is not None:
        requests.append((comm.rank, local_want))
    if not requests:
        return None, []
    union = coalesce(np.concatenate([r[1][0] for r in requests]),
                     np.concatenate([r[1][1] for r in requests]))
    t0 = comm.now
    union_data = yield from env.fs.read(env.lfile, client=comm.proc.rank,
                                        offsets=union[0], lengths=union[1])
    env.charge_io(t0)
    nbytes = int(union[1].sum())
    copy_t = nbytes / memcpy_bw
    yield Sleep(copy_t)
    env.breakdown.add("compute", copy_t)
    union_prefix = dense_starts(union[1])
    local_reply = None
    verified = union_data is not None
    # replies go out as isends: a blocking (rendezvous) send here could
    # deadlock against a requester still waiting on another aggregator
    reply_reqs = []
    for src, sub in requests:
        piece = (extract_data(union, union_prefix, union_data, sub)
                 if verified else None)
        if src == comm.rank:
            local_reply = piece
            continue
        reply_bytes = int(sub[1].sum())
        payload = Payload(reply_bytes, piece)
        reply_reqs.append(comm.isend(payload, dest=src, tag=REPLY_TAG + rnd))
    return local_reply, reply_reqs
