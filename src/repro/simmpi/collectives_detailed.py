"""Detailed collective algorithms executed as simulated message traffic.

These mirror the classic MPICH implementations: dissemination barrier,
recursive-doubling allreduce, binomial-tree gather and scatter, ring
allgather, and pairwise-exchange alltoall.  All messages travel
on the communicator's *collective context* so they can never match user
point-to-point traffic, and they deliberately bypass the per-category time
accounting — the caller charges the whole collective to its category.

Every function is a generator driven with ``yield from`` and returns the
same result shape as the analytic implementation in
:mod:`repro.simmpi.world`, which is what the equivalence tests assert.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

import numpy as np

from repro.simmpi.payload import Payload
from repro.simmpi.reduce_ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.world import Communicator


def barrier(comm: "Communicator") -> Generator[Any, Any, None]:
    """Dissemination barrier: ceil(log2 p) rounds."""
    p, r = comm.size, comm.rank
    tagbase = comm._op_seq * 64
    k = 0
    dist = 1
    while dist < p:
        dst = (r + dist) % p
        src = (r - dist) % p
        sreq = comm._coll_isend(None, dst, tagbase + k, nbytes=0)
        yield comm._coll_irecv(src, tagbase + k)
        yield sreq
        dist <<= 1
        k += 1
    return None


def allreduce(comm: "Communicator", value: Any, op: ReduceOp,
              nbytes: Optional[int]) -> Generator[Any, Any, Any]:
    """Recursive doubling with a fold step for non-power-of-two groups."""
    p, r = comm.size, comm.rank
    tagbase = comm._op_seq * 64 + 8
    acc = value
    # fold: trailing ranks send their value into the power-of-two core
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    if r >= pof2:
        yield comm._coll_isend(acc, r - pof2, tagbase, nbytes=nbytes)
        newrank = -1
    elif r < rem:
        payload = (yield comm._coll_irecv(r + pof2, tagbase))[0]
        acc = op(acc, payload.data)
        newrank = r
    else:
        newrank = r
    if newrank >= 0:
        mask = 1
        k = 1
        while mask < pof2:
            partner = newrank ^ mask
            sreq = comm._coll_isend(acc, partner, tagbase + k, nbytes=nbytes)
            payload = (yield comm._coll_irecv(partner, tagbase + k))[0]
            yield sreq
            acc = op(acc, payload.data)
            mask <<= 1
            k += 1
    # unfold: core ranks push the result back out
    if r >= pof2:
        payload = (yield comm._coll_irecv(r - pof2, tagbase + 32))[0]
        acc = payload.data
    elif r < rem:
        yield comm._coll_isend(acc, r + pof2, tagbase + 32, nbytes=nbytes)
    return acc


def gather(comm: "Communicator", value: Any, root: int,
           nbytes: Optional[int]) -> Generator[Any, Any, Optional[list]]:
    """Binomial gather: leaves push partial dictionaries toward the root."""
    p = comm.size
    tag = comm._op_seq * 64 + 3
    relative = (comm.rank - root) % p
    collected: dict[int, Any] = {comm.rank: value}
    mask = 1
    while mask < p:
        if relative & mask:
            parent = ((relative & ~mask) + root) % p
            nb = None
            if nbytes is not None:
                nb = nbytes * len(collected)
            yield comm._coll_isend(collected, parent, tag, nbytes=nb)
            return None
        src_rel = relative | mask
        if src_rel < p:
            payload = (yield comm._coll_irecv((src_rel + root) % p, tag))[0]
            collected.update(payload.data)
        mask <<= 1
    return [collected[r] for r in range(p)]


def allgather(comm: "Communicator", value: Any,
              nbytes: Optional[int]) -> Generator[Any, Any, list]:
    """Ring allgather: p-1 steps, each forwarding one block."""
    p, r = comm.size, comm.rank
    tag = comm._op_seq * 64 + 4
    result: list[Any] = [None] * p
    result[r] = value
    right = (r + 1) % p
    left = (r - 1) % p
    # forward the received Payload object itself: its size was fixed by
    # the originating rank, so re-wrapping (and re-sizing) each hop is
    # pure overhead
    block = value if isinstance(value, Payload) else Payload.of(value, nbytes)
    for i in range(p - 1):
        recv_idx = (r - i - 1) % p
        sreq = comm._coll_isend(block, right, tag)
        payload = (yield comm._coll_irecv(left, tag))[0]
        yield sreq
        block = payload
        result[recv_idx] = payload.data
    return result


def alltoall(comm: "Communicator", values: list,
             nbytes_each: Optional[int]) -> Generator[Any, Any, list]:
    """Pairwise exchange: round i pairs rank with rank±i."""
    p, r = comm.size, comm.rank
    tag = comm._op_seq * 64 + 5
    # index plain ints, not numpy scalars; np.asarray below restores dtype
    vals = (values.tolist()
            if isinstance(values, np.ndarray) and values.ndim == 1 else values)
    result: list[Any] = [None] * p
    result[r] = vals[r]
    # inlined _coll_isend/_coll_irecv: this pairwise loop is the hottest
    # collective in detailed two-phase runs
    world = comm.world
    me = comm.proc.rank
    members = comm.desc.members
    cctx = comm._coll_ctx_val
    send_ev = world.send_message_ev
    recv_ev = world.post_recv_ev
    for i in range(1, p):
        dst = (r + i) % p
        src = (r - i) % p
        if nbytes_each is not None:
            sreq = send_ev(me, members[dst], cctx, tag,
                           Payload(nbytes_each, vals[dst]))
        else:
            sreq = comm._coll_isend(vals[dst], dst, tag, nbytes=nbytes_each)
        payload = (yield recv_ev(me, cctx, members[src], tag))[0]
        yield sreq
        result[src] = payload.data
    if isinstance(values, np.ndarray):
        # keep the result shape consistent with the analytic fast path
        return np.asarray(result, dtype=values.dtype)
    return result


def scatter(comm: "Communicator", values: Optional[list], root: int,
            nbytes: Optional[int]) -> Generator[Any, Any, Any]:
    """Binomial scatter: the root pushes shrinking slices down the tree.

    A node at relative rank ``rel`` (lowest set bit ``b``) receives the
    slice ``[rel, min(rel + b, p))`` from ``rel - b`` and forwards the
    upper halves at masks ``b/2 .. 1``.
    """
    p = comm.size
    tag = comm._op_seq * 64 + 7
    relative = (comm.rank - root) % p
    if relative == 0:
        carry = {r: values[(r + root) % p] for r in range(p)}
        b = 1
        while b < p:
            b <<= 1
    else:
        b = relative & (-relative)
        src = ((relative - b) + root) % p
        payload = (yield comm._coll_irecv(src, tag))[0]
        carry = payload.data
    reqs = []
    mask = b >> 1
    while mask:
        dst_rel = relative + mask
        if dst_rel < p:
            slice_ = {r: v for r, v in carry.items() if r >= dst_rel}
            carry = {r: v for r, v in carry.items() if r < dst_rel}
            nb = None if nbytes is None else nbytes * max(1, len(slice_))
            reqs.append(comm._coll_isend(slice_, (dst_rel + root) % p, tag,
                                         nbytes=nb))
        mask >>= 1
    for req in reqs:
        yield req
    return carry[relative]
