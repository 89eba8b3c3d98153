"""Point-to-point messaging: matching queues, eager and rendezvous protocols.

Matching follows MPI rules: a receive matches on ``(context, source, tag)``
with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards, posted receives match in post
order, unexpected messages in arrival order, and messages between one
(sender, receiver, context) pair do not overtake (guaranteed here by FIFO
NIC resources plus sequence numbers).

Protocols:

* **eager** (size <= ``eager_threshold``) — the payload is pushed
  immediately; the sender completes as soon as the NIC accepts the data.
* **rendezvous** — only a header travels at send time; the data transfer
  starts when the receiver matches the header (clear-to-send latency),
  and the *sender* blocks until the NIC drains the payload.  This is what
  couples process skew across ranks in collective I/O: a late receiver
  stalls its senders.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.errors import MPIError
from repro.sim.effects import WaitEvent
from repro.sim.engine import Engine, Event
from repro.simmpi.payload import Payload

ANY_SOURCE = -1
ANY_TAG = -1

#: modeled wire size of a rendezvous header / clear-to-send
RTS_BYTES = 64


class Status:
    """Source and tag of a completed receive."""

    __slots__ = ("source", "tag")

    def __init__(self, source: int, tag: int):
        self.source = source
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Status(source={self.source}, tag={self.tag})"


class Message:
    """An in-flight message (world-rank addressed)."""

    __slots__ = ("ctx", "src", "dst", "tag", "payload", "rendezvous",
                 "send_event", "seq", "arr")

    def __init__(self, ctx: int, src: int, dst: int, tag: int,
                 payload: Payload, rendezvous: bool,
                 send_event: Optional[Event], seq: int):
        self.ctx = ctx
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.rendezvous = rendezvous
        self.send_event = send_event
        self.seq = seq
        self.arr = 0  # arrival stamp, set when the mailbox queues it

    @property
    def source(self) -> int:
        """Status-compatible alias: completed receives hand the matched
        message itself to the waiter as its status object, so the hot
        path never allocates a separate :class:`Status`."""
        return self.src


class PostedRecv:
    """A receive waiting to be matched."""

    __slots__ = ("ctx", "src", "tag", "event", "seq")

    def __init__(self, ctx: int, src: int, tag: int, event: Event, seq: int):
        self.ctx = ctx
        self.src = src
        self.tag = tag
        self.event = event
        self.seq = seq

    def matches(self, msg: Message) -> bool:
        return (self.ctx == msg.ctx
                and self.src in (ANY_SOURCE, msg.src)
                and self.tag in (ANY_TAG, msg.tag))


class Request:
    """Handle for a pending operation; complete it with ``yield from wait()``."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event

    @property
    def complete(self) -> bool:
        return self.event.fired

    def wait(self) -> Generator[Any, Any, Any]:
        value = yield self.event
        return value


def waitall(requests: list[Request]) -> Generator[Any, Any, list[Any]]:
    """Complete all requests; returns their values in request order."""
    out = []
    for req in requests:
        out.append((yield req.event))
    return out


class Mailbox:
    """Per-rank matching state, indexed for O(1) fully-specified matches.

    Receives with concrete ``(ctx, src, tag)`` live in a dict keyed on that
    triple; receives with ``ANY_SOURCE``/``ANY_TAG`` go on an ordered
    wildcard side-list.  Unexpected messages always carry a concrete key, so
    they are keyed unconditionally and stamped with an arrival counter.
    A key holding one entry maps straight to it; a second entry with the
    same key turns the value into a FIFO ``deque``, dropped when it empties.
    Collective and exchange tags are unique per call and round, so almost
    every key holds one entry and costs no deque.

    MPI ordering survives the split because both candidate heads carry
    monotone stamps: posted recvs keep their post-time ``seq`` (post order),
    unexpected messages get ``arr`` (arrival order).  A match arbitrates
    between the exact key's head and the first matching wildcard (resp. the
    earliest-arrived head across matching keys) by stamp, which picks
    exactly the element the linear scan over one ordered list would have.
    """

    __slots__ = ("posted_exact", "posted_wild", "unexpected_by_key",
                 "_arrivals", "n_posted", "n_unexpected",
                 "exact_matches", "wildcard_matches")

    def __init__(self) -> None:
        self.posted_exact: dict[tuple[int, int, int],
                                PostedRecv | deque[PostedRecv]] = {}
        self.posted_wild: list[PostedRecv] = []
        self.unexpected_by_key: dict[tuple[int, int, int],
                                     Message | deque[Message]] = {}
        self._arrivals = 0
        self.n_posted = 0
        self.n_unexpected = 0
        self.exact_matches = 0
        self.wildcard_matches = 0

    def add_posted(self, pr: PostedRecv) -> None:
        """Queue an unmatched receive (in post order)."""
        if pr.src != ANY_SOURCE and pr.tag != ANY_TAG:
            key = (pr.ctx, pr.src, pr.tag)
            slot = self.posted_exact.setdefault(key, pr)
            if slot is not pr:
                if slot.__class__ is deque:
                    slot.append(pr)
                else:
                    self.posted_exact[key] = deque((slot, pr))
        else:
            self.posted_wild.append(pr)
        self.n_posted += 1

    def add_unexpected(self, msg: Message) -> None:
        """Queue a message that arrived before its receive (arrival order)."""
        self._arrivals += 1
        msg.arr = self._arrivals
        key = (msg.ctx, msg.src, msg.tag)
        slot = self.unexpected_by_key.setdefault(key, msg)
        if slot is not msg:
            if slot.__class__ is deque:
                slot.append(msg)
            else:
                self.unexpected_by_key[key] = deque((slot, msg))
        self.n_unexpected += 1

    def match_posted(self, msg: Message) -> Optional[PostedRecv]:
        """Find (and remove) the first-posted recv matching ``msg``."""
        key = (msg.ctx, msg.src, msg.tag)
        slot = self.posted_exact.get(key)
        exact = slot[0] if slot.__class__ is deque else slot
        wild_list = self.posted_wild
        if wild_list:
            for i, wild in enumerate(wild_list):
                if wild.matches(msg):
                    if exact is None or wild.seq <= exact.seq:
                        del wild_list[i]
                        self.n_posted -= 1
                        self.wildcard_matches += 1
                        return wild
                    break
        if exact is None:
            return None
        if slot is exact:
            del self.posted_exact[key]
        else:
            slot.popleft()
            if not slot:
                del self.posted_exact[key]
        self.n_posted -= 1
        self.exact_matches += 1
        return exact

    def match_unexpected(self, pr: PostedRecv) -> Optional[Message]:
        """Find (and remove) the earliest-arrived message matching ``pr``."""
        return self.match_unexpected_key(pr.ctx, pr.src, pr.tag)

    def match_unexpected_key(self, p_ctx: int, p_src: int,
                             p_tag: int) -> Optional[Message]:
        """Keyed variant of :meth:`match_unexpected` — the receive-post hot
        path matches before it ever builds a :class:`PostedRecv`."""
        if p_src != ANY_SOURCE and p_tag != ANY_TAG:
            key = (p_ctx, p_src, p_tag)
            slot = self.unexpected_by_key.get(key)
            if slot is None:
                return None
            if slot.__class__ is deque:
                msg = slot.popleft()
                if not slot:
                    del self.unexpected_by_key[key]
            else:
                msg = slot
                del self.unexpected_by_key[key]
            self.n_unexpected -= 1
            self.exact_matches += 1
            return msg
        best_key = None
        best = None
        for key, slot in self.unexpected_by_key.items():
            ctx, src, tag = key
            if (ctx == p_ctx
                    and p_src in (ANY_SOURCE, src)
                    and p_tag in (ANY_TAG, tag)):
                head = slot[0] if slot.__class__ is deque else slot
                if best is None or head.arr < best.arr:
                    best_key = key
                    best = head
        if best is None:
            return None
        slot = self.unexpected_by_key[best_key]
        if slot is best:
            del self.unexpected_by_key[best_key]
        else:
            slot.popleft()
            if not slot:
                del self.unexpected_by_key[best_key]
        self.n_unexpected -= 1
        self.wildcard_matches += 1
        return best

    def describe(self) -> str:
        return (f"{self.n_posted} posted recv(s), "
                f"{self.n_unexpected} unexpected message(s)")
