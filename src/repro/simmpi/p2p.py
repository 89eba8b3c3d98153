"""Point-to-point messaging: matching queues, eager and rendezvous protocols.

Matching follows MPI rules for fully specified receives: a receive
matches on ``(context, source, tag)``, posted receives match in post
order, unexpected messages in arrival order, and messages between one
(sender, receiver, context) pair do not overtake (guaranteed here by FIFO
NIC resources plus sequence numbers).  No I/O protocol posts a wildcard
receive, so there is no ``ANY_SOURCE`` / ``ANY_TAG``.

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

from repro.sim.engine import Event
from repro.simmpi.payload import Payload

#: modeled wire size of a rendezvous header / clear-to-send
RTS_BYTES = 64


class Message:
    """An in-flight message (world-rank addressed)."""

    __slots__ = ("ctx", "src", "dst", "tag", "payload", "rendezvous",
                 "send_event", "seq")

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


class PostedRecv:
    """A receive waiting to be matched."""

    __slots__ = ("ctx", "src", "tag", "event")

    def __init__(self, ctx: int, src: int, tag: int, event: Event):
        self.ctx = ctx
        self.src = src
        self.tag = tag
        self.event = event


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
    """Per-rank matching state, indexed for O(1) matches.

    Posted receives and unexpected messages each live in a dict keyed on
    their ``(ctx, src, tag)`` triple.  A key holding one entry maps
    straight to it; a second entry with the same key turns the value
    into a FIFO ``deque``, dropped when it empties.  Every receive names
    its key, so the FIFO of one key is exactly MPI's order: posted
    receives match in post order, unexpected messages in arrival order.
    Collective and exchange tags are unique per call and round, so almost
    every key holds one entry and costs no deque.
    """

    __slots__ = ("posted_exact", "unexpected_by_key", "n_posted",
                 "n_unexpected", "exact_matches")

    def __init__(self) -> None:
        self.posted_exact: dict[tuple[int, int, int],
                                PostedRecv | deque[PostedRecv]] = {}
        self.unexpected_by_key: dict[tuple[int, int, int],
                                     Message | deque[Message]] = {}
        self.n_posted = 0
        self.n_unexpected = 0
        self.exact_matches = 0

    def add_posted(self, pr: PostedRecv) -> None:
        """Queue an unmatched receive (in post order)."""
        key = (pr.ctx, pr.src, pr.tag)
        slot = self.posted_exact.setdefault(key, pr)
        if slot is not pr:
            if slot.__class__ is deque:
                slot.append(pr)
            else:
                self.posted_exact[key] = deque((slot, pr))
        self.n_posted += 1

    def add_unexpected(self, msg: Message) -> None:
        """Queue a message that arrived before its receive (arrival order)."""
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
        if slot is None:
            return None
        if slot.__class__ is deque:
            pr = slot.popleft()
            if not slot:
                del self.posted_exact[key]
        else:
            pr = slot
            del self.posted_exact[key]
        self.n_posted -= 1
        self.exact_matches += 1
        return pr

    def match_unexpected_key(self, p_ctx: int, p_src: int,
                             p_tag: int) -> Optional[Message]:
        """Find (and remove) the earliest-arrived message on the key; the
        receive-post hot path matches before it ever builds a
        :class:`PostedRecv`."""
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

    def describe(self) -> str:
        return (f"{self.n_posted} posted recv(s), "
                f"{self.n_unexpected} unexpected message(s)")
