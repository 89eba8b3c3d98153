"""Point-to-point messaging: matching queues, eager and rendezvous protocols.

Matching follows MPI rules for fully specified receives: a receive
matches on ``(context, source, tag)``, posted receives match in post
order and messages in send order.  A message is matched when it is
sent, against its receiver's FIFO for its key, so no message overtakes
an earlier one from the same sender on the same key, on the network or
on one node: the first receive gets the first message, and completes
when that message has arrived even if a later, shorter one arrived
first.  No I/O protocol posts a wildcard receive, so there is no
``ANY_SOURCE`` / ``ANY_TAG``.

Protocols:

* **eager** (size <= ``eager_threshold``) — the payload is pushed
  immediately; the sender completes as soon as the NIC accepts the data.
  Both ends wait on engine slots (:meth:`repro.sim.Engine.slot`): the
  sender on its completion slot, the receive on the message's arrival
  slot, or on its own event if it was posted before the send.
* **rendezvous** — only a header travels at send time; the data transfer
  starts when the header has arrived and a receive has matched it
  (clear-to-send latency), and the *sender* blocks until the NIC drains
  the payload.  This is what couples process skew across ranks in
  collective I/O: a late receiver stalls its senders.

A receive's value is the payload.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.sim.engine import Engine, Event
from repro.simmpi.payload import Payload

#: modeled wire size of a rendezvous header / clear-to-send
RTS_BYTES = 64


class Message:
    """A rendezvous message whose data has not moved yet (world-rank
    addressed).

    ``recv`` is the matched receive's event, None until one is posted;
    ``arrived`` turns true when the header reaches the receiver.  The
    clear-to-send starts once both hold.
    """

    __slots__ = ("src", "dst", "payload", "send_event", "recv", "arrived")

    def __init__(self, src: int, dst: int, payload: Payload,
                 send_event: Event):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_event = send_event
        self.recv: Optional[Event] = None
        self.arrived = False


class Request:
    """Handle for a pending operation; complete it with ``yield from wait()``.

    ``event`` is what a task yields to wait: an :class:`Event`, or an
    engine slot (see :mod:`repro.sim.engine`).  One task may wait on a
    slot request; any task may read ``complete``.  A second task waiting
    on the same slot pushes an equal heap key, and the run fails with a
    ``TypeError`` from the heap once it compares the two waiting tasks.
    An :class:`Event` request may have any number of waiters.
    """

    __slots__ = ("engine", "event")

    def __init__(self, engine: Engine, event: "Event | tuple"):
        self.engine = engine
        self.event = event

    @property
    def complete(self) -> bool:
        return self.engine.passed(self.event)

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
    """Per-rank matching state: one FIFO per ``(ctx, src, tag)`` key.

    ``posted`` queues the events of receives posted before any message
    on their key was sent, in post order; ``unexpected`` queues messages
    sent before their receive was posted, in send order — an eager
    message as its arrival slot, a rendezvous one as its
    :class:`Message`.  A key never holds both.  A key holding one entry
    maps straight to it; a second entry with the same key turns the
    value into a FIFO ``deque``, dropped when it empties.  Collective
    and exchange tags are unique per call and round, so almost every
    key holds one entry and costs no deque.
    """

    __slots__ = ("posted", "unexpected", "exact_matches")

    def __init__(self) -> None:
        self.posted: dict[tuple[int, int, int], Any] = {}
        self.unexpected: dict[tuple[int, int, int], Any] = {}
        self.exact_matches = 0

    def add_posted(self, key: tuple[int, int, int], recv: Event) -> None:
        """Queue an unmatched receive (in post order)."""
        held = self.posted.setdefault(key, recv)
        if held is not recv:
            if held.__class__ is deque:
                held.append(recv)
            else:
                self.posted[key] = deque((held, recv))

    def add_unexpected(self, key: tuple[int, int, int], msg: Any) -> None:
        """Queue a message sent before its receive (in send order)."""
        held = self.unexpected.setdefault(key, msg)
        if held is not msg:
            if held.__class__ is deque:
                held.append(msg)
            else:
                self.unexpected[key] = deque((held, msg))

    def match_posted(self, key: tuple[int, int, int]) -> Optional[Event]:
        """Take the first-posted receive on ``key``, or None."""
        recv = self.posted.pop(key, None)
        if recv is None:
            return None
        self.exact_matches += 1
        if recv.__class__ is deque:
            held, recv = recv, recv.popleft()
            if held:
                self.posted[key] = held
        return recv

    def match_unexpected(self, key: tuple[int, int, int]) -> Any:
        """Take the first-sent message on ``key``, or None."""
        msg = self.unexpected.pop(key, None)
        if msg is None:
            return None
        self.exact_matches += 1
        if msg.__class__ is deque:
            held, msg = msg, msg.popleft()
            if held:
                self.unexpected[key] = held
        return msg
