"""LogGP-style interconnect model with per-NIC serialization.

Each node owns a full-duplex NIC modeled as two FIFO resources (transmit
and receive).  A message charges its byte volume on the sender's TX
resource and, pipelined behind the wire latency, on the receiver's RX
resource — so an isolated message costs ``o + L + n/BW`` while fan-in to
one node (the incast an I/O aggregator experiences during the exchange
phase) and fan-out from one node both serialize on the shared link.

Intra-node transfers (Catamount delivers user-space to user-space without
kernel buffering) bypass the NIC and cost a memcpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.machine import Machine
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.resources import FIFOResource


@dataclass(frozen=True)
class NetworkParams:
    """Interconnect cost parameters (defaults approximate SeaStar)."""

    #: one-way wire latency, seconds
    latency: float = 6.0e-6
    #: NIC link bandwidth, bytes/second (~2 GB/s SeaStar injection)
    bandwidth: float = 2.0e9
    #: per-message send-side CPU/NIC overhead, seconds
    send_overhead: float = 1.0e-6
    #: per-message receive-side overhead, seconds
    recv_overhead: float = 1.0e-6
    #: intra-node copy bandwidth, bytes/second
    memcpy_bandwidth: float = 3.0e9
    #: messages at or below this size use the eager protocol
    eager_threshold: int = 65536

    def __post_init__(self) -> None:
        if min(self.latency, self.send_overhead, self.recv_overhead) < 0:
            raise ConfigError("network latencies/overheads must be >= 0")
        if self.bandwidth <= 0 or self.memcpy_bandwidth <= 0:
            raise ConfigError("network bandwidths must be > 0")
        if self.eager_threshold < 0:
            raise ConfigError("eager_threshold must be >= 0")


class NetworkModel:
    """Owns the per-node NIC resources and computes message timings."""

    def __init__(self, engine: Engine, machine: Machine,
                 params: Optional[NetworkParams] = None):
        self.engine = engine
        self.machine = machine
        self.params = params or NetworkParams()
        p = self.params
        self.tx = [
            FIFOResource(engine, f"nic-tx-{n}", rate=p.bandwidth,
                         overhead=p.send_overhead)
            for n in range(machine.nnodes)
        ]
        self.rx = [
            FIFOResource(engine, f"nic-rx-{n}", rate=p.bandwidth,
                         overhead=p.recv_overhead)
            for n in range(machine.nnodes)
        ]
        self.messages_sent = 0
        self.bytes_sent = 0
        #: messages that actually crossed the interconnect (not memcpy)
        self.cross_node_messages = 0
        self.cross_node_bytes = 0
        # hot-path cache: plain-python rank->node table (numpy scalar
        # extraction is ~10x a list index)
        self._node_of = [int(n) for n in machine.node_of]

    def transfer(self, src_rank: int, dst_rank: int, nbytes: int,
                 now: Optional[float] = None) -> tuple[float, float]:
        """Reserve resources for a message; returns ``(sender_free, arrival)``.

        ``sender_free`` is when the sending CPU may proceed (data handed to
        the NIC / copied locally); ``arrival`` is when the payload is fully
        available at the receiver.  Non-blocking: callers sleep as their
        protocol requires.

        ``now`` is the issue time (default: the engine clock).  The macro
        walker issues messages ahead of the clock; it does so in global
        chronological order, so reserving the real NICs leaves them in
        exactly the state per-message calls at those times would.
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        node_of = self._node_of
        src_node = node_of[src_rank]
        dst_node = node_of[dst_rank]
        if now is None:
            now = self.engine.now
        p = self.params
        if src_node == dst_node:
            done = now + p.send_overhead + nbytes / p.memcpy_bandwidth
            return done, done
        self.cross_node_messages += 1
        self.cross_node_bytes += nbytes
        tx = self.tx[src_node]
        rx = self.rx[dst_node]
        if tx.profile is None and rx.profile is None:
            # inlined FIFOResource.reserve_span (nominal-speed path);
            # the arithmetic matches it bit for bit, including reporting
            # the span start as done - stime
            busy = tx.busy_until
            start = now if now > busy else busy
            stime = tx.overhead + nbytes / tx.rate
            tx_done = start + stime
            tx.busy_until = tx_done
            first_byte = tx_done - stime + p.latency
            busy = rx.busy_until
            start = first_byte if first_byte > busy else busy
            stime = rx.overhead + nbytes / rx.rate
            arrival = start + stime
            rx.busy_until = arrival
            return tx_done, arrival
        tx_start, tx_done = tx.reserve_span(now, nbytes)
        arrival = rx.reserve_span(tx_start + p.latency, nbytes)[1]
        return tx_done, arrival
