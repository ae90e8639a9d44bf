"""ARQ sublayer: the paper's reliable FIFO channel, built from lossy links.

Sec. 2.1 of the paper *assumes* reliable asynchronous FIFO channels.  Real
systems implement that assumption; this module does too, as a driver of
the ARQ core the live runtime shares (:mod:`repro.protocol.arq_core`:
sequence numbers, cumulative acks, deduplication, in-order reassembly).
The driver adds the envelopes (:class:`Segment`, :class:`SegmentAck`, an
ack on every segment) and the timing: **retransmission** of each
unacknowledged segment with exponential backoff (capped) plus
multiplicative jitter, forever -- a message to a node that is merely
slow, partitioned, or crashed-and-recovering is eventually delivered,
which is exactly the reliability the protocol proofs need.

:class:`ReliableTransport` presents the same facade as
:class:`~repro.sim.network.Network` (``register`` / ``send`` / ``halt`` /
``restart`` / ``stats`` / ``monitor``), so protocol nodes plug into it
unchanged.  Its ``stats`` count *logical* protocol messages (one per
``send``); the wrapped network's stats count wire traffic (segments,
retransmissions, acks).

**Pass-through guarantee.**  In ``"auto"`` mode the ARQ machinery engages
only when the wrapped network carries a :class:`~repro.sim.network
.LinkFaults` model.  On a fault-free network every ``send`` is forwarded
verbatim -- no envelopes, no acks, no extra RNG draws -- so executions are
bit-for-bit identical to running without the transport, and the Thm.
4.1-4.5 benchmarks measure the paper's cost model, not ARQ overhead.

**Crash-recovery.**  Per-node channel state (send halves and receive
watermarks, the live checkpoint's shape) can be captured with
:meth:`ReliableTransport.snapshot_node` and reinstalled with
:meth:`restore_node`; the durable-snapshot recovery path in
:mod:`repro.core` stores it alongside protocol state so a restarted
server resumes exactly-once, in-order delivery where its last snapshot
left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..protocol.arq_core import (
    ArqReceiver,
    ArqSender,
    restore_channels,
    snapshot_channels,
)
from .network import NetworkStats
from .scheduler import EventHandle

__all__ = ["TransportConfig", "ReliableTransport", "Segment", "SegmentAck"]

SEG_HEADER_BITS = 32.0  # sequence number + framing
ACK_BITS = 48.0  # cumulative ack + framing


class Segment:
    """Wire envelope: one protocol message plus its channel sequence number."""

    kind = "arq-seg"
    __slots__ = ("seq", "payload", "size_bits")

    def __init__(self, seq: int, payload: object):
        self.seq = seq
        self.payload = payload
        self.size_bits = float(getattr(payload, "size_bits", 0.0)) + SEG_HEADER_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment(seq={self.seq}, payload={self.payload!r})"


class SegmentAck:
    """Cumulative acknowledgement: every seq <= ``cum`` arrived in order."""

    kind = "arq-ack"
    __slots__ = ("cum", "size_bits")

    def __init__(self, cum: int):
        self.cum = cum
        self.size_bits = ACK_BITS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentAck(cum={self.cum})"


@dataclass
class TransportConfig:
    """Tunables for the ARQ sublayer.

    ``mode`` selects when ARQ engages: ``"auto"`` (default) only when the
    wrapped network has a fault model, ``"always"`` unconditionally,
    ``"off"`` never (pure delegation).  ``initial_rto`` is the first
    retransmission timeout (simulated ms); each retransmission multiplies
    it by ``backoff`` up to ``max_rto``, and every wait is stretched by a
    uniform multiplicative jitter in ``[1, 1 + jitter]`` drawn from the
    transport's own RNG (``seed``) to break retransmission synchrony.
    """

    mode: str = "auto"
    initial_rto: float = 12.0
    backoff: float = 2.0
    max_rto: float = 250.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("auto", "always", "off"):
            raise ValueError(f"unknown transport mode {self.mode!r}")
        if self.initial_rto <= 0 or self.max_rto < self.initial_rto:
            raise ValueError("need 0 < initial_rto <= max_rto")
        if self.backoff < 1.0 or self.jitter < 0.0:
            raise ValueError("need backoff >= 1 and jitter >= 0")


class ReliableTransport:
    """Network facade adding ARQ reliability over an unreliable substrate.

    The channel state is :mod:`repro.protocol.arq_core`'s; this driver adds
    the envelopes and a retransmission timer per unacked segment.
    """

    def __init__(self, network, config: TransportConfig | None = None):
        self.network = network
        self.config = config or TransportConfig()
        self.scheduler = network.scheduler
        self.stats = NetworkStats()  # logical protocol messages
        self.monitor: Callable[[int, int, object], None] | None = None
        self.rng = np.random.default_rng(self.config.seed)
        self._handlers: dict[int, Callable[[int, object], None]] = {}
        #: node -> peer -> send half of the channel node -> peer
        self._send: dict[int, dict[int, ArqSender]] = {}
        #: node -> peer -> receive half of the channel peer -> node
        self._recv: dict[int, dict[int, ArqReceiver]] = {}
        #: node -> (peer, seq) -> (timeout of the next wait, retransmit
        #: timer); a segment has an entry once sent under its channel state
        self._timers: dict[int, dict[tuple[int, int], tuple[float, EventHandle]]] = {}
        # observability
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0

    # ------------------------------------------------------------------
    # Network facade

    @property
    def active(self) -> bool:
        """Whether ARQ is engaged (vs. pure pass-through delegation)."""
        if self.config.mode == "always":
            return True
        if self.config.mode == "off":
            return False
        return getattr(self.network, "faults", None) is not None

    @property
    def faults(self):
        return getattr(self.network, "faults", None)

    def register(self, node_id: int, handler: Callable[[int, object], None]) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self.network.register(
            node_id, lambda src, msg, _dst=node_id: self._on_wire(_dst, src, msg)
        )

    def halt(self, node_id: int) -> None:
        self.network.halt(node_id)

    def restart(self, node_id: int) -> None:
        """Un-halt ``node_id`` and resume retransmitting its send windows.

        By default channel state survives the crash in place (as if kept by
        a session layer); durable-recovery callers overwrite it right after
        via :meth:`restore_node` with the snapshotted state.
        """
        self.network.restart(node_id)
        self._rearm_node(node_id)

    def is_halted(self, node_id: int) -> bool:
        return self.network.is_halted(node_id)

    def send(self, src: int, dst: int, msg: object) -> None:
        """Logically send ``msg``; ARQ guarantees eventual FIFO delivery."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination node {dst}")
        if self.network.is_halted(src):
            return  # a halted node takes no steps
        kind = getattr(msg, "kind", type(msg).__name__)
        self.stats.record(kind, float(getattr(msg, "size_bits", 0.0)))
        if self.monitor is not None:
            self.monitor(src, dst, msg)
        if not self.active:
            self.network.send(src, dst, msg)
            return
        senders = self._send.setdefault(src, {})
        sender = senders.get(dst) or senders.setdefault(dst, ArqSender())
        self._transmit(src, dst, sender.push(msg), msg)

    # ------------------------------------------------------------------
    # sender side

    def _transmit(self, src: int, dst: int, seq: int, payload: object) -> None:
        """Send segment ``seq`` and arm its retransmission; an ack or a
        restore cancels the timer."""
        if self.network.is_halted(src):
            return  # a crashed sender takes no steps
        timers = self._timers.setdefault(src, {})
        sent = timers.get((dst, seq))
        if sent is None:
            rto = self.config.initial_rto
        else:
            self.retransmissions += 1
            rto = sent[0]
        self.network.send(src, dst, Segment(seq, payload))
        wait = rto * (1.0 + self.config.jitter * float(self.rng.random()))
        timers[(dst, seq)] = (
            min(rto * self.config.backoff, self.config.max_rto),
            self.scheduler.schedule(
                wait, lambda: self._transmit(src, dst, seq, payload)
            ),
        )

    # ------------------------------------------------------------------
    # receiver side

    def _on_wire(self, dst: int, src: int, wire: object) -> None:
        if isinstance(wire, SegmentAck):
            # an ack received at dst concerns the channel dst -> src
            sender = self._send.get(dst, {}).get(src)
            timers = self._timers.get(dst, {})
            for seq in () if sender is None else sender.ack(wire.cum):
                sent = timers.pop((src, seq), None)
                if sent is not None:
                    sent[1].cancel()
            return
        if not isinstance(wire, Segment):
            # pass-through traffic (ARQ inactive when it was sent)
            self._handlers[dst](src, wire)
            return
        receivers = self._recv.setdefault(dst, {})
        receiver = receivers.get(src) or receivers.setdefault(src, ArqReceiver())
        if receiver.duplicate(wire.seq):
            self.duplicates_suppressed += 1
        else:
            for payload in receiver.accept(wire.seq, wire.payload):
                self._handlers[dst](src, payload)
        # cumulative ack (also re-acks duplicates whose ack was lost)
        self.acks_sent += 1
        self.network.send(dst, src, SegmentAck(receiver.last))

    # ------------------------------------------------------------------
    # crash-recovery support

    def snapshot_node(self, node_id: int) -> dict[str, Any] | None:
        """The channel state ``node_id`` keeps durable, by reference
        (:func:`~repro.protocol.arq_core.snapshot_channels`), or ``None``
        while ARQ is off.

        The send halves keep a recovered node retransmitting what it
        logically sent but never saw acked; the receive watermarks keep it
        from applying retransmissions of what it already delivered.
        """
        if not self.active:
            return None
        return snapshot_channels(
            self._send.get(node_id, {}), self._recv.get(node_id, {})
        )

    def restore_node(self, node_id: int, snap: dict[str, Any]) -> None:
        """Reinstall snapshotted channel state and re-arm retransmissions."""
        for _, timer in self._timers.pop(node_id, {}).values():
            timer.cancel()
        self._send[node_id], self._recv[node_id] = restore_channels(snap)
        self._rearm_node(node_id)

    def _rearm_node(self, node_id: int) -> None:
        """Retransmit every unacked outgoing segment now, timers afresh."""
        timers = self._timers.get(node_id, {})
        for dst, sender in self._send.get(node_id, {}).items():
            for seq, payload in sender.tail():
                sent = timers.get((dst, seq))
                if sent is not None:
                    sent[1].cancel()
                self._transmit(node_id, dst, seq, payload)

    # ------------------------------------------------------------------
    # introspection

    def in_flight(self, exclude: tuple = ()) -> int:
        """Unacknowledged segments.

        ``exclude`` skips segments whose payload is one of the given
        message types.  Convergence checks use it to ignore perpetual
        background gossip (e.g. repair digests fire every interval, so at
        any instant an ack may legitimately still be on the wire).
        """
        return sum(
            1
            for senders in self._send.values()
            for sender in senders.values()
            for _, payload in sender.unacked
            if not exclude or not isinstance(payload, exclude)
        )
