"""ARQ as a sans-I/O core: the paper's reliable FIFO channels, once.

Sec. 2 of the paper assumes reliable asynchronous FIFO channels between
servers.  Both runtimes build them from links that lose, duplicate,
reorder or sever, on this state: :class:`ArqSender`, the send half of one
directed channel, and :class:`ArqReceiver`, its receive half.  *When* to
retransmit, how a message is framed and when an ack may leave are the
drivers' -- :class:`~repro.sim.transport.ReliableTransport` in the
simulator, ``_PeerChannel`` / ``AsyncioServer`` in
:mod:`repro.runtime.asyncio_rt`.

Durable state (:func:`snapshot_channels`) is a send half's ``seq`` and
unacked tail and a receive half's watermark -- not its out-of-order
buffer: a buffered message is above the watermark, so it was never acked
and its sender retransmits it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

__all__ = ["ArqSender", "ArqReceiver", "snapshot_channels", "restore_channels"]


class ArqSender:
    """Send half of one directed channel: numbers messages from 1 and
    keeps each until a cumulative ack covers it."""

    __slots__ = ("seq", "acked", "unacked")

    def __init__(self) -> None:
        #: the highest sequence number used (0: none yet)
        self.seq = 0
        #: the highest cumulative ack received; everything up to it is
        #: pruned and can never be replayed, so a hello advertises it as the
        #: receiver's minimum watermark (:meth:`ArqReceiver.hello`)
        self.acked = 0
        #: ``(seq, msg)`` not yet acked, oldest first, consecutive seqs
        self.unacked: deque[tuple[int, object]] = deque()

    def push(self, msg) -> int:
        """Number ``msg`` and keep it until acked; returns its seq."""
        self.seq += 1
        self.unacked.append((self.seq, msg))
        return self.seq

    def ack(self, upto: int) -> list[int]:
        """Apply a cumulative ack; returns the seqs it pruned."""
        if upto > self.acked:
            self.acked = upto
        unacked, pruned = self.unacked, []
        while unacked and unacked[0][0] <= upto:
            pruned.append(unacked.popleft()[0])
        return pruned

    def tail(self, from_seq: int = 0) -> list[tuple[int, object]]:
        """The unacked ``(seq, msg)`` from ``from_seq`` on, oldest first,
        as a list the caller may iterate while transmitting."""
        return [entry for entry in self.unacked if entry[0] >= from_seq]


class ArqReceiver:
    """Receive half of one directed channel: delivers in sequence order,
    exactly once, and resynchronises with a sender's hello."""

    __slots__ = ("last", "_ahead")

    def __init__(self, last: int = 0) -> None:
        #: the delivery watermark: every seq up to it was delivered
        self.last = last
        #: seq -> message that arrived ahead of a gap
        self._ahead: dict[int, object] = {}

    def duplicate(self, seq: int) -> bool:
        """``seq`` was delivered or is buffered already."""
        return seq <= self.last or seq in self._ahead

    def accept(self, seq: int, msg) -> Iterator:
        """Yield the messages ``seq`` makes deliverable, in order.

        The watermark moves past each message *before* it is yielded, so a
        driver that persists while handling it writes the watermark and the
        state change into the same checkpoint.  A duplicate, or a message
        ahead of a gap (which is buffered), yields nothing.
        """
        if seq != self.last + 1:
            if seq > self.last:
                self._ahead[seq] = msg
            return
        self.last = seq
        yield msg  # the in-order fast path: no buffer put or pop
        ahead = self._ahead
        while ahead and self.last + 1 in ahead:
            self.last += 1
            yield ahead.pop(self.last)

    def hello(self, base: int, sent: int) -> bool:
        """Resynchronise with a sender's hello; returns whether the
        watermark moved (it is durable state).

        The sender replays its whole unacked tail behind the hello, so the
        buffer goes: all of it is in the replay, or it came from a dead
        incarnation.  ``base`` is the sender's highest received ack:
        nothing up to it can come again, so a watermark behind it (a
        restart from a checkpoint that predates acks we sent -- an acked
        message that changed durable state was persisted *before* its ack,
        so the gap changed none) fast-forwards to it.  ``sent`` is the
        highest seq the sender has used.  A message only leaves a sender
        after a checkpoint holding it, so one that remembers its disk never
        reports less than we delivered: if it does, it is a fresh
        incarnation numbering from 1, whose first messages the old
        watermark would swallow -- and ack -- as duplicates: rewind to
        ``base``.
        """
        self._ahead.clear()
        if sent < self.last or base > self.last:
            self.last = base
            return True
        return False


def snapshot_channels(
    send: dict[int, ArqSender], recv: dict[int, ArqReceiver]
) -> dict:
    """One node's durable channel state, by reference: each send half by
    destination, each receive watermark by source."""
    return {
        "send": {
            j: {"seq": s.seq, "unacked": list(s.unacked)} for j, s in send.items()
        },
        "recv": {j: r.last for j, r in recv.items()},
    }


def restore_channels(
    state: dict,
) -> tuple[dict[int, ArqSender], dict[int, ArqReceiver]]:
    """The send and receive halves :func:`snapshot_channels` recorded."""
    send = {}
    for j, st in state.get("send", {}).items():
        sender = send[j] = ArqSender()
        sender.seq = st["seq"]
        sender.unacked = deque(tuple(entry) for entry in st["unacked"])
        # everything below the unacked tail was acked and pruned
        sender.acked = sender.unacked[0][0] - 1 if sender.unacked else sender.seq
    return send, {j: ArqReceiver(last) for j, last in state.get("recv", {}).items()}
