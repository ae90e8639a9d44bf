"""The ARQ core (:mod:`repro.protocol.arq_core`) driven directly.

Two nodes, a channel each way: each node owns the send half of its
outgoing channel and the receive half of its incoming one, and plays the
live runtime's rules around them -- a commit writes one checkpoint
(:func:`snapshot_channels` plus the delivered log) and only then lets out
what it held: data segments and the cumulative ack of the watermark in
that checkpoint.  Hypothesis draws the steps and the faults:

* **drop, duplicate, reorder** -- any segment or ack in flight may be
  delivered, delivered and kept (a duplicate), or lost, in any order;
* **reconnect** -- a channel's connection dies with whatever it carried;
  the new one opens with the hello ``(acked, seq)`` and the unacked tail is
  replayed;
* **crash** -- a node restarts from its last checkpoint, which was taken at
  whatever step the last commit happened to be drawn;
* **disk wipe** -- a node restarts empty as a fresh incarnation, numbering
  from 1 again, and announces itself with its hellos before it sends.

Every message a receiver delivers is one its sender had made durable;
within one receiver incarnation the messages of one sender incarnation
arrive exactly once and in order, from seq 1 unless the receiver was born
after that stream began (a hello's fast-forward), and a fast-forward never
skips a message the sender still holds unacked.  No ack prunes a message
its receiver has not durably delivered.  Once the faults stop, every
channel drains: all sent, all delivered.
"""

from __future__ import annotations

import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.protocol.arq_core import (
    ArqReceiver,
    ArqSender,
    restore_channels,
    snapshot_channels,
)
from repro.runtime import wire


class _Node:
    """One node's channel halves, delivered log and commit barrier."""

    def __init__(self, i: int, inc: int):
        self.i, self.inc = i, inc
        self.send = ArqSender()  # channel i -> 1 - i
        self.recv = ArqReceiver()  # channel 1 - i -> i
        #: messages delivered by this incarnation, in order
        self.log: list[tuple] = []
        #: the last checkpoint: (channel snapshot, len(log)), or None
        self.disk: tuple | None = None
        #: data segments waiting for the next commit: (conn, seq, msg)
        self.held: list[tuple] = []
        #: the connection of the incoming channel an ack is owed on
        self.owed: int | None = None


class _Pair:
    def __init__(self):
        self.step = 0
        self.nodes = [_Node(0, 0), _Node(1, 0)]
        #: (node, incarnation) -> the step it was born at
        self.born = {(0, 0): 0, (1, 0): 0}
        #: sender node -> id of its channel's current connection
        self.conn = [0, 0]
        #: in flight: ("d", dst, conn, seq, msg) or ("a", dst, conn, upto)
        self.net: list[tuple] = []
        #: every message that reached a sender's disk: (node, inc, seq) -> msg
        self.sent: dict[tuple, tuple] = {}
        #: every message that reached a receiver's disk, any incarnation
        self.durable: list[set] = [set(), set()]
        self.nonce = 0

    # -- node steps ------------------------------------------------------

    def send(self, i: int) -> None:
        node = self.nodes[i]
        self.nonce += 1
        msg = (i, node.inc, node.send.seq + 1, self.nonce)
        assert node.send.push(msg) == msg[2]
        node.held.append((self.conn[i], msg[2], msg))

    def commit(self, i: int) -> None:
        node = self.nodes[i]
        node.disk = copy.deepcopy((
            snapshot_channels({1 - i: node.send}, {1 - i: node.recv}),
            len(node.log),
        ))
        for seq, msg in node.send.unacked:
            self.sent[(i, node.inc, seq)] = msg
        self.durable[i].update(node.log)
        self.net += [("d", 1 - i, c, seq, msg) for c, seq, msg in node.held]
        node.held = []
        if node.owed is not None:
            self.net.append(("a", 1 - i, node.owed, node.recv.last))
            node.owed = None

    def retransmit(self, i: int) -> None:
        node = self.nodes[i]
        node.held += [(self.conn[i], seq, msg) for seq, msg in node.send.tail()]

    def reconnect(self, i: int) -> None:
        """Channel ``i -> 1 - i`` redials: hello, then the tail replay."""
        node, peer = self.nodes[i], self.nodes[1 - i]
        self.conn[i] += 1  # what the old connection carried is lost
        base, sent = node.send.acked, node.send.seq
        if base > peer.recv.last:
            assert all(seq > base for seq, _ in node.send.unacked), (
                f"fast-forward to {base} skips an unacked message"
            )
        peer.recv.hello(base, sent)
        node.held = []
        self.retransmit(i)

    def crash(self, i: int) -> None:
        node = self.nodes[i]
        if node.disk is None:
            send, recv, kept = ArqSender(), ArqReceiver(), 0
        else:
            snap, kept = copy.deepcopy(node.disk)
            senders, receivers = restore_channels(snap)
            send, recv = senders[1 - i], receivers[1 - i]
        node.send, node.recv = send, recv
        del node.log[kept:]
        node.held, node.owed = [], None
        self.reconnect(i)
        self.reconnect(1 - i)

    def wipe(self, i: int) -> None:
        node = self.nodes[i] = _Node(i, self.nodes[i].inc + 1)
        self.born[(i, node.inc)] = self.step
        self.reconnect(i)
        self.reconnect(1 - i)

    # -- the network -----------------------------------------------------

    def arrive(self, item: tuple) -> None:
        if item[0] == "a":
            _, dst, conn, upto = item
            if conn != self.conn[dst]:
                return  # an ack of a dead connection dies with it
            node = self.nodes[dst]
            for seq, msg in node.send.unacked:
                if seq <= upto:
                    assert msg in self.durable[1 - dst], (
                        f"ack {upto} prunes {msg}, never durable at {1 - dst}"
                    )
            node.send.ack(upto)
            return
        _, dst, conn, seq, msg = item
        if conn != self.conn[1 - dst]:
            return
        node = self.nodes[dst]
        for m in node.recv.accept(seq, msg):
            self.deliver(node, m)
        node.owed = conn

    def deliver(self, node: _Node, msg: tuple) -> None:
        src, inc, seq, _ = msg
        assert self.sent.get((src, inc, seq)) == msg, f"{msg} never durable"
        assert msg not in node.log, f"{msg} delivered twice"
        assert node.recv.last == seq  # the watermark moved first
        prev = [m[2] for m in node.log if m[:2] == msg[:2]]
        if prev:
            assert seq == prev[-1] + 1, f"{msg} after seq {prev[-1]}"
        elif self.born[(node.i, node.inc)] <= self.born[(src, inc)]:
            assert seq == 1, f"{msg} opens the stream"
        node.log.append(msg)

    def settle(self) -> None:
        """No more faults: redial, then commit and deliver until idle."""
        for i in (0, 1):
            self.reconnect(i)
        for _ in range(10):
            for i in (0, 1):
                self.commit(i)
            net, self.net = self.net, []
            for item in net:
                self.arrive(item)
            if not self.net and all(
                not n.held and n.owed is None for n in self.nodes
            ):
                break
        for i in (0, 1):
            node, peer = self.nodes[i], self.nodes[1 - i]
            assert not node.send.unacked, f"channel {i} stalled"
            assert peer.recv.last == node.send.seq
            stream = [m[2] for m in peer.log if m[:2] == (i, node.inc)]
            if node.send.seq:
                assert stream and stream[-1] == node.send.seq


_OPS = (
    ["send"] * 4 + ["commit"] * 3 + ["net"] * 8
    + ["retransmit", "reconnect", "crash", "wipe"]
)

#: ``(op, node, index, fate)``: a "net" step takes the in-flight item
#: ``index`` (mod the count) and delivers it, duplicates it or drops it
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(0, 1),
        st.integers(0, 63),
        st.sampled_from(["deliver", "deliver", "dup", "drop"]),
    ),
    max_size=80,
)


@settings(deadline=None)
@given(steps=_STEPS)
# a wiped node's peer holds the dead incarnation's seq 2 above a gap at
# watermark 0; the fresh incarnation's seq 1 must not release it
@example(steps=[
    ("send", 0, 0, "deliver"), ("send", 0, 0, "deliver"),
    ("commit", 0, 0, "deliver"), ("net", 0, 1, "deliver"),
    ("wipe", 0, 0, "deliver"), ("send", 0, 0, "deliver"),
    ("commit", 0, 0, "deliver"), ("net", 0, 1, "deliver"),
])
def test_two_cores_deliver_exactly_once_in_order_per_incarnation(steps):
    pair = _Pair()
    for op, i, index, fate in steps:
        pair.step += 1
        if op == "net":
            if not pair.net:
                continue
            k = index % len(pair.net)
            item = pair.net[k] if fate == "dup" else pair.net.pop(k)
            if fate != "drop":
                pair.arrive(item)
        else:
            getattr(pair, op)(i)
    pair.settle()


def test_sender_tail_ack_and_snapshot_round_trip():
    sender = ArqSender()
    for k in range(5):
        assert sender.push(("m", k)) == k + 1
    assert sender.ack(2) == [1, 2] and sender.ack(1) == []
    assert [seq for seq, _ in sender.tail(4)] == [4, 5]
    # a restore re-derives ``acked`` from the tail, never above what was
    # acked; with nothing unacked it is the whole send sequence
    send, _ = restore_channels(snapshot_channels({1: sender}, {}))
    assert (send[1].seq, send[1].acked) == (5, 2)
    assert list(send[1].unacked) == list(sender.unacked)
    sender.ack(5)
    assert restore_channels(snapshot_channels({1: sender}, {}))[0][1].acked == 5


def test_receiver_buffers_gaps_and_follows_the_hello_rule():
    receiver = ArqReceiver()
    assert list(receiver.accept(2, "b")) == [] and receiver.duplicate(2)
    assert list(receiver.accept(1, "a")) == ["a", "b"]
    assert receiver.last == 2 and list(receiver.accept(1, "a")) == []
    # a restarted sender that remembers its disk: nothing to do
    assert not receiver.hello(1, 2)
    # its acked base is ahead of us: fast-forward
    assert receiver.hello(4, 6) and receiver.last == 4
    # a fresh incarnation (sent < last): rewind to its base
    assert receiver.hello(0, 1) and receiver.last == 0
    # the durable rule: the watermark only
    assert list(receiver.accept(3, "c")) == [] and receiver.duplicate(3)
    send, recv = restore_channels(snapshot_channels({}, {7: receiver}))
    assert send == {} and recv[7].last == 0 and not recv[7].duplicate(3)


def test_a_live_transport_section_round_trips_to_the_same_bytes():
    """The live checkpoint's transport section, in the shape servers wrote
    before the core existed: restoring and snapshotting it again gives
    the same bytes (dict order included), so a restart rewrites nothing."""
    section = {
        "send": {
            1: {"seq": 0, "unacked": []},
            3: {"seq": 9, "unacked": [(7, ("m", 7)), (8, ("m", 8)), (9, ("m", 9))]},
            2: {"seq": 4, "unacked": []},
        },
        "recv": {3: 10, 1: 0, 2: 7},
    }
    blob = wire.encode(section)
    send, recv = restore_channels(wire.decode(blob))
    assert send[3].acked == 6 and send[2].acked == 4
    assert wire.encode(snapshot_channels(send, recv)) == blob
