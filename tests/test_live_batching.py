"""Batched flush, backpressure, and retransmit age gating on the live ARQ.

Regression tests for the throughput-first send path:

* **coalescing** -- what one commit releases leaves in a single
  ``transport.write``, each run of consecutive data messages as one
  frame, and decodes back to the exact message sequence (and nothing
  leaves before the release);
* **detach / release** -- a commit takes the held frames when it snapshots
  the state and sends them when its checkpoint is durable: frames enqueued
  in between wait for the next commit, a batch whose connection has been
  redialled meanwhile is dropped (the replay covers it), and a batch whose
  write failed goes back in front of what was enqueued since; a lost
  connection stops the channel writing;
* **backpressure** -- between the transport's ``pause_writing`` and
  ``resume_writing`` the channel stops feeding the socket (data frames
  wait in ``unacked``) and replays the skipped tail on resume, with no
  loss or reordering, chaos drops included;
* **age gating** -- the retransmission pass only re-sends unacked frames
  whose last transmission attempt is older than the interval (the old
  loop re-sent the whole tail every pass, multiplying chaos ``dup`` fates);
* **shutdown** -- real task failures surface in the log instead of being
  swallowed together with ``CancelledError``;
* **two channels, property** -- two servers' real receiving and
  committing code (:class:`_Node`) over fake connections, driven by
  hypothesis through sends, gossip, commits landing late, chaos fates,
  backpressure, reconnects and disk-wiping restarts with message sizes
  around ``wire.RUN_BUDGET``: every message is delivered once and in
  order, no multi-message frame passes the budget, and no ack -- from
  another connection or incarnation -- prunes a message its receiver has
  not durably delivered; a reconnect replaying 2.4 MB goes out as several
  ordered frames.

The channel-level tests drive a :class:`_PeerChannel` over a fake
transport that pauses and resumes the channel's :class:`_Dialed` protocol
like a real one, and play the server's commit themselves (``_commit``:
detach, then release); the end-to-end test runs a real batched cluster
under chaos.
"""

from __future__ import annotations

import asyncio
import logging
import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency.causal import check_causal_consistency
from repro.core.messages import App
from repro.core.tags import Tag, VectorClock
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.runtime import wire
from repro.runtime.asyncio_rt import (
    RETRANSMIT_INTERVAL,
    AsyncioCluster,
    AsyncioServer,
    _Dialed,
    _Inbound,
    _PeerChannel,
)
from repro.runtime.chaos_rt import FrameFate, LiveFaultInjector
from repro.sim.network import LinkFaults


class _FakeTransport:
    """Collects writes and plays a transport's flow control.

    Like a real transport it calls ``pause_writing`` on its protocol when
    a write leaves the buffer above the high-water mark; :meth:`drain`
    empties the buffer and calls ``resume_writing``.
    """

    HIGH = 64

    def __init__(self, protocol):
        self.protocol = protocol
        self.buffer_size = 0
        self.paused = False
        self.closed = False
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))
        if self.buffer_size > self.HIGH and not self.paused:
            self.paused = True
            self.protocol.pause_writing()

    def drain(self):
        self.buffer_size = 0
        if self.paused:
            self.paused = False
            self.protocol.resume_writing()

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class _StubServer:
    chaos = None
    node_id = 0
    peers: dict = {}

    def __init__(self):
        self.frames_sent = 0
        self.flushes = 0
        self.commits_requested = 0

    def _schedule_commit(self):
        # the real server snapshots + detach()es, writes the checkpoint,
        # then release()s; the tests below call _commit() for all three
        self.commits_requested += 1


def _frames(blobs: list[bytes]) -> list:
    """Split concatenated wire frames back into decoded payloads."""
    data = b"".join(blobs)
    out, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        out.append(wire.decode_frame(data[pos : pos + 4 + length]))
        pos += 4 + length
    return out


def _messages(frames: list) -> list[tuple[int, object]]:
    """``(seq, msg)`` of every data message in ``frames``: a run frame
    ``("d", first, msgs, ...)`` numbers its messages from ``first``."""
    return [
        (seq, msg)
        for f in frames
        if f[0] == "d"
        for seq, msg in enumerate(f[2], f[1])
    ]


def _seqs(frames: list) -> list[int]:
    return [seq for seq, _ in _messages(frames)]


def _receive(frames: list) -> tuple[list, int]:
    """Replay the listener's watermark + out-of-order buffer over frames."""
    last, ooo, out = 0, {}, []
    for seq, msg in _messages(frames):
        if seq > last:
            ooo[seq] = msg
            while last + 1 in ooo:
                last += 1
                out.append(ooo.pop(last))
    return out, last


def _commit(ch: _PeerChannel) -> None:
    """Play a server commit whose disk half takes no time."""
    held = ch.detach()
    if held is not None:
        ch.release(*held)


def _connect(ch: _PeerChannel) -> _FakeTransport:
    """Give ``ch`` a fresh connection, as its dial loop does after the
    hello: held frames for the old one are shed (call inside a loop)."""
    conn = _Dialed(ch)
    fake = _FakeTransport(conn)
    conn.connection_made(fake)
    ch._pending.clear()
    ch.transport = fake
    return fake


def _channel(stub: _StubServer) -> tuple[_PeerChannel, _FakeTransport]:
    """A connected channel (call inside a loop)."""
    ch = _PeerChannel(stub, 1)
    return ch, _connect(ch)


def test_batched_sends_coalesce_into_single_write():
    async def run():
        stub = _StubServer()
        ch, fake = _channel(stub)
        msgs = [("payload", k) for k in range(5)]
        for m in msgs:
            ch.send(m)
        await asyncio.sleep(0.02)
        # held behind the barrier: every send asked for a commit, and
        # nothing reaches the socket until one releases the frames
        assert stub.commits_requested == 5
        assert fake.writes == []
        _commit(ch)
        # one commit, one write, one frame: the five messages, in order
        assert len(fake.writes) == 1
        frames = _frames(fake.writes)
        assert frames == [("d", 1, msgs)]
        delivered, last = _receive(frames)
        assert delivered == msgs and last == len(msgs)
        assert stub.frames_sent == 1 and stub.flushes == 1
        await ch.stop()
        assert fake.closed

    asyncio.run(run())


def test_frames_enqueued_after_the_snapshot_wait_for_the_next_commit():
    async def run():
        stub = _StubServer()
        ch, fake = _channel(stub)
        ch.send(("payload", 0))
        ch.send(("payload", 1))
        held = ch.detach()  # the commit snapshots: seq 1-2 are in the file
        ch.send(("payload", 2))  # handled with the write in flight
        assert fake.writes == []
        ch.release(*held)
        assert _frames(fake.writes) == [("d", 1, [("payload", 0), ("payload", 1)])]
        assert [f[1] for f in ch._pending] == [3]  # still held
        _commit(ch)
        assert _seqs(_frames(fake.writes)) == [1, 2, 3]
        assert len(fake.writes) == 2  # one write per commit
        assert ch.detach() is None  # nothing held: nothing to commit
        await ch.stop()

    asyncio.run(run())


def test_a_batch_detached_for_a_dead_connection_is_dropped_not_resent():
    async def run():
        stub = _StubServer()
        ch, old = _channel(stub)
        ch.send(("payload", 0))
        held = ch.detach()
        # the channel redials while the write is in flight: the dial loop
        # sheds what was queued for the dead connection and replays
        # the unacked tail
        new = _connect(ch)
        for seq, msg in ch.arq.tail():
            ch._transmit(seq, msg)
        ch.release(*held)  # bound for ``old``: must not go out on ``new``
        assert old.writes == [] and new.writes == []
        _commit(ch)
        assert _seqs(_frames(new.writes)) == [1]  # once, not twice
        # a failed write puts a live connection's batch back in front ...
        ch.send(("payload", 1))
        held = ch.detach()
        ch.send(("payload", 2))
        ch.reclaim(*held)
        assert [f[1] for f in ch._pending] == [2, 3]
        # ... and forgets a dead connection's
        held = ch.detach()
        ch.transport = None
        ch.reclaim(*held)
        assert ch._pending == []
        await ch.stop()

    asyncio.run(run())


def test_a_lost_connection_stops_the_channel_writing():
    async def run():
        stub = _StubServer()
        ch, fake = _channel(stub)
        conn = fake.protocol
        ch.send(("payload", 0))
        held = ch.detach()
        conn.connection_lost(None)
        assert ch.transport is None and conn.closed.done()
        ch.release(*held)
        ch.send(("payload", 1))  # disconnected: waits in unacked
        assert fake.writes == [] and ch._pending == []
        assert [seq for seq, _ in ch.arq.unacked] == [1, 2]
        # flow control of a connection that is no longer the channel's
        conn.pause_writing()
        assert not ch._paused

    asyncio.run(run())


def test_backpressure_pauses_enqueue_and_replays_without_loss():
    async def run():
        stub = _StubServer()
        ch, fake = _channel(stub)
        fake.buffer_size = 1 << 20  # the next write crosses the high water
        for k in range(3):
            ch.send(("payload", k))
        _commit(ch)
        # the first batch was written, and the transport paused the channel
        assert ch._paused and len(fake.writes) == 1
        for k in range(3, 6):
            ch.send(("payload", k))
        _commit(ch)
        # over the high-water mark nothing new reaches the socket: the
        # skipped frames wait in unacked, not in an unbounded pending list
        assert len(fake.writes) == 1
        assert not ch._pending
        assert ch._stall_from == 4
        # the peer drains us; ``resume_writing`` replays the skipped tail,
        # which queues behind the barrier like any other frame
        fake.drain()
        assert not ch._paused and ch._stall_from is None
        assert [f[1] for f in ch._pending] == [4, 5, 6]
        _commit(ch)
        delivered, last = _receive(_frames(fake.writes))
        assert last == 6
        assert delivered == [("payload", k) for k in range(6)]
        await ch.stop()

    asyncio.run(run())


def test_backpressure_under_chaos_drops_no_loss_no_reorder():
    async def run():
        stub = _StubServer()
        stub.chaos = LiveFaultInjector(
            LinkFaults(drop_prob=0.3, dup_prob=0.2, seed=11)
        )
        stub.chaos.arm(asyncio.get_running_loop())
        ch, fake = _channel(stub)
        total = 20
        for k in range(total):
            ch.send(("payload", k))
            if k == 4:
                # squeeze the transport mid-burst
                _commit(ch)
                fake.buffer_size = 1 << 20
        _commit(ch)
        await asyncio.sleep(0.03)  # the delayed duplicates land
        _commit(ch)
        assert ch._paused and ch._stall_from is not None
        fake.drain()
        # drive acks + aged retransmissions until everything landed
        loop = asyncio.get_running_loop()
        last = 0
        for _ in range(200):
            _commit(ch)
            await asyncio.sleep(0.005)
            _, last = _receive(_frames(fake.writes))
            ch._on_ack(last)
            if last == total:
                break
            ch._retransmit_pass(loop.time() + RETRANSMIT_INTERVAL)
        delivered, last = _receive(_frames(fake.writes))
        assert last == total, f"stalled at seq {last}"
        assert delivered == [("payload", k) for k in range(total)]
        assert stub.chaos.dropped > 0  # the chaos really bit
        await ch.stop()

    asyncio.run(run())


def test_retransmit_pass_is_age_gated():
    async def run():
        stub = _StubServer()
        ch, fake = _channel(stub)
        loop = asyncio.get_running_loop()
        ch.send(("payload", 1))
        ch.send(("payload", 2))
        _commit(ch)
        assert _seqs(_frames(fake.writes)) == [1, 2]
        # both messages were transmitted microseconds ago: a pass now must
        # re-send nothing (the old loop re-sent the entire tail)
        assert ch._retransmit_pass(loop.time()) == 0
        _commit(ch)
        assert _seqs(_frames(fake.writes)) == [1, 2]
        # once their age exceeds the interval they do go out again
        assert ch._retransmit_pass(loop.time() + RETRANSMIT_INTERVAL) == 2
        _commit(ch)
        assert _seqs(_frames(fake.writes)) == [1, 2, 1, 2]
        # acked frames leave the tail and the age map
        ch._on_ack(2)
        assert ch._retransmit_pass(loop.time() + 1.0) == 0
        assert not ch._last_tx
        await ch.stop()

    asyncio.run(run())


def test_stop_logs_real_task_failures(caplog):
    async def run():
        ch = _PeerChannel(_StubServer(), 1)

        async def boom():
            raise RuntimeError("wire codec exploded")

        ch.task = asyncio.ensure_future(boom())
        await asyncio.sleep(0)  # let the task fail before stop()
        await ch.stop()

    with caplog.at_level(logging.ERROR, logger="repro.runtime.asyncio_rt"):
        asyncio.run(run())
    failures = [r for r in caplog.records if "failed during stop" in r.message]
    assert failures, "real task failure was swallowed by stop()"
    assert "wire codec exploded" in str(failures[0].exc_info)


def test_stop_stays_quiet_on_clean_cancellation(caplog):
    async def run():
        ch = _PeerChannel(_StubServer(), 1)

        async def sleeper():
            await asyncio.sleep(60)

        ch.task = asyncio.ensure_future(sleeper())
        await asyncio.sleep(0)
        await ch.stop()

    with caplog.at_level(logging.ERROR, logger="repro.runtime.asyncio_rt"):
        asyncio.run(run())
    assert not [r for r in caplog.records if "failed during stop" in r.message]


def test_batched_cluster_end_to_end_under_chaos(monkeypatch):
    """A real batched cluster under drops/dups stays causally consistent,
    the coalescing actually happens -- the sequenced messages released
    outnumber the data frames written -- and ``frame_stats`` counts every
    frame put on a socket but the clients' hellos."""
    code = example1_code()
    data_frames = messages = frames = 0
    real_write = asyncio.selector_events._SelectorSocketTransport.write

    def write(transport, data):
        nonlocal data_frames, messages, frames
        for f in _frames([bytes(data)]):
            frames += f[0] != "hc"
            if f[0] == "d":
                data_frames += 1
                messages += len(f[2])
        return real_write(transport, data)

    monkeypatch.setattr(
        asyncio.selector_events._SelectorSocketTransport, "write", write
    )

    async def run():
        injector = LiveFaultInjector(
            LinkFaults(drop_prob=0.15, dup_prob=0.1, seed=7)
        )
        cluster = AsyncioCluster(
            code,
            retry=RetryPolicy(timeout=40.0, backoff=1.5, max_retries=8),
            chaos=injector,
        )
        await cluster.start()
        clients = [await cluster.add_client(i % code.N) for i in range(3)]
        for k in range(8):
            op = await clients[k % 3].write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        for c in clients:
            op = await c.read(0)
            assert not op.failed
        injector.disable()
        await cluster.quiesce()
        check_causal_consistency(cluster.history, code.zero_value())
        counted, seen = cluster.frame_stats()["frames_sent"], frames
        await cluster.shutdown()
        return counted, seen

    counted, seen = asyncio.run(run())
    assert 0 < data_frames < messages
    assert counted == seen


# ----------------------------------------------------------------------
# two channels, property


class _Pipe(_FakeTransport):
    """One direction of a fake connection: writes wait until :meth:`flush`
    hands them, in order, to the protocol at the other end (``reader``)
    and drains the transport; squeeze it by raising ``buffer_size``."""

    def __init__(self, protocol, log: list):
        super().__init__(protocol)
        self.reader = None
        self.delivered = 0  # writes handed over so far
        self.log = log

    def write(self, data):
        assert not self.closed, "a write on a closed connection"
        super().write(data)
        self.log.append(self.writes[-1])

    def flush(self):
        data = b"".join(self.writes[self.delivered :])
        self.delivered = len(self.writes)
        if data and not self.closed:
            self.reader.data_received(data)
        self.drain()


class _Node:
    """The receiving and committing half of :class:`AsyncioServer` -- its
    real methods -- over just the state they read; a commit is
    :meth:`commit` (the snapshot) and, any time later, :meth:`land`.
    Messages are ``(node, incarnation, seq, payload)``."""

    _on_hello = AsyncioServer._on_hello
    _peer_frame = AsyncioServer._peer_frame
    _detach_held = AsyncioServer._detach_held
    _release = AsyncioServer._release
    _write_frame = AsyncioServer._write_frame
    detector = repair = None
    halted = False
    _epoch = 0

    def __init__(self, node_id: int, inc: int, chaos, durable: set):
        self.node_id, self.inc, self.chaos = node_id, inc, chaos
        self.core = SimpleNamespace(cfg_epoch=0)
        self.reconfig = SimpleNamespace(frame_admissible=lambda epoch: True)
        self.commit_chain: list = []
        self.frames_sent = self.flushes = self.activity = 0
        self.frames_corrupt = 0
        self._recv: dict = {}  # peer -> ArqReceiver, as on a server
        self._peer_conn: dict = {}
        self._held_replies: list = []
        self._held_acks: dict = {}
        self._clients: dict = {}
        self._inbound: set = set()
        self._channels: dict = {}
        self._audit_log: list = []
        #: ids delivered here, in order; the first ``self._durable_upto``
        #: of them are on disk, and go into ``durable``, shared by every
        #: incarnation of this node
        self.delivered: list = []
        self.durable = durable
        self._in_flight = None
        self._stream: dict = {}  # (node, inc) -> last seq delivered here

    def _persist(self):
        pass

    def _schedule_commit(self):
        pass

    def _defer_commit(self):
        pass

    def _deliver(self, src, msg):
        node, inc, seq, _payload = msg
        last = self._stream.get((node, inc))
        assert last is None or seq == last + 1, f"{msg[:3]} after seq {last}"
        self._stream[(node, inc)] = seq
        self.delivered.append(msg[:3])

    def commit(self):
        if self._in_flight is None:
            self._in_flight = (self._detach_held(), len(self.delivered))

    def land(self):
        if self._in_flight is not None:
            batch, upto = self._in_flight
            self._in_flight = None
            self.durable.update(self.delivered[:upto])
            self._release(batch)


class _Fates:
    """The chaos injector's interface, dealing hypothesis-drawn fates."""

    def __init__(self, fates):
        self.fates = list(fates)
        self.on = True

    def fate(self, src, dst):
        if self.on and self.fates:
            return self.fates.pop()
        return None

    def damage(self, blob, src, dst, k):
        raw = bytearray(blob)
        raw[-1] ^= 0x10  # inside the CRC-covered body
        return bytes(raw)


class _Pair:
    """Two nodes, a channel each way, and the fake connections between."""

    def __init__(self, fates):
        self.chaos = _Fates(fates)
        self.durable = [set(), set()]
        self.incs = [0, 0]
        self.sent: list = [[], []]  # ids of the current incarnation's sends
        self.log: list[bytes] = []  # every write on a data connection
        self.nodes = [self._boot(0), self._boot(1)]
        self.conns: dict = {}
        for a in (0, 1):
            self.dial(a)

    def _boot(self, i):
        node = _Node(i, self.incs[i], self.chaos, self.durable[i])
        ch = node._channels[1 - i] = _PeerChannel(node, 1 - i)
        real = ch._on_ack

        def on_ack(upto, ch=ch, real=real):
            for seq, msg in ch.arq.unacked:
                if seq <= upto:
                    assert msg[:3] in self.durable[1 - i], (
                        f"ack {upto} prunes {msg[:3]}, never durable at {1 - i}"
                    )
            real(upto)

        ch._on_ack = on_ack
        return node

    def dial(self, a):
        """Connect ``a``'s channel to the other node, as ``_redial`` does."""
        na, nb = self.nodes[a], self.nodes[1 - a]
        ch = na._channels[1 - a]
        dialled, inbound = _Dialed(ch), _Inbound(nb)
        out, back = _Pipe(dialled, self.log), _Pipe(inbound, [])
        out.reader, back.reader = inbound, dialled
        dialled.connection_made(out)
        inbound.connection_made(back)
        ch._connected(dialled)
        self.conns[a] = (out, back, dialled, inbound)

    def drop(self, a):
        """``a``'s channel loses its connection; bytes in flight are lost."""
        for pipe in self.conns[a][:2]:
            pipe.delivered = len(pipe.writes)
            pipe.close()
        for proto in self.conns[a][2:]:
            proto.connection_lost(None)

    def wipe(self, i):
        """Node ``i`` crashes, loses its disk and restarts empty."""
        for a in (0, 1):
            self.drop(a)
        self.incs[i] += 1
        self.sent[i] = []
        self.nodes[i] = self._boot(i)
        for a in (0, 1):
            self.dial(a)

    def send(self, a, size):
        ch = self.nodes[a]._channels[1 - a]
        msg = (a, self.incs[a], ch.arq.seq + 1, bytes(size))
        self.sent[a].append(msg[:3])
        ch.send(msg)

    async def settle(self):
        """No more chaos: retransmit, commit and deliver until both
        channels are empty and every send is delivered."""
        self.chaos.on = False
        loop = asyncio.get_running_loop()
        for _ in range(50):
            await asyncio.sleep(0.003)  # delayed fates land
            for node in self.nodes:
                node._channels[1 - node.node_id]._retransmit_pass(
                    loop.time() + RETRANSMIT_INTERVAL
                )
                node.commit()
                node.land()
            for out, back, *_ in self.conns.values():
                out.flush()
                back.flush()
            if all(
                not n._channels[1 - n.node_id].arq.unacked
                and not n._channels[1 - n.node_id]._pending
                for n in self.nodes
            ):
                break
        for a in (0, 1):
            ch = self.nodes[a]._channels[1 - a]
            arq = ch.arq
            assert not arq.unacked, f"channel {a} stalled at {arq.acked}/{arq.seq}"
            receiver = self.nodes[1 - a]._recv.get(a)
            assert arq.seq == 0 or (
                receiver is not None and receiver.last == arq.seq
            )
            every = self.durable[1 - a] | set(self.nodes[1 - a].delivered)
            assert set(self.sent[a]) <= every


#: message sizes on both sides of ``wire.RUN_BUDGET``
_SIZES = [8, 4096, 350_000, 700_000, wire.RUN_BUDGET + 8]

#: step kinds, repeated to weight the draw
_OPS = (
    ["send"] * 4 + ["commit", "land"] * 2 + ["flush"] * 4
    + ["gossip", "squeeze", "retransmit", "reset", "wipe", "wait"]
)

#: ``(kind, side, arg)``: ``arg`` picks a size for a send, and the
#: direction (data or acks) for a flush of ``side``'s connection
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(_OPS), st.integers(0, 1), st.integers(0, len(_SIZES) - 1)
    ),
    max_size=50,
)

_FATES = st.lists(
    st.builds(
        FrameFate,
        drop=st.booleans(),
        dup=st.booleans(),
        delay_ms=st.sampled_from([0.0, 1.0]),
        corrupt=st.booleans(),
    ),
    max_size=30,
)


def _runs_within_budget(log: list[bytes]) -> None:
    data, pos = b"".join(log), 0
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        blob, pos = data[pos : pos + 4 + length], pos + 4 + length
        try:
            f = wire.decode_frame(blob)
        except wire.FrameCorrupt:
            continue  # a damaged blob: one message, always
        if f[0] == "d" and len(f[2]) > 1:
            body = sum(len(wire.encode(m)) for m in f[2])
            assert body <= wire.RUN_BUDGET, f"run of {body} bytes"


@settings(deadline=None)
@given(steps=_STEPS, fates=_FATES)
# node 0 owes node 1 an ack for 1's old connection when 1 loses its disk;
# 0's replay to the new 1 carries it, and the new 1 has a message out
@example(
    steps=[
        ("send", 0, 0), ("send", 1, 0), ("commit", 1, 0), ("land", 1, 0),
        ("flush", 1, 0), ("wipe", 1, 0), ("send", 1, 0), ("commit", 0, 0),
        ("land", 0, 0), ("flush", 0, 0),
    ],
    fates=[],
)
def test_two_channels_deliver_once_in_order_and_never_ack_across_connections(
    steps, fates
):
    async def run():
        pair = _Pair(fates)
        loop = asyncio.get_running_loop()
        for op, side, arg in steps:
            node = pair.nodes[side]
            ch = node._channels[1 - side]
            if op == "send":
                pair.send(side, _SIZES[arg])
            elif op == "gossip":
                ch.send_gossip(("hb", side))
            elif op == "commit":
                node.commit()
            elif op == "land":
                node.land()
            elif op == "squeeze":
                pair.conns[side][0].buffer_size = 1 << 20
            elif op == "retransmit":
                ch._retransmit_pass(loop.time() + RETRANSMIT_INTERVAL)
            elif op == "reset":
                pair.drop(side)
                pair.dial(side)
            elif op == "flush":
                pair.conns[side][arg % 2].flush()
            elif op == "wipe":
                pair.wipe(side)
            else:
                await asyncio.sleep(0.002)
        await pair.settle()
        _runs_within_budget(pair.log)

    asyncio.run(run())


def test_a_reconnect_replaying_megabytes_goes_out_as_several_ordered_frames():
    async def run():
        pair = _Pair([])
        a = pair.nodes[0]
        ch = a._channels[1]
        pair.drop(0)
        value = np.arange(2048, dtype=np.uint16)  # 4 KiB
        for k in range(600):
            ts = VectorClock((k + 1, 0))
            ch.send(App(k % 3, value, Tag(ts, 7)))
        assert len(ch.arq.unacked) == 600 and not ch._pending
        pair.log.clear()
        pair.dial(0)  # the hello, and the whole tail replayed behind it
        a.commit()
        a.land()
        hello, *runs = _frames(pair.log)
        assert hello[0] == "hp" and hello[4] == 600
        assert 3 <= len(runs) <= 4 and len(pair.log) == 2  # hello, one flush
        assert _seqs(runs) == list(range(1, 601))
        _runs_within_budget(pair.log)

    asyncio.run(run())
