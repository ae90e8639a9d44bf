"""Batched flush, backpressure, and retransmit age gating on the live ARQ.

Regression tests for the throughput-first send path:

* **coalescing** -- frames one commit releases leave in a single
  ``transport.write`` of concatenated frames that decodes back to the
  exact message sequence (and nothing leaves before the release);
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
  swallowed together with ``CancelledError``.

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

from repro.consistency.causal import check_causal_consistency
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.runtime import wire
from repro.runtime.asyncio_rt import (
    RETRANSMIT_INTERVAL,
    AsyncioCluster,
    _Dialed,
    _PeerChannel,
)
from repro.runtime.chaos_rt import LiveFaultInjector
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


def _receive(frames: list) -> tuple[list, int]:
    """Replay the listener's watermark + out-of-order buffer over frames."""
    last, ooo, out = 0, {}, []
    for f in frames:
        if f[0] != "d":
            continue
        seq, msg = f[1], f[2]
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
        # one commit, one write -- not one write per frame
        assert len(fake.writes) == 1
        frames = _frames(fake.writes)
        assert [f[2] for f in frames] == msgs
        delivered, last = _receive(frames)
        assert delivered == msgs and last == len(msgs)
        assert stub.frames_sent == 5 and stub.flushes == 1
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
        assert [f[1] for f in _frames(fake.writes)] == [1, 2]
        assert [f[1] for f in ch._pending] == [3]  # still held
        _commit(ch)
        assert [f[1] for f in _frames(fake.writes)] == [1, 2, 3]
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
        # ``unacked``
        new = _connect(ch)
        for seq, msg in list(ch.unacked):
            ch._transmit(seq, msg)
        ch.release(*held)  # bound for ``old``: must not go out on ``new``
        assert old.writes == [] and new.writes == []
        _commit(ch)
        assert [f[1] for f in _frames(new.writes)] == [1]  # once, not twice
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
        assert [seq for seq, _ in ch.unacked] == [1, 2]
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
        sent_before = len(_frames(fake.writes))
        assert sent_before == 2  # one frame per released message
        # both frames were transmitted microseconds ago: a pass now must
        # re-send nothing (the old loop re-sent the entire tail)
        assert ch._retransmit_pass(loop.time()) == 0
        _commit(ch)
        assert len(_frames(fake.writes)) == sent_before
        # once their age exceeds the interval they do go out again
        assert ch._retransmit_pass(loop.time() + RETRANSMIT_INTERVAL) == 2
        _commit(ch)
        assert len(_frames(fake.writes)) == sent_before + 2
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


def test_batched_cluster_end_to_end_under_chaos():
    """A real batched cluster under drops/dups stays causally consistent,
    and the flush coalescing actually happens (flushes < frames)."""
    code = example1_code()

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
        stats = cluster.frame_stats()
        assert stats["flushes"] < stats["frames_sent"]
        await cluster.shutdown()

    asyncio.run(run())
