"""Frames without coroutines: the live server's connection protocols.

Every connection a live server accepts or dials is one ``asyncio.Protocol``
whose ``data_received`` splits the byte stream into frames
(:class:`~repro.runtime.asyncio_rt._Framed`):

* **splitting** -- a stream of several frames yields the same delivered
  sequence however the transport chops it, at every byte offset and one
  byte at a time;
* **damage** -- a frame that fails its CRC is skipped and counted, and the
  frames on either side of it are delivered; a length prefix above
  ``wire.MAX_FRAME_BYTES`` closes the connection;
* **malformed input** -- a hello or frame of the wrong shape (the old
  five-field peer hello, a run frame without a non-empty message list,
  a ``first`` below 1, an ack that is not two ints) closes the connection
  without reaching the loop's exception handler, while a well-formed
  one-message run is acked, and the cluster goes on serving; a client
  closes a connection that sends it a malformed reply and redials;
* **one-shot and push connections** -- a control RPC takes the first
  well-formed reply; the audit stream writes what is durable and holds
  records while its transport is paused;
* **no task per connection** -- a running cluster has one task per peer
  channel, client and audit stream, each the one dial loop, and no
  reader, flusher or poller tasks.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np

from repro.consistency.online import AuditOp
from repro.core.messages import RepairRequest
from repro.ec.codes import example1_code
from repro.protocol.client_core import ClientCore, RetryPolicy
from repro.runtime import wire
from repro.runtime.asyncio_rt import (
    AsyncioClient,
    AsyncioCluster,
    _AuditStream,
    _Framed,
    _Reply,
)
from repro.runtime.auditor import OnlineAuditor

from tests.test_live_batching import _frames


class _Transport:
    def __init__(self):
        self.closed = False

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class _Counter:
    frames_corrupt = 0


def _in_loop(test):
    """Run a synchronous test inside a running loop: a protocol binds its
    ``closed`` future to the loop that creates it."""

    @functools.wraps(test)
    def run():
        async def body():
            test()

        asyncio.run(body())

    return run


class _Recorder(_Framed):
    """The shared splitter, delivering into a list."""

    def __init__(self):
        super().__init__(_Counter())
        self.frames: list = []
        self.connection_made(_Transport())

    def frame_received(self, frame) -> None:
        self.frames.append(frame)


_SAMPLE = [
    ("hp", 1, 0, 0, 3, 1 << 62),
    ("d", 1, [("payload", b"\x00" * 300)]),
    ("g", None),
    ("d", 2, [np.arange(7, dtype=np.uint16), "x"]),
    ("a", 70000),
    ("d", 4, [""], 1 << 62, 70000),
]


class _Sink(_Transport):
    def __init__(self):
        super().__init__()
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))


def _same(got: list, want: list) -> bool:
    return wire.encode_frames(got) == wire.encode_frames(want)


@_in_loop
def test_a_stream_split_at_every_byte_offset_delivers_the_same_frames():
    stream = wire.encode_frames(_SAMPLE)
    for cut in range(len(stream) + 1):
        rec = _Recorder()
        rec.data_received(stream[:cut])
        rec.data_received(stream[cut:])
        assert _same(rec.frames, _SAMPLE), cut
        assert not rec._buf and not rec.transport.closed
    rec = _Recorder()
    for k in range(len(stream)):
        rec.data_received(stream[k : k + 1])
    assert _same(rec.frames, _SAMPLE)
    # decoded arrays own their bytes: the buffer moved on underneath them
    assert rec.frames[3][2][0].tolist() == list(range(7))


@_in_loop
def test_a_damaged_frame_is_skipped_and_counted_between_good_ones():
    damaged = bytearray(wire.encode_frame(("d", 2, ["rotten"])))
    damaged[-1] ^= 0x10  # inside the CRC-covered body
    stream = (
        wire.encode_frame(("d", 1, ["before"]))
        + bytes(damaged)
        + wire.encode_frame(("d", 3, ["after"]))
    )
    for cut in range(len(stream) + 1):
        rec = _Recorder()
        rec.data_received(stream[:cut])
        rec.data_received(stream[cut:])
        assert rec.frames == [("d", 1, ["before"]), ("d", 3, ["after"])], cut
        assert rec.owner.frames_corrupt == 1
        assert not rec.transport.closed


@_in_loop
def test_an_oversize_length_prefix_closes_the_connection():
    rec = _Recorder()
    good = wire.encode_frame(("d", 1, "ok"))
    oversize = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    rec.data_received(good + oversize + good)
    assert rec.frames == [("d", 1, "ok")]
    assert rec.transport.closed
    # an undecodable frame (a wire version nobody speaks) closes it too
    rec = _Recorder()
    alien = bytearray(good)
    alien[4] = wire.WIRE_VERSION + 1
    rec.data_received(bytes(alien) + good)
    assert rec.frames == [] and rec.transport.closed


@_in_loop
def test_a_control_reply_is_the_first_well_formed_one():
    conn = _Reply(None)
    conn.connection_made(_Transport())
    damaged = bytearray(wire.encode_frame(("m", "rotten")))
    damaged[-1] ^= 0x10
    conn.data_received(
        bytes(damaged)
        + wire.encode_frames([("q",), ("m",), ("m", "ok"), ("m", "late")])
    )
    assert conn.reply == ("m", "ok") and conn.transport.closed


class _AuditLog:
    """What an audit stream reads of its server."""

    audit_node = 3
    frames_corrupt = 0

    def __init__(self, records):
        self._audit_log = records
        self._audit_durable = 1
        self._audit = None


@_in_loop
def test_the_audit_stream_pushes_durable_records_and_holds_them_while_paused():
    records = [AuditOp(3, k, "apply", 0, ((k,), 0)) for k in (1, 2, 3)]
    log = _AuditLog(records)
    conn = _AuditStream(log)
    sink = _Sink()
    conn.connection_made(sink)
    conn.attach()  # hello, then the durable prefix of the log
    assert log._audit is conn
    assert _same(_frames(sink.writes), [("ha", 3), ("r", records[0])])
    conn.pause_writing()
    log._audit_durable = 3
    conn.push()  # over the high-water mark: the records wait in the log
    assert len(sink.writes) == 2
    conn.resume_writing()
    assert _same(_frames(sink.writes[2:]), [("r", r) for r in records[1:]])
    # the auditor never speaks: anything it sends closes the connection
    conn.frame_received(("x",))
    assert sink.closed


async def _rejected(server, *frames) -> bool:
    """Send ``frames`` on a fresh connection; whether the server closed it."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(wire.encode_frames(frames))
        await writer.drain()
        rest = await asyncio.wait_for(reader.read(), 5.0)
        return rest == b""  # EOF, and no reply
    finally:
        writer.close()


async def _answer(server, *frames):
    """Send ``frames`` on a fresh connection; the first frame back."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(wire.encode_frames(frames))
        await writer.drain()
        head = await asyncio.wait_for(reader.readexactly(4), 5.0)
        length = int.from_bytes(head, "big")
        return wire.decode_body(await asyncio.wait_for(reader.readexactly(length), 5.0))
    finally:
        writer.close()


def test_malformed_hellos_and_frames_close_the_connection_quietly():
    code = example1_code()

    async def run():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
        cluster = AsyncioCluster(code)
        await cluster.start()
        server = cluster.servers[0]
        epoch = server.core.cfg_epoch
        for hello in (
            7, ("hp",), ("hc",), ("hp", 1, "x", 0, 0, 5),
            ("hp", 1, 0, epoch, 0),  # the five-field hello of older builds
            ("hp", 1, 0, epoch, 0, None),
        ):
            assert await _rejected(server, hello), hello
        # a well-formed hello from a peer id nobody uses (so no real
        # channel's watermark moves), then a data frame of the wrong shape
        hello = ("hp", 7, 0, epoch, 1, 42)
        msg = RepairRequest(7, {}, None)  # dropped: no repair overlay here
        for frame in (
            ("d", "x", [msg]),  # seq not an int
            ("d", 1, msg),  # payload not a list
            ("d", 1, (msg,)),
            ("d", 1, []),  # empty run
            ("d", 0, [msg]),  # first below 1
            ("d", -3, [msg]),
            ("d", 1, [msg], 42),  # four elements
            ("d", 1, [msg], "42", 1),  # conn not an int
            ("d", 1, [msg], 42, None),  # upto not an int
            ("d", 1, [msg], 42, 1, 0),
        ):
            assert await _rejected(server, hello, frame), frame
        # the positive control: the same hello and a one-message run are
        # delivered and acked
        assert await _answer(server, hello, ("d", 1, [msg])) == ("a", 1)
        # ... and a client hello, then a frame of no known kind
        assert await _rejected(server, ("hc", 99), ("q", 1))
        await asyncio.sleep(0.05)
        # the cluster still serves a write and a read
        client = await cluster.add_client(0)
        op = await client.write(0, cluster.value(5))
        assert not op.failed
        op = await client.read(0)
        assert not op.failed and op.value is not None
        assert np.array_equal(op.value, cluster.value(5))
        await cluster.shutdown()
        return reported

    assert asyncio.run(run()) == []


def test_a_cluster_runs_one_task_per_peer_channel_and_client():
    code = example1_code()

    async def run(audit: bool):
        auditor = None
        if audit:
            auditor = OnlineAuditor()
            await auditor.start()
        cluster = AsyncioCluster(
            code, audit_addr=None if auditor is None else auditor.address
        )
        await cluster.start()
        clients = [await cluster.add_client(i) for i in range(2)]
        op = await clients[0].write(0, cluster.value(3))
        assert not op.failed
        await cluster.quiesce()
        me = asyncio.current_task()
        names = [
            t.get_coro().__qualname__ for t in asyncio.all_tasks() if t is not me
        ]
        channels = sum(len(s._channels) for s in cluster.servers)
        await cluster.shutdown()
        if auditor is not None:
            await auditor.close()
        return names, channels

    for audit, extra in ((False, 0), (True, code.N)):
        names, channels = asyncio.run(run(audit))
        assert channels == 20
        # one dial loop per peer channel, per client and per audit stream,
        # and nothing else: no reader, flusher or poller tasks
        assert names == ["_redial"] * (channels + 2 + extra), audit


def test_a_malformed_reply_makes_the_client_redial_not_die():
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(code)
        await cluster.start()
        server = cluster.servers[0]
        streams, pipes = [], []

        async def pipe(reader, writer):
            try:
                while data := await reader.read(65536):
                    writer.write(data)
                    await writer.drain()
            except OSError:
                pass
            finally:
                writer.close()

        async def rogue(reader, writer):
            # 1st connection: a reply that is not a tuple; 2nd: an ``m``
            # frame without its message; from the 3rd on: the real server
            streams.append(writer)
            if len(streams) <= 2:
                writer.write(wire.encode_frame((7, ("m",))[len(streams) - 1]))
                return
            up_reader, up_writer = await asyncio.open_connection(
                server.host, server.port
            )
            streams.append(up_writer)
            pipes.append(asyncio.ensure_future(pipe(reader, up_writer)))
            pipes.append(asyncio.ensure_future(pipe(up_reader, writer)))

        listener = await asyncio.start_server(rogue, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        retry = RetryPolicy(timeout=100.0, backoff=1.0, max_retries=20)
        client = AsyncioClient(
            ClientCore(99, 0, history=cluster.history, retry=retry),
            ("127.0.0.1", port),
        )
        await client.start()
        write = await asyncio.wait_for(client.write(0, cluster.value(4)), 10.0)
        read = await asyncio.wait_for(client.read(0), 10.0)
        await client.close()
        listener.close()
        for writer in streams:
            writer.close()
        await asyncio.gather(*pipes)
        value = cluster.value(4)
        await cluster.shutdown()
        return len(streams), write, read, value

    dialled, write, read, value = asyncio.run(run())
    assert not write.failed and not read.failed
    assert np.array_equal(read.value, value)
    assert dialled >= 4  # two rejected connections, then a proxied one
