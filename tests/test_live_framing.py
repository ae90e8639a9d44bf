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
* **malformed input** -- a hello or frame of the wrong shape closes the
  connection without reaching the loop's exception handler, and the
  cluster goes on serving;
* **no task per connection** -- a running cluster has one task per peer
  channel (its dial loop) and one per client, and no reader or flusher
  tasks.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.ec.codes import example1_code
from repro.runtime import wire
from repro.runtime.asyncio_rt import AsyncioCluster, _Framed


class _Transport:
    def __init__(self):
        self.closed = False

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class _Counter:
    frames_corrupt = 0


class _Recorder(_Framed):
    """The shared splitter, delivering into a list."""

    def __init__(self):
        super().__init__(_Counter())
        self.frames: list = []
        self.connection_made(_Transport())

    def frame_received(self, frame) -> None:
        self.frames.append(frame)


_SAMPLE = [
    ("hp", 1, 0, 0, 3),
    ("d", 1, ("payload", b"\x00" * 300)),
    ("g", None),
    ("d", 2, np.arange(7, dtype=np.uint16)),
    ("a", 70000),
    ("d", 3, ""),
]


def _same(got: list, want: list) -> bool:
    return wire.encode_frames(got) == wire.encode_frames(want)


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
    assert rec.frames[3][2].tolist() == list(range(7))


def test_a_damaged_frame_is_skipped_and_counted_between_good_ones():
    damaged = bytearray(wire.encode_frame(("d", 2, "rotten")))
    damaged[-1] ^= 0x10  # inside the CRC-covered body
    stream = (
        wire.encode_frame(("d", 1, "before"))
        + bytes(damaged)
        + wire.encode_frame(("d", 3, "after"))
    )
    for cut in range(len(stream) + 1):
        rec = _Recorder()
        rec.data_received(stream[:cut])
        rec.data_received(stream[cut:])
        assert rec.frames == [("d", 1, "before"), ("d", 3, "after")], cut
        assert rec.server.frames_corrupt == 1
        assert not rec.transport.closed


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


def test_malformed_hellos_and_frames_close_the_connection_quietly():
    code = example1_code()

    async def run():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
        cluster = AsyncioCluster(code)
        await cluster.start()
        server = cluster.servers[0]
        for hello in (7, ("hp",), ("hc",), ("hp", 1, "x", 0, 0)):
            assert await _rejected(server, hello), hello
        # a well-formed peer hello, then a data frame without an int seq
        hello = ("hp", 1, 0, server.core.cfg_epoch, 0)
        assert await _rejected(server, hello, ("d", "x", "msg"))
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

    async def run():
        cluster = AsyncioCluster(code)
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
        return names, channels

    names, channels = asyncio.run(run())
    assert channels == 20
    assert not [n for n in names if "_flush_loop" in n or "_on_connection" in n]
    assert names.count("_PeerChannel._run") == channels
    assert names.count("AsyncioClient._run") == 2
    assert len(names) <= channels + 2  # 64 with a reader task per connection

