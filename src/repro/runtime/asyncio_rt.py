"""Real-network runtime: the sans-I/O cores on asyncio TCP sockets.

This module proves the sans-I/O refactor by running the *same*
:class:`~repro.protocol.server_core.ServerCore` and
:class:`~repro.protocol.client_core.ClientCore` objects that power the
discrete-event simulator on an actual asyncio event loop, with real
length-prefixed frames (:mod:`repro.runtime.wire`) over real localhost
sockets, monotonic-clock timers, and file-backed durable checkpoints.

Topology
--------
Each :class:`AsyncioServer` owns one TCP listener.  Every connection --
peer channels, clients, the audit stream, control RPCs -- is one
:class:`asyncio.Protocol` on the frame splitter :class:`_Framed`, handing
each frame to a synchronous handler; no task per connection, and every
dialled one is kept up by the one dial loop :func:`_redial`.  Two kinds
arrive on a server's listener, told apart by a hello frame (a malformed
one closes it):

* ``("hp", i, acked, cfg_epoch, seq, conn)`` -- the *peer data channel*
  from server ``i``: server ``i`` dials every other server and owns the
  directed channel ``i -> j``.  Data frames ``("d", first, [msg, ...])``
  -- a run of consecutive sequence numbers, one frame per commit unless
  it passes ``wire.RUN_BUDGET`` -- flow dialer -> listener; cumulative
  acks ``("a", seq)`` flow back on the same socket, or ride in ``j``'s
  own run to ``i`` as ``("d", first, msgs, conn, seq)``: ``conn``, fresh
  and random per dialled connection, names the connection -- and so the
  incarnation and sequence space -- the ack is for; ``i`` applies it only
  to its current one.
  ``acked`` and ``seq`` bracket the dialer's unacked tail: a listener
  whose watermark is outside them resynchronises (``ArqReceiver.hello``).
  ``cfg_epoch`` is the dialer's membership epoch: a listener that has
  moved to a newer configuration *fences* the connection (rejecting every
  frame it would have carried) after answering with its commit chain
  (``("rc", commits)``) so a merely-behind peer can catch up and redial.
* ``("hc", c)`` -- a client connection: request/reply frames ``("m", msg)``
  flow both ways.  Clients get no ARQ; the client retry policy plus
  server-side opid deduplication already make requests crash-tolerant.

Reliable FIFO channels (the paper's network model) are realised per peer
channel on the ARQ core the simulator shares (:mod:`repro.protocol
.arq_core`): the dialer's send half numbers messages and keeps them until
acked, and the dialer replays the unacked tail on every reconnect; the
listener's receive half delivers in sequence order, deduplicates, and
moves the watermark together with the handler's state change.  Channel
state (send seq + unacked tail, receive watermarks) rides inside each
:class:`~repro.core.snapshot.ServerCheckpoint`, in the simulator's shape,
so a restarted server resumes its channels without duplicating or
dropping protocol messages.

Durability: pipelined group commit behind an output barrier
-----------------------------------------------------------
A handler's ``PersistEffect`` does not touch the disk.  It marks the server
dirty; everything the handlers want to send -- client replies, the
cumulative ack owed to each peer, peer data frames, gossip, reconnect
replays and retransmits -- is *held* until a commit covers it.  Only held
output that someone waits on asks for one :meth:`AsyncioServer._commit`:
a client reply, a peer data frame, gossip, an audit record.  Dirty state
and owed acks ride the next such commit or the server's next GC slot
(:meth:`AsyncioServer._on_timer` commits whatever waits), so a delivery
whose only output is its ack costs no write of its own, and an ack waits
one ``gc_interval`` at most -- acks only trim the sender's send log.  A
server without a GC period commits on every delivery.  A commit is three
steps.  *Snapshot*, on the loop: encode **one**
checkpoint covering everything handled so far straight from the live
objects (skipped when the file already holds that state, those send
sequence numbers and those receive watermarks) and, in the same callback,
detach everything held at that instant into one batch -- each ack with the
watermark the snapshot holds.  *Disk*, on a worker thread: the encoded
bytes overwrite the server's checkpoint slot that does not hold the newest
checkpoint, one fsync of that file, then a truncate of the other slot
(:class:`FileDurableStore`), while the loop goes on handling events (of
this server and of the others sharing the loop), whose output is held for
the next commit; at most one commit is in flight per
server, so batches grow exactly when the disk is slow.  *Release*, back on
the loop: write that batch's output, in order.  So no byte that reveals a
state change or acknowledges a delivered frame leaves the process before a
checkpoint containing that state and that watermark is durable: a client
never sees a ``WriteAck`` for a write a crash can forget, and a peer never
prunes a frame the receiver can lose.  A crash before the release drops
the held output with the volatile state -- nobody saw either -- and leaves
the slots holding the old checkpoint or the new one; deliveries that only
waited for a GC slot were never acked, and their senders replay them.

Time is ``loop.time()`` in milliseconds, so the cores see the same unit the
simulator uses; effect timers map to ``loop.call_at`` guarded by an
incarnation epoch (a timer armed before a crash never fires into the next
incarnation).  The periodic GC tick fires in a fixed per-server slot of its
period (:meth:`AsyncioServer._gc_slot`), so servers sharing one loop stay
evenly out of phase.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import os
import secrets
import struct
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..consistency.history import History, Operation
from ..consistency.online import AuditOp
from ..core.messages import (
    DigestMsg,
    Heartbeat,
    ReconfigCommit,
    ReconfigPropose,
    RepairRequest,
    RepairResponse,
)
from ..core.snapshot import (
    CorruptCheckpoint,
    ServerCheckpoint,
    capture_server_state,
    restore_server_state,
)
from ..ec.code import LinearCode
from ..ec.codes import extend_code
from ..protocol.arq_core import (
    ArqReceiver,
    ArqSender,
    restore_channels,
    snapshot_channels,
)
from ..protocol.client_core import ClientCore, HomeServerUnavailable, RetryPolicy
from ..protocol.effects import (
    CancelTimerEffect,
    HomeServerSwitchEffect,
    LogEffect,
    MembershipChangedEffect,
    OpSettledEffect,
    PeerAliveEffect,
    PeerConfirmedDeadEffect,
    PeerSuspectedEffect,
    PersistEffect,
    ReplyEffect,
    SendEffect,
    SetTimerEffect,
)
from ..protocol.failure_detector import FailureDetectorConfig, FailureDetectorCore
from ..protocol.reconfig_core import ReconfigCore, validate_membership
from ..protocol.repair_core import RepairConfig, RepairCore
from ..protocol.scrub_core import ScrubConfig, ScrubCore
from ..protocol.server_core import ServerConfig, ServerCore
from ..sim.faults import FaultPlan
from . import wire
from .chaos_rt import LiveFaultInjector

__all__ = [
    "FileDurableStore",
    "AsyncioServer",
    "AsyncioClient",
    "AsyncioCluster",
]

log = logging.getLogger(__name__)

#: seconds between reconnect attempts of every dialled connection
RECONNECT_DELAY = 0.02

#: seconds ``AsyncioClient.start`` waits for its first connection
CLIENT_START_TIMEOUT = 2.0

#: seconds between retransmissions of the unacked tail while chaos is
#: active (plain TCP never loses frames, so the loop only runs under an
#: injector; the receiver's watermark dedups the repeats)
RETRANSMIT_INTERVAL = 0.05

#: failure-detector effects -> the ``detector_log`` kind they record
_PEER_TRANSITIONS = {
    PeerSuspectedEffect: "suspect",
    PeerAliveEffect: "alive",
    PeerConfirmedDeadEffect: "dead",
}

_U32 = struct.Struct(">I")


def _kind(frame) -> str | None:
    """A frame's kind, or ``None`` for anything but a tuple led by a str."""
    if type(frame) is tuple and frame and type(frame[0]) is str:
        return frame[0]
    return None


class _Framed(asyncio.Protocol):
    """One connection: bytes in, every whole frame out to the subclass's
    ``frame_received``, in order, before ``data_received`` returns.  A
    frame failing its CRC goes to :meth:`frame_corrupt`; an oversize
    length prefix or an undecodable frame closes the connection.
    ``closed`` resolves when the connection is lost."""

    def __init__(self, owner):
        #: whoever counts this connection's CRC drops (``frames_corrupt``)
        self.owner = owner
        self.transport: asyncio.Transport | None = None
        self.closed = asyncio.get_running_loop().create_future()
        self._buf = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(None)

    def frame_corrupt(self) -> None:
        """Skip and count: a drop, which the ARQ or a retry re-sends."""
        self.owner.frames_corrupt += 1

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        pos, size = 0, len(buf)
        with memoryview(buf) as view:
            while size - pos >= 4 and not self.transport.is_closing():
                (length,) = _U32.unpack_from(view, pos)
                if length > wire.MAX_FRAME_BYTES:
                    self.transport.close()
                    return
                end = pos + 4 + length
                if end > size:
                    break
                # a copy: decoded ndarrays are views over the body
                body = bytes(view[pos + 4 : end])
                pos = end
                try:
                    frame = wire.decode_body(body)
                except wire.FrameCorrupt:
                    self.frame_corrupt()
                    continue
                except wire.WireError:
                    self.transport.close()
                    return
                self.frame_received(frame)
        del buf[:pos]


async def _redial(target, on_connected) -> None:
    """The one dial loop, of peer channels, clients and audit streams:
    dial ``target()``'s ``(protocol factory, host, port)``, hand the
    connection to ``on_connected`` unless already lost, redial
    ``RECONNECT_DELAY`` after it closes; cancelling closes it."""
    loop = asyncio.get_running_loop()
    while True:
        try:
            factory, host, port = target()
            transport, conn = await loop.create_connection(factory, host, port)
        except OSError:
            pass
        else:
            try:
                if not conn.closed.done():
                    on_connected(conn)
                await conn.closed
            finally:
                transport.close()
        await asyncio.sleep(RECONNECT_DELAY)


class _Reply(_Framed):
    """A one-shot control connection: the first ``("m", msg)`` frame is
    the reply and closes it; any other, a damaged one too, is skipped."""

    reply = None

    def frame_received(self, frame) -> None:
        if _kind(frame) == "m" and len(frame) == 2:
            self.reply = frame
            self.transport.close()

    def frame_corrupt(self) -> None:
        pass


async def _control_rpc(host: str, port: int, ctrl_id: int, msg, timeout: float):
    """Send ``msg`` to a server on a short-lived client connection (never
    epoch-fenced: a behind server must be reachable for catch-up) and
    return the reply; ``OSError`` if the server is unreachable or closes
    first, ``asyncio.TimeoutError`` after ``timeout`` seconds."""
    transport, conn = await asyncio.get_running_loop().create_connection(
        partial(_Reply, None), host, port
    )
    try:
        transport.write(wire.encode_frames([("hc", ctrl_id), ("m", msg)]))
        await asyncio.wait_for(conn.closed, timeout)
    finally:
        transport.close()
    if conn.reply is None:
        raise ConnectionResetError(f"{host}:{port} closed without a reply")
    return conn.reply[1]


def _now_ms(loop: asyncio.AbstractEventLoop) -> float:
    return loop.time() * 1000.0


async def _reap(task: asyncio.Task | None, failed: str, *args) -> None:
    """Cancel ``task`` and wait for it to end.  Cancellation is expected;
    anything else (a wire-codec bug, a programming error in a loop) is
    logged as ``failed % args``, not swallowed."""
    if task is None:
        return
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    except Exception:
        log.exception(failed, *args)


#: checkpoint file magics; the trailing digits are the container version.
#: 01 and 02 are the single file per server older builds wrote --
#: ``magic || u32 nsections || (u32 len || blake2b-16 || payload)* ||
#: header blake2b-16`` -- 02's payloads in wire v7's compact integer tags,
#: which a build that writes 01 cannot parse.  03 is a slot: the
#: generation and every section's length and digest come first, under one
#: header digest, so a slot shorter than its header says is known to be a
#: torn write and not rot.  All three load, 01 and 02 as generation 0.
_CKPT_MAGIC = b"CECKPT03"
_CKPT_MAGICS = (_CKPT_MAGIC, b"CECKPT02", b"CECKPT01")
_CKPT_DIGEST_LEN = 16
_CKPT_SECTIONS = 3
#: a slot's header: magic, generation, section count, section lengths;
#: the section digests and the header digest follow it
_CKPT_HEAD = struct.Struct(f">8sQI{_CKPT_SECTIONS}I")
_CKPT_HEAD_LEN = _CKPT_HEAD.size + (_CKPT_SECTIONS + 1) * _CKPT_DIGEST_LEN


def _ckpt_digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_CKPT_DIGEST_LEN).digest()


class _TornCheckpoint(ValueError):
    """The file ends before the length its header declares: a write that
    never finished, not damage to one that did."""


def _write_checkpoint(
    blob: bytes, path: str, other: str, root: str | None = None,
    legacy: str | None = None,
) -> None:
    """The disk half of a persist: ``blob`` becomes the newest slot.

    Overwrite the slot ``path`` in place, fsync it -- from here the
    checkpoint is durable and its batch may be released -- then truncate
    the ``other`` slot, whose older checkpoint is now garbage, without an
    fsync: if the truncate is lost, the loader still picks the higher
    generation.  ``root`` is given for a server's first write through this
    store: it creates the other slot first, fsyncs the directory after the
    slot, so both slots' entries are durable before anything is released
    and no later write needs a rename or a directory fsync, and finally
    unlinks the ``legacy`` single file an older build left.

    Plain file descriptors on paths the caller computed: the function
    reads no store or server state, so it is safe on a worker thread while
    the event loop moves on.  ``os.fsync`` is looked up on the module at
    each call (the ledger counts the calls there).
    """
    if root is not None:
        os.close(os.open(other, os.O_WRONLY | os.O_CREAT, 0o666))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.truncate(other, 0)
    if root is not None:
        _fsync_dir(root)
        # generation 0: it loses to the slot even if this unlink is lost
        Path(legacy).unlink(missing_ok=True)


def _fsync_dir(root: str) -> None:
    # some platforms refuse O_RDONLY fsync on directories -- best effort
    try:
        fd = os.open(root, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class _Slots:
    """What a store knows of one server's two slot files."""

    __slots__ = ("newest", "generation", "fresh", "pending")

    def __init__(self) -> None:
        #: the slot holding the newest checkpoint (``None``: neither does);
        #: the next write overwrites the other one
        self.newest: int | None = None
        #: the highest generation seen on disk or handed out
        self.generation = 0
        #: the next write creates the slots and fsyncs the directory
        self.fresh = True
        #: a write was handed out and has not landed: it may have got as
        #: far as truncating ``newest``, so the disk must be read again
        self.pending = False


class FileDurableStore:
    """File-backed stable storage: two checkpoint slots per server.

    The live-runtime counterpart of the simulator's in-memory
    :class:`~repro.core.snapshot.DurableStore`, with the same interface.
    Checkpoints are wire-encoded (never pickled) into one of two fixed
    files per server, ``server_<i>.ckpt.0`` and ``server_<i>.ckpt.1``, and
    carry a generation that grows with every write.  A persist overwrites
    the slot that does not hold the newest checkpoint, fsyncs that one
    file and then truncates the other (a ping-pong checkpoint): one fsync
    per commit, no temp file, no rename, and a crash mid-write leaves the
    previous checkpoint in the other slot.  Only a server's first write
    through the store also fsyncs the directory, which makes both slots'
    entries durable.  :meth:`load` returns the valid slot with the highest
    generation.  It passes over a slot only when that slot is shorter than
    its header declares -- a torn write, whose batch was never released;
    a slot that fails a digest at full length may be the newer one, so it
    makes the whole load fail rather than roll back.  A single
    ``server_<i>.ckpt`` that older builds wrote loads as generation 0 and
    is unlinked by the first write.  :meth:`persist` is that whole,
    synchronously; with ``defer=True`` it stops after the encode and hands
    the disk half to the caller, which is how the live server keeps fsync
    off its loop.

    Integrity: each slot is a sectioned container -- ``magic || u64
    generation || u32 nsections || u32 len * n || blake2b-16 * n || header
    blake2b-16 || payload * n`` -- with a digest per section (meta /
    durable state / transport state) plus a header digest over the
    generation, the lengths and the section digests, which is what lets a
    short slot be told from a rotten one.  :meth:`load` verifies all of
    them; *any* mismatch or truncation that leaves no valid slot is
    reported as a typed :class:`~repro.core.snapshot.CorruptCheckpoint`
    (in ``corruption_reports``) and surfaces as "no checkpoint", so the
    server restarts empty and lets anti-entropy repair pull its state back
    from peers instead of crashing on load.

    Skip-if-unchanged: :meth:`persist` remembers, per server, the state
    section's digest and the transport section's send sequence numbers
    and receive watermarks (:meth:`_transport_key`) of the checkpoint it
    last made durable, and returns without touching the disk when a
    checkpoint's equal them (an idle GC tick, a duplicate frame, a read
    that changed nothing, an ack that only trimmed a send log).  The meta
    section carries the checkpoint time and is deliberately left out of
    the comparison.  ``persist_counts`` counts real writes only,
    ``skip_counts`` the persists that were skipped.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.persist_counts: dict[int, int] = {}
        #: persists skipped because the file already held that state
        self.skip_counts: dict[int, int] = {}
        #: server -> (state digest, transport key) of the checkpoint this
        #: store last made durable; dropped whenever the file may no
        #: longer be that checkpoint (load, failed verify, wipe)
        self._durable: dict[int, tuple] = {}
        #: server -> its slots, as far as this store knows them
        self._slots: dict[int, _Slots] = {}
        #: every corruption/truncation ever detected by :meth:`load`
        self.corruption_reports: list[CorruptCheckpoint] = []
        # older builds wrote through a temp file and a rename; a crash
        # between the two left the temp file behind, never a checkpoint
        for stale in self.root.glob("*.ckpt.tmp"):
            stale.unlink(missing_ok=True)

    def _path(self, server_id: int, slot: int | None = None) -> Path:
        """Slot ``slot`` of ``server_id``, or (``None``) the single file
        older builds wrote."""
        name = f"server_{server_id}.ckpt"
        return self.root / (name if slot is None else f"{name}.{slot}")

    @staticmethod
    def _encode_sections(
        checkpoint: ServerCheckpoint,
    ) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        """The three section payloads (meta, state, transport) + digests."""
        sections = (
            wire.encode((checkpoint.server_id, checkpoint.time)),
            wire.encode(checkpoint.state),
            wire.encode(checkpoint.transport),
        )
        return sections, tuple(_ckpt_digest(p) for p in sections)

    @staticmethod
    def _assemble(sections, digests, generation: int) -> bytes:
        head = _CKPT_HEAD.pack(
            _CKPT_MAGIC, generation, len(sections), *map(len, sections)
        ) + b"".join(digests)
        return b"".join((head, _ckpt_digest(head), *sections))

    @classmethod
    def _encode_checkpoint(
        cls, checkpoint: ServerCheckpoint, generation: int
    ) -> bytes:
        return cls._assemble(*cls._encode_sections(checkpoint), generation)

    @staticmethod
    def _generation(blob: bytes) -> int | None:
        """The generation ``blob``'s header declares (0 for the files older
        builds wrote), or ``None`` when it has no readable one."""
        magic = bytes(blob[: len(_CKPT_MAGIC)])
        if magic == _CKPT_MAGIC and len(blob) >= len(magic) + 8:
            return int.from_bytes(blob[len(magic) : len(magic) + 8], "big")
        return 0 if magic in _CKPT_MAGICS else None

    @staticmethod
    def _slot_payloads(view: memoryview) -> list:
        if len(view) < _CKPT_HEAD_LEN:
            raise _TornCheckpoint("truncated checkpoint header")
        head = view[: _CKPT_HEAD_LEN - _CKPT_DIGEST_LEN]
        if _ckpt_digest(head) != bytes(view[len(head) : _CKPT_HEAD_LEN]):
            raise ValueError("checkpoint header digest mismatch")
        _, _, nsections, *lengths = _CKPT_HEAD.unpack_from(view)
        if nsections != _CKPT_SECTIONS:
            raise ValueError(f"unexpected section count {nsections}")
        end = _CKPT_HEAD_LEN + sum(lengths)
        if len(view) < end:
            raise _TornCheckpoint("truncated checkpoint payload")
        if len(view) > end:
            raise ValueError("trailing bytes after checkpoint payload")
        payloads, pos = [], _CKPT_HEAD_LEN
        for i, length in enumerate(lengths):
            at = _CKPT_HEAD.size + i * _CKPT_DIGEST_LEN
            payload = view[pos : pos + length]
            pos += length
            if _ckpt_digest(payload) != bytes(view[at : at + _CKPT_DIGEST_LEN]):
                raise ValueError(f"section {i} digest mismatch")
            payloads.append(payload)
        return payloads

    @staticmethod
    def _file_payloads(view: memoryview) -> list:
        """The sections of a ``CECKPT01`` / ``CECKPT02`` file."""
        magic = bytes(view[: len(_CKPT_MAGIC)])
        if len(view) < len(magic) + 4 + _CKPT_DIGEST_LEN:
            raise ValueError("truncated checkpoint header")
        if magic not in _CKPT_MAGICS[1:]:
            raise ValueError("bad checkpoint magic")
        pos = len(magic)
        (nsections,) = _U32.unpack(view[pos : pos + 4])
        pos += 4
        if nsections != _CKPT_SECTIONS:
            raise ValueError(f"unexpected section count {nsections}")
        payloads, directory = [], [bytes(view[:pos])]
        for i in range(nsections):
            if pos + 4 + _CKPT_DIGEST_LEN > len(view):
                raise ValueError(f"truncated section {i} header")
            (length,) = _U32.unpack(view[pos : pos + 4])
            pos += 4
            digest = bytes(view[pos : pos + _CKPT_DIGEST_LEN])
            pos += _CKPT_DIGEST_LEN
            if pos + length > len(view):
                raise ValueError(f"truncated section {i} payload")
            payload = view[pos : pos + length]
            pos += length
            if _ckpt_digest(payload) != digest:
                raise ValueError(f"section {i} digest mismatch")
            payloads.append(payload)
            directory.append(digest)
        if pos + _CKPT_DIGEST_LEN != len(view):
            raise ValueError("trailing bytes after checkpoint footer")
        if _ckpt_digest(b"".join(directory)) != bytes(view[pos:]):
            raise ValueError("checkpoint header digest mismatch")
        return payloads

    @classmethod
    def _decode_checkpoint(cls, blob: bytes) -> ServerCheckpoint:
        """Parse + verify; raises ``ValueError`` on any integrity failure,
        :class:`_TornCheckpoint` when a slot ends before its header says."""
        view = memoryview(blob)
        if _CKPT_MAGIC.startswith(bytes(view[: len(_CKPT_MAGIC)])):
            payloads = cls._slot_payloads(view)
        else:
            payloads = cls._file_payloads(view)
        try:
            server_id, time = wire.decode(payloads[0])
            state = wire.decode(payloads[1])
            transport = wire.decode(payloads[2])
        except wire.WireError as exc:
            raise ValueError(f"checkpoint section undecodable: {exc}") from exc
        return ServerCheckpoint(server_id, time, state, transport)

    @staticmethod
    def _transport_key(transport, digest: bytes):
        """What of the transport section a checkpoint must make durable.

        An ack only trims the sender's retransmission log.  A file that
        still lists the acked frames restores to a channel that replays
        them once and has them dropped by the receiver's watermark, so a
        trim alone is not worth a write -- and writing it made the bytes
        at rest depend on whether a GC tick happened to fall between an
        ack and whoever looks at the file.  The send sequence numbers and
        receive watermarks move with every frame sent or delivered; a
        transport of any other shape is compared by its section digest.
        """
        try:
            return (
                sorted((j, st["seq"]) for j, st in transport["send"].items()),
                sorted(transport["recv"].items()),
            )
        except (TypeError, KeyError, AttributeError):
            return digest

    def persist(
        self, checkpoint: ServerCheckpoint, defer: bool = False
    ) -> tuple[Callable[[], None], Callable[[], None]] | None:
        """Make ``checkpoint`` durable, or hand back the disk half of doing so.

        A persist is three steps.  *Snapshot* (here, always): encode the
        sections, digest them, and return at once when the file already
        holds this checkpoint; otherwise take the next generation and pick
        the slot that does not hold the newest checkpoint.  *Disk*:
        :func:`_write_checkpoint` on the assembled, immutable blob.
        *Landed*: remember what the slot now holds and count the write.

        By default all three run before ``persist`` returns.  With
        ``defer`` the caller gets ``(write, landed)`` instead -- or
        ``None`` for a skipped persist -- and runs them itself:
        ``write()`` touches nothing but the blob and the file system, so
        it may run on any thread; ``landed()`` touches the store and
        belongs on the thread that owns it, after ``write()`` returned.
        The caller keeps at most one deferred persist per server
        outstanding (two writers would both pick the same slot).
        """
        server_id = checkpoint.server_id
        sections, digests = self._encode_sections(checkpoint)
        durable = (
            digests[1],
            self._transport_key(checkpoint.transport, digests[2]),
        )
        if self._durable.get(server_id) == durable:
            # the file already holds this state (and at least these frames)
            self.skip_counts[server_id] = self.skip_counts.get(server_id, 0) + 1
            return None
        slots = self._slots.get(server_id)
        if slots is None or slots.pending:
            # a first write, or one after a write that never landed
            self._scan(server_id)
            slots = self._slots[server_id]
        slots.generation += 1
        slots.pending = True
        slot = 0 if slots.newest is None else 1 - slots.newest
        fresh = slots.fresh
        write = partial(
            _write_checkpoint,
            self._assemble(sections, digests, slots.generation),
            os.fspath(self._path(server_id, slot)),
            os.fspath(self._path(server_id, 1 - slot)),
            os.fspath(self.root) if fresh else None,
            os.fspath(self._path(server_id)) if fresh else None,
        )

        def landed() -> None:
            slots.newest = slot
            slots.fresh = slots.pending = False
            self._durable[server_id] = durable
            self.persist_counts[server_id] = (
                self.persist_counts.get(server_id, 0) + 1
            )

        if defer:
            return write, landed
        write()
        landed()
        return None

    def _scan(self, server_id: int):
        """Read every file ``server_id`` has and update what the store
        knows of its slots.

        Returns ``(checkpoint, damage)``: the checkpoint of the valid file
        with the highest generation, and the reports of what made it
        unusable -- a slot that fails its digests at full length (it may
        be the newer one: no rollback past it), or, with no valid file at
        all, a torn one.  ``(None, [])`` when there is no checkpoint.

        The order is the legacy file, then the slot that held the newest
        checkpoint, then the other: the disk half of a commit in flight
        truncates the one and unlinks the other only once the slot it
        writes is durable, so whichever reads short here, the slot read
        after it is complete.
        """
        slots = self._slots.setdefault(server_id, _Slots())
        first = 0 if slots.newest is None else slots.newest
        best, torn, rotten, missing = None, [], [], False
        for slot in (None, first, 1 - first):
            path = self._path(server_id, slot)
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                missing |= slot is not None
                continue
            except OSError as exc:
                rotten.append(CorruptCheckpoint(server_id, str(path), str(exc)))
                continue
            if not blob:
                continue
            generation = self._generation(blob)
            if generation is not None:
                slots.generation = max(slots.generation, generation)
            try:
                checkpoint = self._decode_checkpoint(blob)
            except _TornCheckpoint as exc:
                torn.append(CorruptCheckpoint(server_id, str(path), str(exc)))
                continue
            except ValueError as exc:
                rotten.append(CorruptCheckpoint(server_id, str(path), str(exc)))
                continue
            if best is None or generation > best[0]:
                best = (generation, slot, checkpoint)
        slots.newest = None if best is None else best[1]
        slots.fresh |= missing
        damage = rotten or (torn if best is None else [])
        return (None if damage or best is None else best[2]), damage

    def load(self, server_id: int) -> ServerCheckpoint | None:
        # forget what we believed about the file: a damaged one must be
        # replaced by the next persist, and rewriting an intact one once
        # per restart is cheap
        self._durable.pop(server_id, None)
        checkpoint, damage = self._scan(server_id)
        self.corruption_reports += damage
        return checkpoint

    def verify_file(self, server_id: int) -> bool | None:
        """Re-verify the at-rest checkpoint's digests (disk scrub).

        Returns ``None`` when no checkpoint exists, ``True`` when
        :meth:`load` would return one, ``False`` (recording a typed
        report) when it would find damage instead -- without surfacing
        the decoded checkpoint, so scrubbing cannot accidentally become a
        recovery path.
        """
        checkpoint, damage = self._scan(server_id)
        if damage:
            self._durable.pop(server_id, None)  # the heal must rewrite it
            self.corruption_reports += damage
            return False
        return None if checkpoint is None else True

    def corrupt_detected(self, server_id: int | None = None) -> int:
        """How many corrupt/truncated checkpoints :meth:`load` has seen."""
        if server_id is None:
            return len(self.corruption_reports)
        return sum(
            1 for r in self.corruption_reports if r.server_id == server_id
        )

    # -- deterministic damage, for chaos schedules and tests -----------

    def _newest_file(self, server_id: int) -> tuple[Path, bytes] | None:
        """The file holding the newest checkpoint, as far as the store
        knows (the legacy file before the first write), and its bytes.

        ``None`` when it is missing or empty: a commit landing on a worker
        thread can empty it before the loop learns which slot is newest.
        """
        if server_id not in self._slots:
            self._scan(server_id)
        path = self._path(server_id, self._slots[server_id].newest)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        return (path, blob) if blob else None

    def corrupt_file(self, server_id: int, seed: int = 0, flips: int = 1) -> bool:
        """Flip ``flips`` seeded bits in the stored checkpoint (bit rot).

        Returns whether a file existed to damage.  The flipped offsets are
        a pure function of ``(seed, server_id, file size)`` so chaos
        schedules replay identically.
        """
        newest = self._newest_file(server_id)
        if newest is None:
            return False
        path, blob = newest[0], bytearray(newest[1])
        rng = np.random.default_rng((seed, 0xB17F11, server_id, len(blob)))
        for _ in range(flips):
            pos = int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
        path.write_bytes(bytes(blob))
        return True

    def truncate_file(self, server_id: int, keep_frac: float = 0.5) -> bool:
        """Model a torn write: keep only a prefix of the checkpoint file."""
        newest = self._newest_file(server_id)
        if newest is None:
            return False
        path, blob = newest
        path.write_bytes(blob[: int(len(blob) * keep_frac)])
        return True

    def wipe(self, server_id: int) -> None:
        """Simulate disk loss for one server (tests)."""
        self._durable.pop(server_id, None)
        slots = self._slots.get(server_id)
        if slots is not None:
            # keep the generation: nothing written after the loss may
            # lose to a slot the loss failed to take
            slots.newest, slots.fresh = None, True
        for slot in (None, 0, 1):
            self._path(server_id, slot).unlink(missing_ok=True)


class _HeldBatch(NamedTuple):
    """What one commit detached from behind the barrier at its snapshot."""

    #: ``(client id, msg)``, in the order the handlers produced them
    replies: list
    #: ``(peer, its connection, receive watermark in the snapshot, the id
    #: of the peer's connection whose hello that watermark follows)``
    acks: list
    #: ``(channel, the connection the frames were queued for, frames)``
    frames: list
    #: length of the audit log at the snapshot
    audit: int


class _PeerChannel:
    """The dialer end of one directed reliable channel ``me -> peer``.

    With a :class:`~repro.runtime.chaos_rt.LiveFaultInjector` attached to
    the server, every transmission attempt (first send, reconnect replay,
    periodic retransmission) asks the injector for a
    :class:`~repro.runtime.chaos_rt.FrameFate` first: frames may be
    dropped, duplicated, or delayed before they reach the socket.  The ARQ
    already masks exactly these hazards -- dropped frames stay in
    ``arq.unacked`` and are retransmitted by :meth:`_retransmit_loop`,
    duplicates and reorderings are absorbed by the receiver's watermark --
    so chaos costs latency, never correctness.

    Commit barrier: frames surviving chaos are *held* in ``_pending``
    (their state change is not on disk yet) until the server's commit
    takes them (:meth:`detach`) and, once durable, writes them in one
    ``transport.write`` (:meth:`release`).  Acks come back standalone on
    the connection's :class:`_Dialed` protocol or piggybacked in the
    peer's run frames on our listener (:meth:`AsyncioServer._peer_frame`);
    fence responses and flow control come through :class:`_Dialed`:
    while it is paused, data frames are not enqueued at all (``arq``
    holds them; the resume replays the skipped tail) and gossip is shed.
    FIFO order holds: ``_pending`` keeps append order, only ``release``
    writes.
    """

    def __init__(self, server: "AsyncioServer", peer_id: int):
        self.server = server
        self.peer_id = peer_id
        #: the channel's send half: seq, acked and the unacked tail
        self.arq = ArqSender()
        #: the current connection; ``None`` while (re)dialling
        self.transport: asyncio.Transport | None = None
        #: the id the latest connection's hello carried; an ack the peer
        #: piggybacks on its data frames counts only under this id
        self.conn: int | None = None
        #: the dial loop: connect, then wait for the connection to close
        self.task: asyncio.Task | None = None
        self._rexmit_task: asyncio.Task | None = None
        #: frames held behind the commit barrier (not yet durable)
        self._pending: list[tuple] = []
        #: the transport is over its high-water mark
        self._paused = False
        #: lowest data seq skipped while paused, replayed on resume
        self._stall_from: int | None = None
        #: seq -> loop time of the latest transmission attempt; the
        #: retransmit loop only re-sends frames older than the interval
        self._last_tx: dict[int, float] = {}

    def send(self, msg) -> None:
        self._transmit(self.arq.push(msg), msg)

    def send_gossip(self, msg) -> None:
        """Best-effort unsequenced frame (heartbeats): no ARQ, no replay."""
        fate = self._fate()
        if fate is None or fate.deliver:
            delay = 0.0 if fate is None else fate.delay_ms
            self._enqueue_later(("g", msg), delay)

    def _fate(self):
        chaos = self.server.chaos
        if chaos is None:
            return None
        return chaos.fate(self.server.node_id, self.peer_id)

    def _transmit(self, seq: int, msg) -> None:
        """One transmission attempt for a sequenced data frame."""
        # stamp every attempt, dropped ones included: the age gate measures
        # time since we last *tried*, not since the frame last got through
        self._last_tx[seq] = asyncio.get_running_loop().time()
        fate = self._fate()
        frame = ("d", seq, msg)
        if fate is None:
            self._enqueue(frame)
            return
        if fate.drop:
            return
        if fate.corrupt:
            # deliver the frame *damaged*: seeded bit flips inside the
            # CRC-covered region.  The receiver's frame CRC rejects it
            # like a drop and the ARQ retransmits a clean copy.
            frame = self.server.chaos.damage(
                wire.encode_frame(("d", seq, [msg])),
                self.server.node_id,
                self.peer_id,
                fate.k,
            )
        self._enqueue_later(frame, fate.delay_ms)
        if fate.dup:
            # the copy lands a beat later, off the FIFO path
            self._enqueue_later(frame, fate.delay_ms + 1.0)

    def _enqueue_later(self, frame, delay_ms: float) -> None:
        if delay_ms <= 0:
            self._enqueue(frame)
        else:
            asyncio.get_running_loop().call_later(
                delay_ms / 1000.0, self._enqueue, frame
            )

    def _enqueue(self, frame) -> None:
        if self.transport is None:
            # disconnected: data frames stay in unacked and are replayed
            # on reconnect; gossip is best-effort and simply lost
            return
        if self._paused:
            # backpressure: the transport is over its high-water mark.
            # Data frames are safe in unacked -- remember the lowest seq
            # we skipped so ``resume_writing`` can replay the tail
            if frame[0] == "d" and (
                self._stall_from is None or frame[1] < self._stall_from
            ):
                self._stall_from = frame[1]
            return
        self._pending.append(frame)
        self.server._schedule_commit()

    def detach(self) -> tuple | None:
        """Hand the held frames to the commit taking its snapshot now.

        Returns ``(transport, frames)`` -- the connection the frames were
        queued for, and the frames -- or ``None`` when nothing is held.
        Frames enqueued from here on start a new list: they show state
        the snapshot does not hold and wait for the next commit.
        """
        frames = self._pending
        if not frames:
            return None
        self._pending = []
        return self.transport, frames

    def release(self, transport, frames: list, ack: tuple | None = None) -> bool:
        """The commit that detached ``frames`` is durable: send them, in
        one write, each run of consecutive data messages as one frame
        (:func:`~repro.runtime.wire.encode_runs`), with ``ack`` -- the
        ``(conn, upto)`` owed to the peer -- in the last run.  Returns
        whether the ack went out.

        A channel that has redialled since the frames were detached has
        replayed its whole unacked tail on the new connection and shed the
        rest, exactly as ``_connected`` does with ``_pending`` -- sending
        the batch as well would put every data message on the wire twice.
        """
        if transport is None or self.transport is not transport:
            return False
        data, frames_sent, carried = wire.encode_runs(frames, ack)
        transport.write(data)
        self.server.frames_sent += frames_sent
        self.server.flushes += 1
        return carried

    def reclaim(self, transport, frames: list) -> None:
        """The commit that detached ``frames`` failed: hold them again,
        ahead of everything enqueued since (FIFO order is kept)."""
        if transport is not None and self.transport is transport:
            self._pending[:0] = frames

    def start(self) -> None:
        self.task = asyncio.ensure_future(_redial(
            lambda: (partial(_Dialed, self), *self.server.peers[self.peer_id]),
            self._connected,
        ))
        if self.server.chaos is not None:
            self._rexmit_task = asyncio.ensure_future(self._retransmit_loop())

    def _connected(self, conn: "_Dialed") -> None:
        """Say hello on a fresh connection and replay the unacked tail."""
        s, transport = self.server, conn.transport
        self.conn = secrets.randbits(62) + 1
        arq = self.arq
        hello = ("hp", s.node_id, arq.acked, s.core.cfg_epoch, arq.seq, self.conn)
        s._write_frame(transport, hello)
        # frames queued for the dead connection are stale; the replay
        # below re-sends everything that still matters
        self._pending.clear()
        self._stall_from = None
        self._paused = False
        self.transport = transport
        for seq, msg in arq.tail():
            self._transmit(seq, msg)

    async def _retransmit_loop(self) -> None:
        """Re-send *stale* unacked frames while chaos may be eating frames.

        Plain TCP needs no retransmission timer (replay-on-reconnect covers
        connection loss), but an injector drops individual frames on a live
        connection; without this loop a dropped frame would stall its
        channel forever.
        """
        while True:
            await asyncio.sleep(RETRANSMIT_INTERVAL)
            if self.transport is not None:
                self._retransmit_pass(asyncio.get_running_loop().time())

    def _retransmit_pass(self, now: float) -> int:
        """Retransmit unacked frames whose last attempt has aged out.

        Age gating matters: without it every pass re-sent the *entire*
        unacked tail -- frames transmitted microseconds ago included -- and
        each re-send re-rolled the chaos fate, so ``dup`` fates multiplied
        copies of frames the receiver had already absorbed.  Returns the
        number of frames re-sent.
        """
        sent = 0
        for seq, msg in self.arq.tail():
            last = self._last_tx.get(seq, float("-inf"))
            if now - last >= RETRANSMIT_INTERVAL:
                self._transmit(seq, msg)
                sent += 1
        return sent

    def _on_ack(self, upto: int) -> None:
        for seq in self.arq.ack(upto):
            self._last_tx.pop(seq, None)

    def reset(self) -> None:
        """Abruptly drop the established connection (it redials + replays)."""
        transport = self.transport
        self.transport = None
        if transport is not None:
            transport.close()

    async def stop(self) -> None:
        for task in (self.task, self._rexmit_task):
            await _reap(
                task,
                "peer channel %d->%d task failed during stop",
                self.server.node_id,
                self.peer_id,
            )
        self.task = None
        self._rexmit_task = None
        self.reset()


class _Dialed(_Framed):
    """The connection a :class:`_PeerChannel` dialled: standalone acks and
    fence responses in, flow control from the transport (acks piggybacked
    on the peer's run frames arrive on the listener, in ``_peer_frame``)."""

    def __init__(self, channel: _PeerChannel):
        super().__init__(channel.server)
        self.server = channel.server
        self.channel = channel

    def frame_received(self, frame) -> None:
        kind = _kind(frame)
        if kind == "a" and len(frame) == 2 and type(frame[1]) is int:
            self.channel._on_ack(frame[1])
        elif kind == "rc" and len(frame) == 2 and type(frame[1]) is list:
            # fenced: the listener is in a newer membership epoch and sent
            # its commit chain so we can catch up; install it and let the
            # redial handshake with the new epoch
            self.server.install_commits(frame[1])
        else:
            self.transport.close()

    def pause_writing(self) -> None:
        if self.channel.transport is self.transport:
            self.channel._paused = True

    def resume_writing(self) -> None:
        """Replay the tail skipped while paused (it never left ``unacked``),
        behind the barrier like any first send."""
        ch = self.channel
        if ch.transport is not self.transport:
            return
        ch._paused = False
        if ch._stall_from is not None:
            stalled, ch._stall_from = ch._stall_from, None
            for seq, msg in ch.arq.tail(stalled):
                ch._transmit(seq, msg)

    def connection_lost(self, exc) -> None:
        if self.channel.transport is self.transport:
            self.channel.transport = None
        super().connection_lost(exc)


class _Inbound(_Framed):
    """A connection a peer or a client dialled to a server's listener.

    The hello goes to :meth:`AsyncioServer._on_hello`, which picks the
    handler for the rest; a handler returning ``False`` (a frame of the
    wrong shape) closes the connection, as does any frame after a crash.
    """

    def __init__(self, server: "AsyncioServer"):
        super().__init__(server)
        self.server = server
        #: the incarnation that accepted the connection
        self.epoch = server._epoch
        #: the dialling peer's or client's id, once the hello is in
        self.src: int | None = None
        #: a peer's receive half while the server has none for it yet
        #: (see ``AsyncioServer._recv``)
        self.receiver: ArqReceiver | None = None
        self.handle = server._on_hello

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._inbound.add(self)

    def frame_received(self, frame) -> None:
        s = self.server
        if s._epoch != self.epoch or s.halted or not self.handle(self, frame):
            self.transport.close()

    def connection_lost(self, exc) -> None:
        s = self.server
        s._inbound.discard(self)
        if self.src is not None and s._clients.get(self.src) is self.transport:
            del s._clients[self.src]
        super().connection_lost(exc)


class AsyncioServer:
    """One CausalEC server: a :class:`ServerCore` behind a TCP listener.

    Optional resilience attachments:

    * ``chaos`` -- a :class:`~repro.runtime.chaos_rt.LiveFaultInjector`
      consulted by every peer-channel transmission;
    * ``detector`` -- a :class:`FailureDetectorConfig`; the server then
      runs a :class:`FailureDetectorCore` whose heartbeats travel as
      best-effort ``("g", msg)`` gossip frames on the peer channels
      (bypassing the ARQ -- retransmitting liveness evidence would defeat
      it) and whose suspect/alive transitions land in ``detector_log``;
    * ``audit_addr`` -- address of an :class:`~repro.runtime.auditor
      .OnlineAuditor`; decision-log entries are then mirrored as
      :class:`~repro.consistency.online.AuditOp` records and pushed to it
      as each commit makes them durable.  The record list models an
      append-only log file: it survives :meth:`kill` (unlike volatile
      protocol state) and the stream replays it in full after every
      reconnect, the auditor deduplicates.
    """

    def __init__(
        self,
        core: ServerCore,
        store: FileDurableStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: LiveFaultInjector | None = None,
        detector: FailureDetectorConfig | None = None,
        audit_addr: tuple[str, int] | None = None,
        repair: RepairConfig | None = None,
        scrub: ScrubConfig | None = None,
    ):
        self.core = core
        self.node_id = core.node_id
        self.num_servers = core.code.N
        self.store = store
        self.host = host
        self.port = port
        self.chaos = chaos
        #: wire frames put on a socket (a run of data messages is one) /
        #: single transport.write calls issued
        self.frames_sent = 0
        self.flushes = 0
        #: inbound frames rejected by the frame CRC and skipped like drops
        self.frames_corrupt = 0
        self.audit_addr = audit_addr
        if audit_addr is not None:
            # the audit stream mirrors decision-log entries; auditing a
            # server that never logs decisions would silently check nothing
            core.config.decision_log = True
        self.peers: dict[int, tuple[str, int]] = {}
        self.halted = False
        self.decision_log: list[tuple] = []
        #: delivered-frame counter; quiescence detection watches it
        self.activity = 0
        self._epoch = 0
        self._listener: asyncio.Server | None = None
        self._channels: dict[int, _PeerChannel] = {}
        #: peer -> the receive half of its channel to us, entered when its
        #: watermark is first set (a delivery or a hello's reset): the
        #: checkpoint lists the watermarks in that order
        self._recv: dict[int, ArqReceiver] = {}
        #: client id -> the transport of its connection
        self._clients: dict[int, asyncio.Transport] = {}
        #: every connection accepted and not yet lost
        self._inbound: set[_Inbound] = set()
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        # -- commit barrier (see ``_commit``) ---------------------------
        #: durable state changed since the last checkpoint
        self._dirty = False
        #: held output or the GC slot asked for a commit since the last
        #: snapshot: a ``_commit`` is queued for the next loop iteration,
        #: or will be the moment the commit in flight lands
        self._commit_scheduled = False
        #: the disk half of the one commit in flight (an executor future)
        self._in_flight: asyncio.Future | None = None
        #: client replies held until the commit: ``(client id, msg)``
        self._held_replies: list[tuple[int, object]] = []
        #: cumulative ack owed to each peer: ``src -> its connection``
        self._held_acks: dict[int, asyncio.Transport] = {}
        #: peer -> the connection id of its latest hello (volatile)
        self._peer_conn: dict[int, int] = {}
        self.detector: FailureDetectorCore | None = None
        if detector is not None:
            others = [j for j in range(self.num_servers) if j != self.node_id]
            self.detector = FailureDetectorCore(self.node_id, others, detector)
        #: anti-entropy overlay; digests ride the gossip path, repair
        #: requests/responses the reliable ARQ channels
        self.repair: RepairCore | None = (
            None if repair is None else RepairCore(core, repair)
        )
        #: bit-rot scrubber: periodically re-verifies the codeword seal
        #: and the on-disk checkpoint, quarantining + healing corruption
        self.scrub: ScrubCore | None = (
            None if scrub is None else ScrubCore(core, scrub)
        )
        #: epoch-fenced dynamic membership (always on: with no
        #: reconfigurations it is a zero-cost epoch-0 pass-through)
        self.reconfig = ReconfigCore(core)
        #: every membership commit this incarnation knows, by epoch; the
        #: cluster seeds replacements with the full chain so they can
        #: answer fenced peers and rebuild extended codes after restarts
        self.commit_chain: list[ReconfigCommit] = []
        #: set by ``kill(forever=True)``: this incarnation is permanently
        #: failed -- supervisors must not resurrect it
        self.permanently_failed = False
        #: hook called as ``on_membership_change(server_id, effect)``
        self.on_membership_change = None
        #: (time, peer, "suspect" | "alive") -- this incarnation and earlier
        self.detector_log: list[tuple[float, int, str]] = []
        #: hook called as ``on_transition(server_id, peer, kind)``
        self.on_detector_transition = None
        self._audit_log: list[AuditOp] = []
        #: how many audit records a commit has made durable; the stream
        #: sends no further, and a crash truncates the log back to here
        self._audit_durable = 0
        self._audit_task: asyncio.Task | None = None
        #: the audit stream's latest connection; pushed to while open
        self._audit: _AuditStream | None = None
        #: audit identity (sharded clusters): ``audit_node`` must be
        #: globally unique across shards (seq dedup at the auditor is per
        #: server id); ``audit_shard`` scopes this group's tags;
        #: ``audit_key_map``/``audit_gen`` translate codeword slots into
        #: global keys and migration generations.  Defaults leave
        #: unsharded clusters byte-identical on the audit stream.
        self.audit_node = self.node_id
        self.audit_shard = 0
        self.audit_key_map: dict[int, object] | None = None
        self.audit_gen: dict[int, int] = {}
        #: serializes kill/restart.  Both suspend at await points, and a
        #: supervisor (polling ``halted``) can schedule a restart while a
        #: kill coroutine is still tearing down -- unserialized, the kill's
        #: tail would wipe the freshly restored core and leave a zombie
        #: listener acking frames into a never-applying inqueue.
        self._lifecycle = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    def now(self) -> float:
        return _now_ms(self._loop)

    @property
    def stats(self):
        return self.core.stats

    async def start(self) -> None:
        """Bind the listener (port 0 = ephemeral) and boot the core."""
        self._loop = asyncio.get_running_loop()
        await self._start_listener()
        self.interpret(self.core.boot(self.now()))
        self._boot_overlays()

    def _boot_overlays(self) -> None:
        """Start the operational overlays: detector, repair, audit stream."""
        if self.detector is not None:
            self.interpret(self.detector.boot(self.now()))
        if self.repair is not None:
            # round state is volatile: each incarnation reboots the overlay
            self.interpret(self.repair.boot(self.now()))
        if self.scrub is not None:
            self.interpret(self.scrub.boot(self.now()))
        if self.audit_addr is not None:
            self._audit_task = asyncio.ensure_future(_redial(
                lambda: (partial(_AuditStream, self), *self.audit_addr),
                _AuditStream.attach,
            ))

    async def _start_listener(self) -> None:
        self._listener = await self._loop.create_server(
            partial(_Inbound, self), self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]

    def set_peers(self, addresses: dict[int, tuple[str, int]]) -> None:
        self.peers = {j: a for j, a in addresses.items() if j != self.node_id}

    def connect_peers(self) -> None:
        """Dial every peer in ``peers`` that has no channel yet."""
        if self.halted:
            return
        for j in self.peers:
            if j not in self._channels:
                ch = self._channels[j] = _PeerChannel(self, j)
                ch.start()

    async def kill(self, forever: bool = False) -> None:
        """Crash: drop timers, connections, listener, and volatile state.

        ``forever=True`` additionally marks the incarnation permanently
        failed (a machine that is never coming back): supervisors skip it,
        and the failure detector's confirmed-dead escalation is what
        eventually replaces it.
        """
        async with self._lifecycle:
            if forever:
                self.permanently_failed = True
            await self._kill_locked()

    async def _kill_locked(self) -> None:
        self.halted = True
        self._epoch += 1
        self._commit_scheduled = False  # the queued one is a no-op now
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        await _reap(self._audit_task, "server %d audit stream failed", self.node_id)
        self._audit_task = None
        for ch in self._channels.values():
            await ch.stop()
        self._channels.clear()
        if self._listener is not None:
            # stop accepting and let accepts already scheduled attach:
            # asyncio's accept path leaks the socket it accepted when the
            # server closes under it, and the dialer waits on it forever
            for sock in self._listener.sockets:
                self._loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        self.reset_connections()
        self._inbound.clear()
        self._clients.clear()
        await asyncio.sleep(0.01)  # let the connections observe the close
        # a disk half caught in flight may land or not -- the slots hold
        # the old checkpoint or the new one, and its batch is released to
        # nobody -- but it must be over before the next incarnation loads
        # and writes the same slots
        await self.committed()
        # a crash loses everything not on disk -- and nothing held behind
        # the barrier was ever visible to anyone
        self._dirty = False
        self._held_replies.clear()
        self._held_acks.clear()
        self._peer_conn.clear()
        del self._audit_log[self._audit_durable:]
        self._recv = {}
        self.core.wipe_volatile()

    async def restart(self) -> None:
        """Recover: reload the durable checkpoint, rebind, redial, resume.

        Also usable as a cold-start entry point for a standalone server
        process resuming from an on-disk checkpoint (``repro serve``).
        """
        async with self._lifecycle:
            if self.permanently_failed:
                # a replaced machine's old incarnation must never rejoin:
                # its slot (and endpoint) belong to the replacement now
                raise RuntimeError(
                    f"server {self.node_id} is permanently failed"
                )
            if self._loop is None:
                self._loop = asyncio.get_running_loop()
            self.halted = False
            for j in self.peers:
                ch = self._channels[j] = _PeerChannel(self, j)
            checkpoint = (
                None if self.store is None else self.store.load(self.node_id)
            )
            if checkpoint is not None:
                restore_server_state(self.core, checkpoint, transport=self)
            await self._start_listener()
            for ch in self._channels.values():
                ch.start()
            self.interpret(self.core.after_restart(self.now()))
            self._boot_overlays()

    def reset_connections(self) -> None:
        """Abruptly close every established connection without crashing.

        Dialer channels redial and replay their unacked tails; inbound
        peers and clients observe the close and reconnect.  Models a NIC
        hiccup / middlebox reset: connection state is lost, process state
        is not (:class:`~repro.sim.faults.FaultPlan` ``resets``).
        """
        for ch in self._channels.values():
            ch.reset()
        for conn in list(self._inbound):
            conn.transport.close()

    async def shutdown(self) -> None:
        if not self.halted:
            await self.kill()

    def snapshot_node(self, node_id: int) -> dict:
        """The channel state a checkpoint holds (the transport-snapshot
        interface of :func:`~repro.core.snapshot.capture_server_state`)."""
        return snapshot_channels(
            {j: ch.arq for j, ch in self._channels.items()}, self._recv
        )

    def restore_node(self, node_id: int, state: dict) -> None:
        send, self._recv = restore_channels(state)
        for j, ch in self._channels.items():
            ch.arq = send.get(j, ch.arq)

    # ------------------------------------------------------------------
    # connections

    def _on_hello(self, conn: "_Inbound", hello) -> bool:
        """The first frame of an accepted connection: peer or client.

        Returns ``False`` -- close the connection -- for anything but a
        well-formed hello, and for a peer in an older membership epoch.
        """
        kind = _kind(hello)
        if (
            kind == "hp"
            and len(hello) == 6
            and all(type(x) is int for x in hello[1:])
        ):
            _, src, base, peer_epoch, sent, conn_id = hello
            if not self.reconfig.frame_admissible(peer_epoch):
                # the dialer is in an older membership epoch: fence the
                # connection (none of its frames are delivered) but hand
                # back the commit chain first -- a live-but-behind peer
                # installs it and redials at the new epoch, while a
                # superseded zombie stays fenced forever
                self._write_frame(
                    conn.transport, ("rc", list(self.commit_chain))
                )
                return False
            conn.src, conn.handle = src, self._peer_frame
            receiver = conn.receiver = self._recv.get(src) or ArqReceiver()
            if receiver.hello(base, sent):
                self._recv[src] = receiver
                self._persist()  # the watermark is durable state
            self._peer_conn[src] = conn_id
            return True
        if kind == "hc" and len(hello) == 2 and type(hello[1]) is int:
            conn.src, conn.handle = hello[1], self._client_frame
            self._clients[conn.src] = conn.transport
            return True
        return False

    def _peer_frame(self, conn: "_Inbound", frame) -> bool:
        """Deliver the run of data messages in a frame from peer
        ``conn.src`` in order, exactly once, and apply the ack it carries;
        hand gossip to the detector and repair overlays."""
        src = conn.src
        kind = _kind(frame)
        if kind == "g" and len(frame) == 2:
            # best-effort gossip (heartbeats, digests): no seq, no ack
            gm = frame[1]
            if self.detector is not None and isinstance(gm, Heartbeat):
                self.interpret(
                    self.detector.handle_message(src, gm, self.now())
                )
            elif type(gm) is DigestMsg and self.repair is not None:
                if self.detector is not None:
                    # a digest is liveness evidence like any frame
                    self.interpret(
                        self.detector.observe(src, self.now())
                    )
                self.interpret(self.repair.handle_message(src, gm, self.now()))
            return True
        # ("d", first, [msg, ...]) or, carrying an ack, (..., conn, upto)
        if not (
            kind == "d" and len(frame) in (3, 5)
            and type(frame[1]) is int and frame[1] >= 1
            and type(frame[2]) is list and frame[2]
            and all(type(x) is int for x in frame[3:])
        ):
            return False
        if self.detector is not None:
            # any delivered frame is liveness evidence, duplicates too
            self.interpret(self.detector.observe(src, self.now()))
        receiver = self._recv.get(src) or conn.receiver
        for seq, msg in enumerate(frame[2], frame[1]):
            for m in receiver.accept(seq, msg):
                # watermark and state change reach disk in the same
                # checkpoint: delivery and its effect are atomic
                self._recv[src] = receiver
                self._persist()
                self.activity += 1
                self._deliver(src, m)
        if len(frame) == 5:
            # the peer's ack of our channel to it, in our connection's
            # sequence space only when it names that connection
            ch = self._channels.get(src)
            if ch is not None and ch.conn == frame[3]:
                ch._on_ack(frame[4])
        # cumulative, so one ack per peer per commit: the commit writes
        # the watermark it has just made durable
        self._held_acks[src] = conn.transport
        self._defer_commit()
        return True

    def _deliver(self, src: int, msg) -> None:
        """Route one in-order data frame to the right core."""
        if isinstance(msg, (RepairRequest, RepairResponse)):
            if self.repair is not None:
                self.interpret(self.repair.handle_message(src, msg, self.now()))
            return  # overlay disabled here: drop peer repair traffic
        self.interpret(self.core.handle_message(src, msg, self.now()))

    # ------------------------------------------------------------------
    # dynamic membership

    def _remember_commit(self, msg: ReconfigCommit) -> None:
        if all(c.epoch != msg.epoch for c in self.commit_chain):
            self.commit_chain.append(msg)
            self.commit_chain.sort(key=lambda c: c.epoch)

    def install_commits(self, commits) -> None:
        """Catch up on membership commits learned out of band.

        Fed by the fence response of a newer-epoch peer and by the
        cluster's restart replay.  Joins must apply in epoch order (each
        extends the code by one row); commits at or below the installed
        epoch are still scanned for the code-rebuild case -- ``cfg_epoch``
        is durable but the extended code is reconstructed at boot from the
        committed row seeds, never from disk.
        """
        for msg in sorted(commits, key=lambda c: c.epoch):
            if not isinstance(msg, ReconfigCommit):
                continue
            if (
                msg.joiner is not None
                and msg.row_seed is not None
                and msg.joiner == self.core.code.N
                and msg.epoch <= self.core.cfg_epoch
            ):
                # restart of a post-join checkpoint: the epoch is already
                # installed but the boot-time code predates the join
                self.core.adopt_code(extend_code(self.core.code, msg.row_seed))
                self.num_servers = self.core.code.N
            if msg.epoch > self.core.cfg_epoch:
                self.interpret(self.reconfig.apply_commit(msg, self.now()))
            self._remember_commit(msg)

    def _client_frame(self, conn: "_Inbound", frame) -> bool:
        """Hand one request from client ``conn.src`` to its core."""
        if _kind(frame) != "m" or len(frame) != 2:
            return False
        self.activity += 1
        src, msg = conn.src, frame[1]
        if isinstance(msg, (ReconfigPropose, ReconfigCommit)):
            # membership control plane: coordinators speak it over
            # short-lived client connections (never fenced, so a behind
            # server can always be caught up)
            self.interpret(self.reconfig.handle_message(src, msg, self.now()))
            if isinstance(msg, ReconfigCommit):
                self._remember_commit(msg)
        else:
            self.interpret(self.core.handle_message(src, msg, self.now()))
        return True

    # ------------------------------------------------------------------
    # effect interpretation

    def interpret(self, effects) -> None:
        """Carry out the effects of the core and of every overlay."""
        for e in effects:
            cls = type(e)
            if cls is SendEffect:
                if type(e.msg) in (Heartbeat, DigestMsg):
                    # heartbeats and digests are periodic and idempotent:
                    # best-effort gossip frames, off the ARQ (retransmitting
                    # liveness evidence would defeat it)
                    channel = self._channels.get(e.dst)
                    if channel is not None:
                        channel.send_gossip(e.msg)
                else:
                    self._send(e.dst, e.msg)
            elif cls is ReplyEffect:
                self._send(e.client_id, e.msg)
            elif cls is SetTimerEffect:
                when = self._loop.time() + e.delay / 1000.0
                if e.timer_id == ("gc",):
                    when = self._gc_slot(when, e.delay / 1000.0)
                handle = self._loop.call_at(
                    when, self._on_timer, e.timer_id, self._epoch
                )
                self._timers[e.timer_id] = handle
            elif cls is CancelTimerEffect:
                handle = self._timers.pop(e.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif cls is PersistEffect:
                self._persist()
            elif cls is LogEffect:
                self.decision_log.append(e.entry)
                if self.audit_addr is not None:
                    self._append_audit(e.entry)
            elif cls is MembershipChangedEffect:
                self._on_membership_changed(e)
            elif cls in _PEER_TRANSITIONS:
                kind = _PEER_TRANSITIONS[cls]
                self.detector_log.append((self.now(), e.peer, kind))
                if self.on_detector_transition is not None:
                    self.on_detector_transition(self.node_id, e.peer, kind)
                if cls is PeerAliveEffect and self.repair is not None:
                    # a peer back from the dead likely missed writes:
                    # offer it our digest immediately (opportunistic repair)
                    self.interpret(
                        self.repair.on_peer_alive(e.peer, self.now())
                    )
            else:
                raise TypeError(f"unknown effect {e!r}")

    def _gc_slot(self, when: float, period: float) -> float:
        """The GC tick nearest ``when`` in this server's slot of the period.

        The core re-arms its periodic GC ``gc_interval`` after *handling* a
        tick, so servers that share an event loop drift into phase groups:
        ticks that once fired in the same loop iteration are re-armed
        together and stay together.  Which servers end up grouped decides
        how many of a round's Del notices a receiver absorbs per commit,
        and it differed from one run to the next (commits per operation,
        and with them throughput, by 10 %).  Fixed slots -- server ``i``
        ticks at ``i/N`` of the period on the loop clock -- keep the rounds
        evenly out of phase however late a tick is handled, and keep the
        rate exact instead of ``1 / (gc_interval + loop lag)``.
        """
        offset = self.node_id * period / self.num_servers
        return round((when - offset) / period) * period + offset

    def _on_membership_changed(self, e: MembershipChangedEffect) -> None:
        """React to an installed membership commit: refresh every cache
        derived from the server set (peer fanout, overlays, detector)."""
        self.num_servers = self.core.code.N
        retired = set(range(self.core.code.N)) - set(e.members)
        if self.repair is not None:
            self.repair.refresh_peers()
        if self.detector is not None:
            for p in retired:
                self.detector.forget(p)
            if e.joiner is not None and e.joiner != self.node_id:
                self.detector.watch(e.joiner, self.now())
        for p in retired:
            self.peers.pop(p, None)
            self._peer_conn.pop(p, None)
            ch = self._channels.pop(p, None)
            if ch is not None:
                asyncio.ensure_future(ch.stop())
        if self.on_membership_change is not None:
            self.on_membership_change(self.node_id, e)

    def _send(self, dst: int, msg) -> None:
        if dst < self.num_servers:
            channel = self._channels.get(dst)
            if channel is not None:
                channel.send(msg)
        else:
            self._held_replies.append((dst, msg))
            self._schedule_commit()

    def _on_timer(self, timer_id: tuple, epoch: int) -> None:
        if epoch != self._epoch or self.halted:
            return
        self._timers.pop(timer_id, None)
        if timer_id[0] == "fd":
            if self.detector is not None:
                self.interpret(
                    self.detector.handle_timer(timer_id, self.now())
                )
            return
        if timer_id[0] == "rep":
            if self.repair is not None:
                self.interpret(self.repair.handle_timer(timer_id, self.now()))
            return
        if timer_id[0] == "scrub":
            if self.scrub is not None:
                self.interpret(self.scrub.handle_timer(timer_id, self.now()))
                self._scrub_disk()
            return
        self.interpret(self.core.handle_timer(timer_id, self.now()))
        if self._deferred:
            # the GC slot: state and acks that no output has asked a
            # commit for ride this one, so an ack waits one period at most
            self._schedule_commit()

    def _persist(self) -> None:
        self._dirty = True
        self._defer_commit()

    def _defer_commit(self) -> None:
        """Dirty state or an owed ack waits for a commit: the next one that
        held output asks for, or the next GC slot (``_on_timer``).  A
        server without a GC period has no slot, so it asks now."""
        if self.core.config.gc_interval is None:
            self._schedule_commit()

    def _schedule_commit(self) -> None:
        """Ask for one ``_commit`` covering what is dirty or held now.

        Held output that someone waits on asks for it -- a client reply, a
        peer data frame, gossip, an audit record -- and so does the GC
        slot; state and acks alone wait (:meth:`_defer_commit`).
        Idempotent.  With no commit in flight it is queued for the next
        loop iteration: asyncio runs only the handles that were ready when
        an iteration started, so a commit scheduled by the first frame of
        an iteration runs in the next one, ahead of every
        ``data_received`` the next ``select`` dispatches -- the batch is
        what one iteration handled.  With one in flight nothing is queued;
        the request is remembered and ``_disk_done`` queues the follow-up,
        so a batch grows for exactly as long as the disk takes.
        """
        if not self._commit_scheduled and not self.halted:
            self._commit_scheduled = True
            if self._in_flight is None:
                self._loop.call_soon(self._commit, self._epoch)

    @property
    def _deferred(self) -> bool:
        """Memory is ahead of the file, or an ack is owed: the next
        commit, whoever asks for it, takes these along."""
        return self._dirty or bool(self._held_acks)

    @property
    def committing(self) -> bool:
        """A commit is scheduled or in flight.  Memory can be ahead of the
        file without one (:attr:`_deferred`), held output cannot."""
        return self._commit_scheduled or self._in_flight is not None

    async def committed(self) -> None:
        """Commit what waits for a GC slot, then return once no commit is
        scheduled and none is in flight.

        Everything handled before the call is then on disk and everything
        it held has been released -- unless the disk refused the write
        (the loop's exception handler was told; the output stays held
        until the next commit retries) or the server was killed meanwhile:
        a halted server flushes nothing, so ``kill`` loses what only
        waited.
        """
        if self._deferred:
            self._schedule_commit()  # a no-op once halted
        while self.committing:
            if self._in_flight is not None:
                # ``wait`` neither raises the disk's error nor cancels the
                # write when the waiter is cancelled; ``_disk_done`` was
                # registered first, so it has run by the time we resume
                await asyncio.wait({self._in_flight})
            else:
                await asyncio.sleep(0)  # the queued ``_commit`` runs first

    def _commit(self, epoch: int) -> None:
        """Group commit, pipelined: snapshot here, disk on a thread,
        release in ``_disk_done``.

        The invariant is the module docstring's output barrier: client
        replies, acks, peer data frames, gossip, replays and retransmits
        all wait for a commit, and audit records are pushed when it lands.

        This callback is the *snapshot*: it encodes the checkpoint from
        the live objects (zero-copy, so the capture must not outlive the
        callback -- only the assembled ``bytes`` cross to the thread) and,
        in the same step, detaches everything held right now into one
        batch.  Whatever a handler produces from here on shows state this
        checkpoint lacks and waits for the next commit; at most one is in
        flight per server.  A clean server, a server without a store and
        a checkpoint the file already holds release at once.
        """
        if epoch != self._epoch or self.halted:
            return  # scheduled by an incarnation that has since crashed
        self._commit_scheduled = False
        disk = None
        if self._dirty:
            if self.store is not None:
                self.core.stats.persists += 1
                disk = self.store.persist(
                    capture_server_state(self.core, self), defer=True
                )
            self._dirty = False
        batch = self._detach_held()
        if disk is None:
            self._audit_landed(batch.audit)
            self._release(batch)
            return
        write, landed = disk
        self._in_flight = self._loop.run_in_executor(None, write)
        self._in_flight.add_done_callback(
            partial(self._disk_done, epoch, batch, landed)
        )

    def _detach_held(self) -> _HeldBatch:
        """Everything held behind the barrier, as of the snapshot."""
        replies, self._held_replies = self._held_replies, []
        acks, self._held_acks = self._held_acks, {}
        return _HeldBatch(
            replies,
            # the watermark the snapshot holds -- by release time the
            # receiver has moved on to frames the file lacks -- and the
            # connection id of the hello it follows
            [
                (src, w, getattr(self._recv.get(src), "last", 0),
                 self._peer_conn.get(src))
                for src, w in acks.items()
            ],
            [
                (channel, *held)
                for channel in self._channels.values()
                if (held := channel.detach()) is not None
            ],
            len(self._audit_log),
        )

    def _disk_done(self, epoch, batch, landed, fut: asyncio.Future) -> None:
        """The disk half of the commit in flight is over (on the loop)."""
        self._in_flight = None
        exc = fut.exception()
        if exc is None:
            # whoever is alive now, the file is that checkpoint -- and the
            # audit records of the events in it are as durable as they are
            landed()
            self._audit_landed(batch.audit)
        if epoch != self._epoch:
            return  # crashed with the write in flight: nobody sees the batch
        if exc is not None:
            # as when the disk failed inside ``_commit``: nothing is
            # released, the server stays dirty, the next commit retries
            self._dirty = True
            self._commit_scheduled = False
            self._reclaim(batch)
            self._loop.call_exception_handler({
                "message": f"server {self.node_id}: checkpoint write failed",
                "exception": exc,
            })
            return
        self._release(batch)
        if self._commit_scheduled:
            self._loop.call_soon(self._commit, epoch)

    def _release(self, batch: _HeldBatch) -> None:
        """``batch``'s checkpoint is durable: let its output out, in order."""
        for dst, msg in batch.replies:
            # a client that has gone re-requests through its retry policy
            self._write_frame(self._clients.get(dst), ("m", msg))
        # an ack rides in the peer's last run frame when there is one;
        # ``conn`` tells the peer which of its connections it belongs to
        owed = {
            src: (conn, upto)
            for src, _transport, upto, conn in batch.acks
            if conn is not None
        }
        carried = set()
        for channel, transport, frames in batch.frames:
            if channel.release(transport, frames, owed.get(channel.peer_id)):
                carried.add(channel.peer_id)
        for src, transport, upto, _conn in batch.acks:
            if src not in carried:
                self._write_frame(transport, ("a", upto))

    def _reclaim(self, batch: _HeldBatch) -> None:
        """Put a batch whose write failed back in front of what is held."""
        self._held_replies[:0] = batch.replies
        for src, transport, _upto, _conn in batch.acks:
            # a newer connection from ``src`` is the one that gets the ack
            self._held_acks.setdefault(src, transport)
        for channel, transport, frames in batch.frames:
            channel.reclaim(transport, frames)

    def _write_frame(self, transport, frame) -> None:
        """Write one frame on its own (a reply, an ack, a hello)."""
        if transport is None or transport.is_closing():
            return
        transport.write(wire.encode_frame(frame))
        self.frames_sent += 1
        self.flushes += 1

    def _scrub_disk(self) -> None:
        """Disk-side scrub: re-verify the at-rest checkpoint each round
        and heal detected rot by re-persisting from live memory (the
        in-memory core is authoritative while the server is up)."""
        if self.store is None or self.scrub is None or self.halted:
            return
        ok = self.store.verify_file(self.node_id)
        if ok is None:
            return
        stats = self.scrub.stats
        if ok:
            stats.checkpoints_verified += 1
            return
        stats.checkpoints_corrupt += 1
        # the failed verify dropped the store's skip-if-unchanged entry,
        # so the next commit rewrites the file even if nothing changed
        self._persist()
        stats.checkpoints_rewritten += 1

    # ------------------------------------------------------------------
    # audit streaming

    def _append_audit(self, entry: tuple) -> None:
        """Mirror one decision-log entry as a wire-ready audit record."""
        kind = entry[0]
        if kind in ("write", "migrate"):
            # a migration install is a write by the coordinator session
            _, obj, tag, opid, _client = entry
            rec_kind = "write"
        elif kind == "apply":
            _, obj, tag = entry
            opid, rec_kind = None, "apply"
        elif kind == "read-return":
            _, _, tag, opid, obj, _client = entry
            rec_kind = "read"
        elif kind == "repair-install":
            # a repaired value is a write the server missed: stream it as
            # an apply record (opid=None -> corroboration, no new edges)
            _, obj, tag = entry
            opid, rec_kind = None, "apply"
        else:
            return  # gc-del and friends carry no audit information
        if self.audit_key_map is not None:
            slot = obj
            obj = self.audit_key_map.get(slot, obj)
            gen = self.audit_gen.get(slot, 0)
        else:
            gen = 0
        self._audit_log.append(
            AuditOp(
                server=self.audit_node,
                seq=len(self._audit_log) + 1,
                kind=rec_kind,
                obj=obj,
                tag=tag,
                opid=opid,
                time=self.now(),
                shard=self.audit_shard,
                gen=gen,
                epoch=self.core.cfg_epoch,
            )
        )
        self._schedule_commit()  # the auditor waits for the record

    def _audit_landed(self, durable: int) -> None:
        """The first ``durable`` audit records are on disk: push them."""
        self._audit_durable = durable
        if self._audit is not None:
            self._audit.push()



class _AuditStream(_Framed):
    """A server's connection to its auditor.  Records go out when the
    commit that makes them durable lands, one write per commit; the
    auditor never answers, so any frame from it closes the connection."""

    def __init__(self, server: AsyncioServer):
        super().__init__(server)
        self.server = server
        #: records of the log already written on this connection
        self.sent = 0
        self._paused = False

    def attach(self) -> None:
        """Say hello and replay the durable log; the auditor dedups."""
        self.transport.write(wire.encode_frame(("ha", self.server.audit_node)))
        self.server._audit = self
        self.push()

    def frame_received(self, frame) -> None:
        self.transport.close()

    def push(self) -> None:
        """Write every durable record not yet sent on this connection."""
        s = self.server
        records = s._audit_log[self.sent : s._audit_durable]
        if records and not self._paused and not self.transport.is_closing():
            self.sent = s._audit_durable
            self.transport.write(wire.encode_frames([("r", r) for r in records]))

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self.push()


class AsyncioClient:
    """A :class:`ClientCore` speaking wire frames to its home server.

    ``addresses`` maps server ids to listener addresses; when the core
    fails over (:class:`~repro.protocol.effects.HomeServerSwitchEffect`)
    the client force-closes its connection and the dial loop redials the
    *new* home server's address.  Switches are recorded in ``switch_log``.
    A reply of the wrong shape closes the connection, which redials.
    """

    def __init__(
        self,
        core: ClientCore,
        server_addr: tuple[str, int],
        on_settled=None,
        addresses: dict[int, tuple[str, int]] | None = None,
    ):
        self.core = core
        self.node_id = core.node_id
        self._addr = server_addr
        self._addresses = dict(addresses or {})
        self._on_settled = on_settled
        #: the latest connection; requests go out while it is open
        self._conn: _ClientConn | None = None
        #: resolved by the first connection
        self._up: asyncio.Future | None = None
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self._settled: asyncio.Future | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        #: (old, new, opid) home-server switches, oldest first
        self.switch_log: list[tuple[int, int, object]] = []
        #: request frames written (hello excluded); feeds frames-per-op
        self.frames_sent = 0
        #: reply frames rejected by the frame CRC and dropped
        self.frames_corrupt = 0

    def _now(self) -> float:
        return _now_ms(self._loop)

    async def start(self) -> None:
        """Dial the home server; a typed :class:`HomeServerUnavailable`
        (``attempts=0``) if no connection is up in ``CLIENT_START_TIMEOUT``."""
        self._loop = asyncio.get_running_loop()
        self._up = self._loop.create_future()
        self._task = asyncio.ensure_future(_redial(self._target, self._connected))
        await asyncio.wait({self._up}, timeout=CLIENT_START_TIMEOUT)
        if not self._up.done():
            raise HomeServerUnavailable(
                None, self.core.server_id, 0, CLIENT_START_TIMEOUT * 1000.0
            )

    def _target(self) -> tuple:
        server_id = self.core.server_id
        addr = self._addresses.get(server_id, self._addr)
        return partial(_ClientConn, self, server_id), *addr

    def _connected(self, conn: "_ClientConn") -> None:
        if conn.server_id != self.core.server_id:
            # the core switched home servers while this one was dialled
            conn.transport.close()
            return
        conn.transport.write(wire.encode_frame(("hc", self.node_id)))
        self._conn = conn
        if not self._up.done():
            self._up.set_result(None)

    def notify_home_suspected(self, peer: int) -> None:
        """Failure-detector hint: the client's home server looks dead.

        Advisory -- triggers the core's early failover (reads re-sent to
        the next candidate, sticky rotation otherwise); a false suspicion
        costs a redial, never correctness.
        """
        if self._closed or self.core.server_id != peer or not self.core.failover:
            return
        self.interpret(self.core.suspect_home(self._now()))

    async def close(self) -> None:
        self._closed = True
        self._conn = None
        await _reap(
            self._task, "client %d dial loop failed during close", self.node_id
        )
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------

    async def write(self, obj: int, value) -> Operation:
        """Invoke write(X, v) and await its completion (or fast failure)."""
        op, effects = self.core.start_write(obj, value, self._now())
        return await self._settle(op, effects)

    async def read(self, obj: int) -> Operation:
        """Invoke read(X) and await its completion (or fast failure)."""
        op, effects = self.core.start_read(obj, self._now())
        return await self._settle(op, effects)

    async def migrate(self, obj: int, value, gen: int) -> Operation:
        """Install a migrated value (view-change coordinators only)."""
        op, effects = self.core.start_migrate(obj, value, gen, self._now())
        return await self._settle(op, effects)

    async def _settle(self, op: Operation, effects) -> Operation:
        self._settled = self._loop.create_future()
        self.interpret(effects)
        await self._settled
        self._settled = None
        return op

    def interpret(self, effects) -> None:
        for e in effects:
            cls = type(e)
            if cls is SendEffect:
                conn = self._conn
                if conn is not None and not conn.transport.is_closing():
                    conn.transport.write(wire.encode_frame(("m", e.msg)))
                    self.frames_sent += 1
                # else: disconnected; the retry timer re-sends
            elif cls is SetTimerEffect:
                handle = self._loop.call_later(
                    e.delay / 1000.0, self._on_timer, e.timer_id
                )
                self._timers[e.timer_id] = handle
            elif cls is CancelTimerEffect:
                handle = self._timers.pop(e.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif cls is OpSettledEffect:
                if self._settled is not None and not self._settled.done():
                    self._settled.set_result(e.op)
                if self._on_settled is not None:
                    self._on_settled(e.op)
            elif cls is HomeServerSwitchEffect:
                self.switch_log.append((e.old, e.new, e.opid))
                # force the dial loop off the old connection; it redials
                # the new home server's address.  The SendEffect that may
                # follow finds no connection yet -- the retry timer
                # re-sends once the new connection is up.
                conn, self._conn = self._conn, None
                if conn is not None:
                    conn.transport.close()
            else:
                raise TypeError(f"unknown effect {e!r}")

    def _on_timer(self, timer_id: tuple) -> None:
        self._timers.pop(timer_id, None)
        if not self._closed:
            self.interpret(self.core.handle_timer(timer_id, self._now()))


class _ClientConn(_Framed):
    """A client's connection: replies in, attributed to the server it was
    dialled to; a frame of the wrong shape closes it."""

    def __init__(self, client: AsyncioClient, server_id: int):
        super().__init__(client)
        self.client = client
        self.server_id = server_id

    def frame_received(self, frame) -> None:
        if _kind(frame) == "m" and len(frame) == 2:
            c = self.client
            c.interpret(c.core.handle_message(self.server_id, frame[1], c._now()))
        else:
            self.transport.close()


class AsyncioCluster:
    """An in-process N-server CausalEC cluster on localhost TCP sockets.

    The live counterpart of :class:`~repro.core.cluster.CausalECCluster`:
    same code/config parameters, same ``add_client``/``value``/``history``
    surface, but every method that touches the network is a coroutine.

    Quickstart::

        cluster = AsyncioCluster(example1_code())
        await cluster.start()
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(7))
        await cluster.quiesce()
        await cluster.shutdown()
    """

    def __init__(
        self,
        code: LinearCode,
        config: ServerConfig | None = None,
        store_dir: str | os.PathLike | None = None,
        retry: RetryPolicy | None = None,
        host: str = "127.0.0.1",
        chaos: LiveFaultInjector | None = None,
        detector: FailureDetectorConfig | None = None,
        audit_addr: tuple[str, int] | None = None,
        repair: RepairConfig | None = None,
        scrub: ScrubConfig | None = None,
        auto_replace: bool = False,
    ):
        self.code = code
        #: the founding code never changes (clients and clock dimensions
        #: are anchored to it); joins extend ``current_code``
        self.current_code = code
        self.num_servers = code.N
        self.config = config or ServerConfig()
        self.retry = retry
        self.chaos = chaos
        self.repair = repair
        self.scrub_config = scrub
        self.host = host
        self.detector_config = detector
        self.audit_addr = audit_addr
        #: escalate the detector's confirmed-dead signal into an automatic
        #: replace of the failed server (requires a detector config with
        #: ``confirm_after`` set)
        self.auto_replace = auto_replace
        self.history = History()
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="causalec-ckpt-")
            store_dir = self._tmpdir.name
        self.store = FileDurableStore(store_dir)
        #: hook called with every freshly built AsyncioServer *before* it
        #: starts (founding, replacement, or joiner) -- sharded clusters
        #: use it to stamp audit identity on new incarnations
        self.on_server_created = None
        self.servers = [
            self._make_server(ServerCore(i, code, self.config))
            for i in range(code.N)
        ]
        self.clients: list[AsyncioClient] = []
        #: aggregated (observer server, peer, kind) transitions, in order
        self.detector_transitions: list[tuple[int, int, str]] = []
        self._fault_handles: list[asyncio.TimerHandle] = []
        # -- dynamic membership (coordinator state) --------------------
        #: the group's committed membership epoch (0 = founding)
        self.cfg_epoch = 0
        #: server ids removed from the group (slots stay in the code)
        self.retired: set[int] = set()
        #: every committed reconfiguration, in epoch order
        self._commit_log: list[ReconfigCommit] = []
        #: (kind, epoch, members, joiner) history for operators and tests
        self.reconfig_log: list[tuple[str, int, tuple, int | None]] = []
        self._replacing: set[int] = set()
        self._auto_replaced: set[int] = set()
        self._replace_tasks: list[asyncio.Task] = []
        self._reconfig_lock = asyncio.Lock()
        self._ctrl_seq = 0

    def _make_server(self, core: ServerCore) -> AsyncioServer:
        server = AsyncioServer(
            core,
            self.store,
            host=self.host,
            chaos=self.chaos,
            detector=self.detector_config,
            audit_addr=self.audit_addr,
            repair=self.repair,
            scrub=self.scrub_config,
        )
        server.on_detector_transition = self._on_detector_transition
        if self.on_server_created is not None:
            self.on_server_created(server)
        return server

    async def start(self) -> None:
        """Bind every server, exchange addresses, dial all peer channels."""
        if self.chaos is not None:
            self.chaos.arm(asyncio.get_running_loop())
        for s in self.servers:
            await s.start()
        addresses = {s.node_id: (s.host, s.port) for s in self.servers}
        for s in self.servers:
            s.set_peers(addresses)
        for s in self.servers:
            s.connect_peers()

    def frame_stats(self) -> dict[str, int]:
        """Aggregate wire-frame counters across servers and clients.

        ``frames_sent`` counts frames put on a socket -- a run of data
        messages is one frame -- and ``flushes`` counts ``transport.write``
        calls (a client writes one request frame per call).  A commit's
        messages to a peer and the ack it owes that peer share one frame,
        so frames/flushes sits near 1 by design.  Hellos of clients and
        audit-stream frames are not counted.
        """
        requests = sum(c.frames_sent for c in self.clients)
        return {
            "frames_sent": sum(s.frames_sent for s in self.servers) + requests,
            "flushes": sum(s.flushes for s in self.servers) + requests,
        }

    def repair_stats(self) -> dict[str, float]:
        """Aggregate anti-entropy counters across servers (zeros if off)."""
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.repair is None:
                continue
            for k, v in vars(s.repair.stats).items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def scrub_stats(self) -> dict[str, float]:
        """Aggregate scrub counters across servers (zeros if off).

        Adds ``frames_corrupt`` (CRC-rejected inbound frames, servers +
        clients) and ``checkpoint_reports`` (store-level detections,
        scrub *and* load paths) so one dict answers "was every injected
        corruption detected somewhere?".
        """
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.scrub is None:
                continue
            for k, v in vars(s.scrub.stats).items():
                totals[k] = totals.get(k, 0) + v
        totals["frames_corrupt"] = sum(
            s.frames_corrupt for s in self.servers
        ) + sum(c.frames_corrupt for c in self.clients)
        totals["checkpoint_reports"] = self.store.corrupt_detected()
        # guard-path detections (read/val-inq/encoding) are on the core's
        # stats, not the scrub overlay's -- surface both
        totals["integrity_quarantines"] = sum(
            s.core.stats.integrity_quarantines for s in self.servers
        )
        return totals

    def _on_detector_transition(self, observer: int, peer: int, kind: str):
        self.detector_transitions.append((observer, peer, kind))
        if kind == "suspect":
            for client in self.clients:
                client.notify_home_suspected(peer)
        elif kind == "dead" and self.auto_replace:
            self._maybe_auto_replace(peer)

    def _maybe_auto_replace(self, peer: int) -> None:
        """Escalate a confirmed-dead signal into a background replace.

        Idempotent across observers: every live server eventually confirms
        the same dead peer, but only the first signal starts a replacement
        (``_auto_replaced`` clears only if the attempt itself fails).
        """
        if (
            peer in self._replacing
            or peer in self.retired
            or peer in self._auto_replaced
        ):
            return
        self._auto_replaced.add(peer)
        task = asyncio.ensure_future(self._auto_replace(peer))
        self._replace_tasks.append(task)

    async def _auto_replace(self, peer: int) -> None:
        try:
            await self.replace_server(peer)
        except Exception:
            log.exception("auto-replace of server %d failed", peer)
            self._auto_replaced.discard(peer)

    async def add_client(
        self,
        server: int = 0,
        retry: RetryPolicy | None = None,
        failover: bool = False,
        failover_writes: bool = False,
        node_id: int | None = None,
        opid_counter=None,
    ) -> AsyncioClient:
        """Attach a client homed at ``server``.

        ``failover=True`` gives the client every other server as a
        failover candidate (in ring order after its home) and the address
        map to redial them; see :class:`~repro.protocol.client_core
        .ClientCore` for the read-only failover contract.

        ``node_id``/``opid_counter`` let a :class:`~repro.runtime
        .sharded_rt.ShardedSession` give its per-shard clients one shared
        session identity (ids must be >= the server count).
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no such server {server}")
        if node_id is None:
            node_id = self.num_servers + len(self.clients)
        elif node_id < self.num_servers:
            raise ValueError(f"client id {node_id} collides with a server id")
        candidates = None
        if failover:
            candidates = [
                (server + k) % self.num_servers
                for k in range(1, self.num_servers)
            ]
        core = ClientCore(
            node_id,
            server,
            history=self.history,
            retry=retry if retry is not None else self.retry,
            failover=candidates,
            failover_writes=failover_writes,
            opid_counter=opid_counter,
        )
        srv = self.servers[server]
        addresses = {s.node_id: (s.host, s.port) for s in self.servers}
        client = AsyncioClient(core, (srv.host, srv.port), addresses=addresses)
        self.clients.append(client)
        await client.start()
        return client

    def value(self, raw) -> np.ndarray:
        """Coerce a python scalar/list into an object value for this code."""
        field = self.code.field
        arr = np.asarray(raw)
        if arr.ndim == 0:
            arr = np.full(self.code.value_len, int(arr))
        return field.validate(arr)

    async def kill_server(self, i: int, forever: bool = False) -> None:
        """Crash server ``i``; ``forever=True`` models a machine that is
        never coming back (supervisors skip it; auto-replace may claim it).
        """
        await self.servers[i].kill(forever=forever)

    async def restart_server(self, i: int) -> None:
        server = self.servers[i]
        if server.permanently_failed:
            raise RuntimeError(
                f"server {i} is permanently failed; use replace_server"
            )
        server.set_peers(self._addresses())
        await server.restart()
        # the checkpoint restores cfg_epoch/cfg_retired, but the extended
        # code and missed epochs are reconstructed from the commit log
        server.install_commits(self._commit_log)
        server.connect_peers()

    # ------------------------------------------------------------------
    # dynamic membership (epoch-fenced reconfiguration)

    def _active_members(self) -> list[int]:
        return [s.node_id for s in self.servers if s.node_id not in self.retired]

    def _addresses(self) -> dict[int, tuple[str, int]]:
        return {
            s.node_id: (s.host, s.port)
            for s in self.servers
            if s.node_id not in self.retired
        }

    def _rewire_addresses(self) -> None:
        """Push the current address map to every active server and make
        sure each has a dialer channel to every (possibly new) peer."""
        addresses = self._addresses()
        for s in self.servers:
            if s.node_id in self.retired:
                continue
            s.set_peers(addresses)
            s.connect_peers()

    async def _reconfig_rpc(self, server: AsyncioServer, msg, timeout: float = 5.0):
        """One membership control request/reply (:func:`_control_rpc`).
        Control ids live far above any client id."""
        self._ctrl_seq += 1
        return await _control_rpc(
            server.host, server.port, 1_000_000 + self._ctrl_seq, msg, timeout
        )

    async def _commit_membership(
        self,
        members: tuple,
        joiner: int | None = None,
        row_seed: int | None = None,
        note: str = "reconfig",
    ) -> tuple[int, ReconfigCommit]:
        """Two-phase broadcast: propose to every live member, then commit.

        A failed (unreachable) propose aborts with nothing staged; a
        server that misses the commit catches up from the fence response
        or the cluster's restart replay.  Serialised: concurrent
        reconfigurations would race the epoch counter.
        """
        epoch = self.cfg_epoch + 1
        live = [
            s
            for s in self.servers
            if not s.halted and s.node_id in members and s.node_id != joiner
        ]
        propose = ReconfigPropose(epoch, tuple(members), joiner, row_seed)
        acks = await asyncio.gather(
            *(self._reconfig_rpc(s, propose) for s in live)
        )
        for ack in acks:
            if ack.epoch != epoch:
                raise RuntimeError(
                    f"propose for epoch {epoch} acked as {ack.epoch}"
                )
        commit = ReconfigCommit(epoch, tuple(members), joiner, row_seed)
        await asyncio.gather(*(self._reconfig_rpc(s, commit) for s in live))
        self.cfg_epoch = epoch
        self._commit_log.append(commit)
        self.reconfig_log.append((note, epoch, tuple(members), joiner))
        return epoch, commit

    async def replace_server(self, i: int) -> AsyncioServer:
        """Replace a permanently failed server with a fresh incarnation.

        The epoch bump is the fence: the dead incarnation's frames (and
        redials) are rejected by every peer from the commit on.  The
        replacement keeps slot ``i`` -- same id, same code row, same
        vector-clock component -- and starts from an empty disk; the
        anti-entropy overlay re-derives its history and re-encodes its
        codeword row from any live recovery set.
        """
        if i in self.retired:
            raise ValueError(f"server {i} is retired")
        async with self._reconfig_lock:
            if i in self._replacing:
                raise RuntimeError(f"server {i} is already being replaced")
            self._replacing.add(i)
            try:
                old = self.servers[i]
                if not old.halted:
                    await old.kill(forever=True)
                members = tuple(self._active_members())
                epoch, _ = await self._commit_membership(members, note="replace")
                # the replacement must not inherit the dead incarnation's
                # disk: a stale checkpoint would resurrect pre-fence state
                self.store.wipe(i)
                core = ServerCore(
                    i,
                    self.current_code,
                    self.config,
                    clock_dim=old.core.clock_dim,
                )
                core.cfg_epoch = epoch
                core.set_retired(self.retired)
                new = self._make_server(core)
                # the replacement inherits the dead server's endpoint so
                # existing clients (and peer address maps) keep working
                new.port = old.port
                new.commit_chain = sorted(
                    self._commit_log, key=lambda c: c.epoch
                )
                self.servers[i] = new
                await new.start()
                self._rewire_addresses()
                return new
            finally:
                self._replacing.discard(i)

    async def add_server(self, row_seed: int | None = None) -> AsyncioServer:
        """Grow the group: commit an extended code and boot the joiner.

        Every member derives the identical extension from the committed
        ``row_seed`` alone (no matrices on the wire).  The joiner keeps the
        founding vector-clock dimension and is *non-minting*: it stores
        redundancy, serves reads and repairs, but no client write is homed
        on it (see :mod:`repro.protocol.reconfig_core`).
        """
        async with self._reconfig_lock:
            joiner = self.current_code.N
            if any(c.node_id == joiner for c in self.clients):
                raise ValueError(
                    f"client id {joiner} collides with the joining server; "
                    "attach clients with explicit high node_ids before joins"
                )
            if row_seed is None:
                # deterministic per epoch so reruns commit identical codes
                row_seed = 0xCEC0DE + self.cfg_epoch
            new_code = extend_code(self.current_code, row_seed)
            members = tuple(self._active_members() + [joiner])
            validate_membership(new_code, members)
            epoch, _ = await self._commit_membership(
                members, joiner=joiner, row_seed=row_seed, note="add"
            )
            core = ServerCore(
                joiner, new_code, self.config, clock_dim=self.code.N
            )
            core.cfg_epoch = epoch
            core.set_retired(self.retired)
            new = self._make_server(core)
            new.commit_chain = sorted(self._commit_log, key=lambda c: c.epoch)
            self.current_code = new_code
            self.num_servers = new_code.N
            self.servers.append(new)
            await new.start()
            self._rewire_addresses()
            return new

    async def remove_server(self, i: int) -> None:
        """Shrink the group: retire server ``i`` (its code slot remains).

        Refuses memberships that would strand an object (the survivors
        must form a recovery set for every object).  The evicted server is
        told (if alive) and then permanently halted.
        """
        async with self._reconfig_lock:
            members = tuple(m for m in self._active_members() if m != i)
            if len(members) == len(self._active_members()):
                raise ValueError(f"server {i} is not an active member")
            validate_membership(self.current_code, members)
            epoch, commit = await self._commit_membership(members, note="remove")
            victim = self.servers[i]
            if not victim.halted:
                try:
                    await self._reconfig_rpc(victim, commit)
                except (OSError, asyncio.TimeoutError):
                    pass  # it is being removed; fencing handles the rest
                await victim.kill(forever=True)
            self.retired.add(i)
            self._rewire_addresses()

    def reset_server(self, i: int) -> None:
        """Sever server ``i``'s established connections (no crash)."""
        self.servers[i].reset_connections()

    def apply_fault_plan(self, plan: FaultPlan, time_scale: float = 1.0) -> None:
        """Arm a :class:`~repro.sim.faults.FaultPlan` on the event loop.

        The same schedule object the simulator consumes: halts become
        :meth:`kill_server`, restarts :meth:`restart_server`, and resets --
        ignored by the simulator -- become :meth:`reset_server`.  Times are
        schedule milliseconds, mapped to real seconds via ``time_scale``
        (matching :class:`~repro.runtime.chaos_rt.LiveFaultInjector`).
        """
        loop = asyncio.get_running_loop()
        spawn = asyncio.ensure_future

        def rot_memory(i: int) -> None:
            if not self.servers[i].halted:
                self.servers[i].core.corrupt_codeword(seed=plan.rot_seed)

        for entries, fire in (
            (plan.halts, lambda i: spawn(self.kill_server(i))),
            (plan.kill_forevers, lambda i: spawn(self.kill_server(i, True))),
            (plan.restarts, lambda i: spawn(self.restart_server(i))),
            (plan.resets, self.reset_server),
            (plan.rots, rot_memory),
            (plan.disk_rots, lambda i: self.store.corrupt_file(i, plan.rot_seed)),
            (plan.torn_writes, self.store.truncate_file),
        ):
            for at, server in entries:
                self._fault_handles.append(
                    loop.call_later(at * time_scale / 1000.0, fire, server)
                )

    async def quiesce(
        self, idle_rounds: int = 4, poll: float = 0.03, timeout: float = 30.0
    ) -> None:
        """Wait until no frames have been delivered for a few poll rounds
        and no server has a commit scheduled or in flight: what the
        servers hold in memory is then what their files hold."""
        deadline = asyncio.get_running_loop().time() + timeout
        stable = 0
        last = None
        while stable < idle_rounds:
            snapshot = tuple(s.activity for s in self.servers)
            if snapshot == last:
                stable += 1
            else:
                stable = 0
                last = snapshot
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError("cluster did not quiesce in time")
            await asyncio.sleep(poll)
        await self.committed()

    async def committed(self) -> None:
        """Return once no server has a commit scheduled or in flight, nor
        state or acks waiting for one: memory equals the file.  (A disk
        that keeps refusing the write keeps this retrying.)"""
        # a GC tick, or frames a flush releases, can leave work on one
        # server while another's is awaited, hence the loop; each pass
        # flushes every server once and waits one disk write at most each
        servers = self.servers
        while servers:
            for s in servers:
                await s.committed()
            servers = [
                s for s in self.servers
                if s.committing or s._deferred and not s.halted
            ]

    async def shutdown(self) -> None:
        for handle in self._fault_handles:
            handle.cancel()
        self._fault_handles.clear()
        for task in self._replace_tasks:
            await _reap(task, "auto-replace failed during shutdown")
        self._replace_tasks.clear()
        for client in self.clients:
            await client.close()
        for server in self.servers:
            await server.shutdown()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
