"""Pipelined group commit behind the output barrier (live runtime).

The invariant under test (``AsyncioServer._commit`` / ``_disk_done``): no
byte that reveals a state change, or acknowledges a delivered frame, leaves
a server before a checkpoint containing that state and that receive
watermark is durable -- with the checkpoint's disk half on a worker thread
and the event loop handling further events meanwhile.

* **order spy** -- over the ``write`` of the socket transports the servers
  own, ``os.fsync`` and ``FileDurableStore.persist``: a server writes no
  ``("m", ...)``, ``("a", ...)`` or ``("d", ...)`` frame showing more than
  the last checkpoint whose slot fsync has returned.  Run over a plain
  workload, and over one where a gate stops a write in flight while the
  server handles more -- there it must catch two mutants: an ack written
  with the release-time watermark, and held frames not split at the
  snapshot;
* **batching** -- N frames from 4 peers handled in one loop iteration cost
  one checkpoint write and one ack per peer, carrying the final watermark;
* **crash inside the barrier** -- a server killed after handling but before
  committing never lets the held output out, its stale commit is a no-op,
  it restarts with the last committed clock, its peers redeliver their
  unacked tails exactly once and its clients' retries are answered; the
  online auditor stays clean over a seeded 200-op run with three such
  kills;
* **crash with a write in flight** -- the same, with the disk half stopped
  at each of its three steps, and there either landing or lost;
* **disk error** -- a disk half that fails releases nothing, and the next
  commit writes and releases everything exactly once, in order;
* **quiesce** -- a quiesced cluster's files hold what its servers hold, one
  non-empty slot per server, the other empty, and no temp file;
* **commit on output** -- a delivery whose only output is an ack (a
  ``Del``) writes no checkpoint until the server's next GC slot, and its
  ack leaves with that slot's commit; a kill inside that window loses the
  delivery and the peer's replay delivers it exactly once; a server
  without a GC period commits per event; ``committed`` / ``quiesce`` flush
  what waits, so a restart comes back with the clock it had;
* **power cuts** -- what a machine that stops at any step of a write leaves
  in the two slots loads as the last checkpoint whose batch was released,
  or as no checkpoint when a full-length slot is damaged -- never as an
  older one -- and the next write's generation beats both slots;
* **GC slots** -- the periodic GC tick of server ``i`` is armed for slot
  ``i/N`` of the period on the loop clock and stays there when the loop
  lags, so servers sharing a loop never drift into phase groups (read off
  the armed deadlines: no wall-clock bound).

The whole file runs under a 10 us thread switch interval, so the worker
threads preempt the loop (and each other) as often as the interpreter lets
them.
"""

from __future__ import annotations

import asyncio
import errno
import math
import os
import stat
import sys
import threading
import time

import numpy as np
import pytest

from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from repro.core.messages import App, Del
from repro.core.tags import Tag, VectorClock
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import (
    AsyncioCluster,
    AsyncioServer,
    FileDurableStore,
    _Inbound,
    _PeerChannel,
)
from repro.runtime.live_chaos import live_cluster

from tests.test_live_batching import _frames
from tests.test_live_integrity import _checkpoint


@pytest.fixture(scope="module", autouse=True)
def _short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


async def _until(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


def _is_dir_fd(fd: int) -> bool:
    return stat.S_ISDIR(os.fstat(fd).st_mode)


#: the transport class of every TCP connection on a selector event loop
_SOCKET_TRANSPORT = asyncio.selector_events._SelectorSocketTransport


def _owner(server, transport):
    """``(peer, connection)``: the peer ``server`` dialled on
    ``transport``, and the :class:`_Inbound` it accepted it as."""
    dialled = next(
        (j for j, ch in server._channels.items() if ch.transport is transport),
        None,
    )
    inbound = next(
        (c for c in server._inbound if c.transport is transport), None
    )
    return dialled, inbound


class _OrderSpy:
    """Checks every frame a server writes against what it has on disk.

    Spies on ``os.fsync``, ``FileDurableStore.persist`` and the ``write``
    of the socket transport class, which every connection a server accepts
    or dials uses (clients' stream writes pass through it too, and are
    told apart by not belonging to a server).  ``durable[s]`` is the
    content of the last checkpoint server ``s`` made durable.  It is
    copied at the snapshot (the capture is zero-copy) and noted only once
    the fsync of that very persist's slot file has returned on its worker
    thread -- or at once when the store found the file already holding
    that very state.  A frame is a violation when it shows more than that
    checkpoint holds: a data frame whose sequence number the checkpoint's
    send state has not reached (a run frame is judged by its *last*
    message), an ack -- standalone or piggybacked on a run -- above the
    checkpoint's receive watermark, a reply stamped with a clock the
    checkpoint's clock does not cover.
    """

    def __init__(self, cluster, monkeypatch):
        self.durable: dict[int, dict] = {}
        self.written = {"m": 0, "a": 0, "d": 0}
        #: the thread of every slot file fsync (``append`` is atomic)
        self.file_fsyncs: list[int] = []
        self.violations: list[str] = []
        self._cluster = cluster
        #: the persist whose disk half runs on this thread: (server, content)
        self._writing = threading.local()
        spy = self

        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            if not _is_dir_fd(fd):
                spy.file_fsyncs.append(threading.get_ident())
                writing = getattr(spy._writing, "persist", None)
                if writing is not None:
                    sid, content = writing
                    spy.durable[sid] = content  # durable from here on

        monkeypatch.setattr(os, "fsync", fsync)

        store = cluster.store
        real_persist = store.persist

        def persist(checkpoint, defer=False):
            sid = checkpoint.server_id
            content = {
                "vc": checkpoint.state["vc"],
                "recv": dict(checkpoint.transport["recv"]),
                "seq": {
                    j: st["seq"] for j, st in checkpoint.transport["send"].items()
                },
            }
            disk = real_persist(checkpoint, defer=defer)
            if disk is None:
                spy.durable[sid] = content  # the file held it already
                return None
            write, landed = disk

            def spied_write():
                me = threading.get_ident()
                before = spy.file_fsyncs.count(me)
                spy._writing.persist = (sid, content)
                try:
                    write()
                finally:
                    spy._writing.persist = None
                # a real write fsyncs exactly one file, its slot
                if spy.file_fsyncs.count(me) - before != 1:
                    spy.violations.append(f"server {sid}: no single slot fsync")

            return spied_write, landed

        monkeypatch.setattr(store, "persist", persist)

        real_write = _SOCKET_TRANSPORT.write

        def write(transport, data):
            spy._check(transport, bytes(data))
            return real_write(transport, data)

        monkeypatch.setattr(_SOCKET_TRANSPORT, "write", write)

    def _check(self, transport, data: bytes) -> None:
        for s in self._cluster.servers:
            dialled, inbound = _owner(s, transport)
            if dialled is not None or inbound is not None:
                break
        else:
            return  # a client's connection
        disk = self.durable.get(
            s.node_id, {"vc": None, "recv": {}, "seq": {}}
        )
        for frame in _frames([data]):
            kind = frame[0]
            if kind not in self.written:
                continue
            self.written[kind] += 1
            if kind == "d":
                ok = frame[1] + len(frame[2]) - 1 <= disk["seq"].get(dialled, 0)
                if len(frame) == 5:
                    # the ack owed to the peer, riding in its run
                    self.written["a"] += 1
                    ok = ok and frame[4] <= disk["recv"].get(dialled, 0)
            elif kind == "a":
                ok = frame[1] <= disk["recv"].get(inbound.src, 0)
            else:
                ts = getattr(frame[1], "ts", None)
                ok = ts is None or (disk["vc"] is not None and ts.leq(disk["vc"]))
            if not ok:
                self.violations.append(f"server {s.node_id} wrote {frame!r}")


def test_no_frame_leaves_between_handler_and_commit(monkeypatch):
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=20.0),
            retry=RetryPolicy(timeout=500.0, max_retries=4),
        )
        spy = _OrderSpy(cluster, monkeypatch)
        await cluster.start()
        clients = [await cluster.add_client(s) for s in (0, 3, 4)]
        for k in range(12):
            op = await clients[k % 3].write(k % code.K, cluster.value(k + 1))
            assert not op.failed
            op = await clients[(k + 1) % 3].read(k % code.K)
            assert not op.failed
        await cluster.quiesce()
        await cluster.shutdown()
        return spy

    spy = asyncio.run(run())
    # the run really exercised replies, acks, data frames and the disk
    assert all(spy.written.values()) and spy.file_fsyncs
    assert spy.violations == []


class _DiskGate:
    """Stops the disk half of one server's next commit at a chosen point.

    Wraps the ``os`` calls ``_write_checkpoint`` makes.  Once armed, the
    worker thread that opens one of the server's slots to overwrite it is
    followed through its write; at ``point`` it sets ``reached`` and waits
    for ``resume`` (set it beforehand for a gate that does not stop).  With
    ``error`` the thread then raises it instead of carrying on: the disk
    half dies there.  One commit only -- the gate disarms when it is
    reached.
    """

    POINTS = (
        "before-slot-write",
        "after-slot-fsync",
        "after-other-truncate",
    )

    def __init__(self, monkeypatch, store, server_id, point, error=None):
        assert point in self.POINTS
        self.reached = threading.Event()
        self.resume = threading.Event()
        self._armed = False
        self._thread = None
        slots = {os.fspath(store._path(server_id, slot)) for slot in (0, 1)}
        gate = self
        real_open, real_fsync, real_truncate = os.open, os.fsync, os.truncate

        def at(here):
            if not (gate._armed and gate._thread == threading.get_ident()):
                return
            if here != point:
                return
            gate._armed = False
            gate.reached.set()
            if not gate.resume.wait(10.0):
                raise TimeoutError("nobody opened the disk gate")
            if error is not None:
                raise error

        def open_(path, flags, *args, **kwargs):
            if gate._armed and path in slots and flags & os.O_TRUNC:
                gate._thread = threading.get_ident()
                at("before-slot-write")
            return real_open(path, flags, *args, **kwargs)

        def fsync(fd):
            real_fsync(fd)
            if not _is_dir_fd(fd):
                at("after-slot-fsync")

        def truncate(path, length):
            real_truncate(path, length)
            at("after-other-truncate")

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "truncate", truncate)

    def arm(self) -> None:
        self._armed = True


def _watermark(server, src: int) -> int:
    """``server``'s receive watermark for peer ``src`` (0: nothing yet)."""
    receiver = server._recv.get(src)
    return 0 if receiver is None else receiver.last


def _held(server) -> tuple[int, int, int]:
    """How much ``server`` holds behind the barrier: replies, acks, frames."""
    return (
        len(server._held_replies),
        len(server._held_acks),
        sum(len(ch._pending) for ch in server._channels.values()),
    )


def _ack_with_release_time_watermark(monkeypatch):
    real = AsyncioServer._release

    def release(server, batch):
        acks = [
            (src, transport, _watermark(server, src), conn)
            for src, transport, _upto, conn in batch.acks
        ]
        real(server, batch._replace(acks=acks))

    monkeypatch.setattr(AsyncioServer, "_release", release)


def _pending_not_split_at_snapshot(monkeypatch):
    real = _PeerChannel.release

    def release(channel, transport, frames, ack=None):
        late, channel._pending = channel._pending, []
        return real(channel, transport, frames + late, ack)

    monkeypatch.setattr(_PeerChannel, "release", release)


@pytest.mark.parametrize(
    "mutant",
    [None, _ack_with_release_time_watermark, _pending_not_split_at_snapshot],
    ids=lambda m: "real" if m is None else m.__name__.strip("_"),
)
def test_output_handled_with_a_write_in_flight_waits_for_the_next_commit(
    monkeypatch, mutant
):
    """The spy must bite: the two ways to get the pipelined release wrong
    are applied as mutants, and each must show up as a violation."""
    code = example1_code()
    victim_id = 2

    async def run():
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=None),
            retry=RetryPolicy(timeout=5000.0, max_retries=2),
        )
        spy = _OrderSpy(cluster, monkeypatch)
        gate = _DiskGate(monkeypatch, cluster.store, victim_id, "before-slot-write")
        if mutant is not None:
            mutant(monkeypatch)
        await cluster.start()
        first, second = [await cluster.add_client(victim_id) for _ in range(2)]
        remote = await cluster.add_client(0)
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        commits = []
        real_commit = victim._commit
        victim._commit = lambda epoch: (commits.append(epoch), real_commit(epoch))
        gate.arm()
        ops = [asyncio.ensure_future(first.write(0, cluster.value(1)))]
        await _until(gate.reached.is_set)
        # with that write in flight the victim handles a client write (its
        # App frames take sequence numbers the file lacks) and a peer's
        # App (a watermark the file lacks, and an ack owed for it)
        commits.clear()
        frames_sent = victim.frames_sent
        ops.append(asyncio.ensure_future(second.write(1, cluster.value(2))))
        ops.append(asyncio.ensure_future(remote.write(2, cluster.value(3))))
        await _until(lambda: all(_held(victim)))
        await asyncio.sleep(0.02)
        # all of it is held, behind a commit that is remembered, not queued
        assert victim.frames_sent == frames_sent
        assert victim._commit_scheduled and commits == []
        assert not ops[0].done() and not ops[1].done()
        gate.resume.set()
        for op in await asyncio.wait_for(asyncio.gather(*ops), 5.0):
            assert not op.failed
        await cluster.quiesce()
        await cluster.shutdown()
        return spy

    spy = asyncio.run(run())
    assert all(spy.written.values())
    if mutant is None:
        assert spy.violations == []
    else:
        assert spy.violations, "the order spy let a mutant through"


def _ack_applied_whatever_its_conn(monkeypatch):
    real = AsyncioServer._peer_frame

    def peer_frame(server, conn, frame):
        if type(frame) is not tuple or len(frame) != 5:
            return real(server, conn, frame)
        ok = real(server, conn, frame[:3])
        ch = server._channels.get(conn.src)
        if ok and ch is not None:
            ch._on_ack(frame[4])
        return ok

    monkeypatch.setattr(AsyncioServer, "_peer_frame", peer_frame)


@pytest.mark.parametrize(
    "mutant",
    [None, _ack_applied_whatever_its_conn],
    ids=lambda m: "real" if m is None else m.__name__.strip("_"),
)
def test_an_ack_captured_for_a_wiped_peers_old_connection_prunes_nothing(
    monkeypatch, mutant
):
    """Server ``s`` holds an ack for peer ``p``'s old connection when ``p``
    loses its disk and restarts, numbering from 1 again.  ``s``'s channel
    reaches the new ``p`` first, so the ack rides in a run to it, under
    the old connection id -- which the new ``p`` must not apply: its own
    first message, which ``s`` has not received, would be pruned and lost.
    """
    code = example1_code()
    s_id, p_id = 2, 0

    async def run():
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=None),
            retry=RetryPolicy(timeout=5000.0, max_retries=2),
        )
        gate = _DiskGate(monkeypatch, cluster.store, s_id, "before-slot-write")
        if mutant is not None:
            mutant(monkeypatch)
        await cluster.start()
        s, p = cluster.servers[s_id], cluster.servers[p_id]
        at_s, at_p = await cluster.add_client(s_id), await cluster.add_client(p_id)
        for k in range(3):  # the old p's watermark at s climbs past 1
            assert not (await at_p.write(k % code.K, cluster.value(k + 1))).failed
        await cluster.quiesce()
        carried = []  # (conn, upto) of every ack s piggybacks to p
        real_write = _SOCKET_TRANSPORT.write

        def write(transport, data):
            if _owner(s, transport)[0] == p_id:
                carried.extend(
                    f[3:] for f in _frames([bytes(data)]) if f[0] == "d" and len(f) == 5
                )
            return real_write(transport, data)

        monkeypatch.setattr(_SOCKET_TRANSPORT, "write", write)
        # s's commit stops on its way to disk; behind it s handles the
        # old p's App and owes it an ack
        gate.arm()
        write_at_s = asyncio.ensure_future(at_s.write(1, cluster.value(7)))
        await _until(gate.reached.is_set)
        old_conn = s._peer_conn[p_id]
        assert not (await at_p.write(2, cluster.value(8))).failed
        await _until(lambda: p_id in s._held_acks)
        # p loses its disk and comes back -- without dialling s yet
        held_back = []
        real_start = _PeerChannel.start

        def start(ch):
            if ch.server is p and ch.peer_id == s_id:
                held_back.append(ch)
            else:
                real_start(ch)

        monkeypatch.setattr(_PeerChannel, "start", start)
        await at_p.close()
        old_transport = s._channels[p_id].transport
        await cluster.kill_server(p_id)
        cluster.store.wipe(p_id)
        await cluster.restart_server(p_id)
        to_s = p._channels[s_id]
        at_new_p = await cluster.add_client(p_id)
        assert not (await at_new_p.write(0, cluster.value(9))).failed
        assert [seq for seq, _ in to_s.arq.unacked][:1] == [1]
        # s's channel reaches the new p and replays its tail behind the
        # barrier; the gate opens and the next commit lets it out, with
        # the ack captured for the old connection
        ch = s._channels[p_id]
        await _until(
            lambda: ch.transport not in (None, old_transport) and ch._pending
        )
        gate.resume.set()
        await _until(lambda: carried)
        await asyncio.sleep(0.05)
        # (it may have queued more for s meanwhile; none of it reached s)
        pruned = (
            to_s.arq.acked != 0 or [q for q, _ in to_s.arq.unacked][:1] != [1]
        )
        real_start(held_back[0])
        assert not (await asyncio.wait_for(write_at_s, 5.0)).failed
        await cluster.quiesce()
        delivered = (
            _watermark(s, p_id) == to_s.arq.seq and not to_s.arq.unacked
        )
        await cluster.shutdown()
        return carried, old_conn, pruned, delivered

    carried, old_conn, pruned, delivered = asyncio.run(run())
    assert [conn for conn, _upto in carried][:1] == [old_conn]
    if mutant is None:
        assert not pruned and delivered
    else:
        assert pruned and not delivered, "the stale ack was not caught"


class _AckSink:
    """Stands in for the transport of a connection a peer dialled:
    collects what we ack."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return False

    def close(self):
        raise AssertionError("the server closed a well-formed connection")


def test_one_iteration_of_peer_frames_is_one_checkpoint_and_one_ack_per_peer(
    monkeypatch,
):
    code = example1_code()
    victim_id, per_peer = 2, 6

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=None))
        await cluster.start()
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        peers = [j for j in range(code.N) if j != victim_id]
        sinks = {j: _AckSink() for j in peers}
        conn_ids = {j: 1000 + j for j in peers}
        streams = {}
        # the acks the victim piggybacks on its runs to the real peers
        carried = {j: [] for j in peers}
        real_write = _SOCKET_TRANSPORT.write

        def write(transport, data):
            dialled, _ = _owner(victim, transport)
            if dialled is not None:
                carried[dialled] += [
                    f[3:] for f in _frames([bytes(data)]) if f[0] == "d" and len(f) == 5
                ]
            return real_write(transport, data)

        monkeypatch.setattr(_SOCKET_TRANSPORT, "write", write)
        for j in peers:
            # a connection from peer j: its hello, then every message it
            # "sent", in two runs, arriving in one read
            hello = ("hp", j, 0, victim.core.cfg_epoch, per_peer, conn_ids[j])
            msgs = []
            for seq in range(1, per_peer + 1):
                ts = VectorClock.zero(code.N).with_component(j, seq)
                msgs.append(
                    App(seq % code.K, cluster.value(10 * j + seq), Tag(ts, 100 + j))
                )
            half = per_peer // 2
            streams[j] = wire.encode_frames(
                [hello, ("d", 1, msgs[:half]), ("d", half + 1, msgs[half:])]
            )
        # the victim's disk halves only: its released frames reach the
        # other servers at once, and their commits fsync too
        fsyncs = 0
        victim_thread = threading.local()
        real_fsync, real_persist = os.fsync, cluster.store.persist

        def fsync(fd):
            nonlocal fsyncs
            fsyncs += getattr(victim_thread, "writing", False)
            real_fsync(fd)

        def persist(checkpoint, defer=False):
            disk = real_persist(checkpoint, defer=defer)
            if disk is None or checkpoint.server_id != victim_id:
                return disk
            write, landed = disk

            def victim_write():
                victim_thread.writing = True
                try:
                    write()
                finally:
                    victim_thread.writing = False

            return victim_write, landed

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(cluster.store, "persist", persist)
        writes_before = cluster.store.persist_counts.get(victim_id, 0)
        # one loop iteration: the four connections' ``data_received`` run,
        # and leave a dirty server with one commit scheduled and
        # everything held
        for j in peers:
            conn = _Inbound(victim)
            conn.connection_made(sinks[j])
            conn.data_received(streams[j])
            victim._inbound.discard(conn)  # ``kill`` must not close a sink
        assert victim._dirty and victim.committing
        assert not any(s.writes for s in sinks.values())
        await asyncio.wait_for(victim.committed(), 5.0)
        wrote = cluster.store.persist_counts.get(victim_id, 0) - writes_before
        fsynced = fsyncs
        vc = victim.core.vc.components
        checkpoint = cluster.store.load(victim_id)
        await cluster.shutdown()
        return wrote, fsynced, sinks, carried, conn_ids, vc, checkpoint, peers

    wrote, fsyncs, sinks, carried, conn_ids, vc, checkpoint, peers = asyncio.run(run())
    assert wrote == 1 and fsyncs == 2  # its first write: slot + directory, once
    for j in peers:
        # one cumulative ack per peer, carrying the final watermark: on
        # its own, or in the victim's run to that peer under the id of
        # the connection the peer dialled
        acks = [f[1:] for f in _frames(sinks[j].writes)]
        acks += [(upto,) for conn, upto in carried[j] if conn == conn_ids[j]]
        assert acks == [(per_peer,)], j
        assert len(sinks[j].writes) <= 1
        assert vc[j] == per_peer
        assert checkpoint.transport["recv"][j] == per_peer
    assert checkpoint.state["vc"].components == vc


# ----------------------------------------------------------------------
# crash inside the barrier


class _CrashAtCommit:
    """Kills a server at a commit that has everything to lose.

    The commit callback is where the process "dies": what the server has
    handled is in memory and dirty, the replies, acks and frames it
    produced are held -- and none of it reaches the disk or the wire.
    Until all three kinds of output are held the commit merely stalls (a
    slow disk), so work keeps piling up behind the barrier.
    """

    STALL_S = 0.002
    GIVE_UP_S = 5.0

    def __init__(self, cluster, victim: int):
        self.cluster = cluster
        self.server = cluster.servers[victim]
        self._loop = asyncio.get_running_loop()
        self.crashed: asyncio.Future = self._loop.create_future()
        self._deadline = self._loop.time() + self.GIVE_UP_S
        self.server._commit = self._commit  # shadows the class's method

    def _commit(self, epoch: int) -> None:
        s = self.server
        if epoch != s._epoch or s.halted:
            return
        self.held = _held(s)
        if not (s._dirty and all(self.held)):
            if self._loop.time() > self._deadline:
                self.crashed.set_exception(AssertionError(
                    f"server {s.node_id} never held all of replies/acks/"
                    f"frames behind a dirty commit: {self.held}"
                ))
                del s._commit
                s._commit(epoch)
            else:
                self._loop.call_later(self.STALL_S, self._commit, epoch)
            return
        del s._commit
        self.epoch = epoch
        self.vc_in_memory = s.core.vc
        self.frames_sent = s.frames_sent
        self.disk_writes = self.cluster.store.persist_counts.get(s.node_id, 0)
        self.audit_len = len(s._audit_log)
        self._crash(epoch)

    def _crash(self, epoch: int) -> None:
        asyncio.ensure_future(self._kill())

    async def _kill(self) -> None:
        await self.cluster.kill_server(self.server.node_id)
        self.crashed.set_result(None)


class _StopDiskAtCommit(_CrashAtCommit):
    """The same commit, but the process lives on into its disk half --
    where ``gate`` stops it, with replies, acks and frames in the batch."""

    def __init__(self, cluster, victim: int, gate: "_DiskGate"):
        super().__init__(cluster, victim)
        self.gate = gate

    def _crash(self, epoch: int) -> None:
        self.gate.arm()
        self.server._commit(epoch)


def _vc_on_disk(cluster, server_id: int) -> VectorClock:
    """The clock a restart would load: read by a store of its own, so the
    cluster's store learns nothing from the look."""
    return FileDurableStore(cluster.store.root).load(server_id).state["vc"]


def test_crash_between_handler_and_commit_loses_only_what_nobody_saw():
    code = example1_code()
    seed, per_client, kills = 20260928, 34, 3

    async def run():
        async with live_cluster(
            code,
            config=ServerConfig(gc_interval=25.0),
            retry=RetryPolicy(timeout=60.0, backoff=1.3, max_retries=16),
        ) as (cluster, auditor, _):
            rng = np.random.default_rng(seed)
            clients = [await cluster.add_client(i % code.N) for i in range(6)]
            home = {c.node_id: c.core.server_id for c in clients}
            total = per_client * len(clients)
            victims = [int(v) for v in rng.choice(code.N, size=kills, replace=False)]
            plans = [
                [
                    (bool(rng.random() < 0.5), int(rng.integers(code.K)),
                     int(rng.integers(1, 250)))
                    for _ in range(per_client)
                ]
                for _ in clients
            ]

            async def session(client, ops):
                for is_read, key, value in ops:
                    op = await (
                        client.read(key) if is_read
                        else client.write(key, cluster.value(value))
                    )
                    # a request the crash swallowed is retried and answered
                    assert not op.failed, op.error

            sessions = [
                asyncio.ensure_future(session(c, ops))
                for c, ops in zip(clients, plans)
            ]
            crashes = []
            for k, v in enumerate(victims):
                while len(cluster.history) < total * (k + 1) // (kills + 1):
                    await asyncio.sleep(0.005)
                crash = _CrashAtCommit(cluster, v)
                await asyncio.wait_for(crash.crashed, 10.0)
                crashes.append(crash)
                server = cluster.servers[v]
                # nothing held was written, nothing dirty reached the disk
                assert server.frames_sent == crash.frames_sent
                assert cluster.store.persist_counts.get(v, 0) == crash.disk_writes
                assert not server._dirty and not server._held_replies
                assert not server._held_acks
                # records of events nobody saw are gone from the audit log
                assert len(server._audit_log) == server._audit_durable
                assert server._audit_durable <= crash.audit_len
                # the commit the dead incarnation had scheduled is a no-op
                server._commit(crash.epoch)
                assert cluster.store.persist_counts.get(v, 0) == crash.disk_writes
                assert server.frames_sent == crash.frames_sent
                on_disk = _vc_on_disk(cluster, v)
                released = [
                    op.ts for op in cluster.history.completed()
                    if home[op.client_id] == v
                ]
                await cluster.restart_server(v)
                # it comes back with the clock of its last commit: behind what
                # it only had in memory, never behind a reply it released
                assert server.core.vc == on_disk
                assert on_disk.leq(crash.vc_in_memory)
                assert all(ts.leq(on_disk) for ts in released)
            await asyncio.gather(*sessions)

            await cluster.quiesce()
            # the peers' unacked tails were redelivered, and acked
            for s in cluster.servers:
                for j, ch in s._channels.items():
                    assert not ch.arq.unacked, f"{s.node_id}->{j} still unacked"
                    assert _watermark(cluster.servers[j], s.node_id) == ch.arq.seq
            # ... exactly once: no write is in any server's durable audit log
            # twice (a double apply would log it twice)
            for s in cluster.servers:
                applied = [
                    (r.obj, r.tag) for r in s._audit_log
                    if r.kind in ("write", "apply")
                ]
                assert len(applied) == len(set(applied))
            await asyncio.sleep(0.1)  # let the audit streams drain
            violations = auditor.finalize()
            history = cluster.history
            return crashes, violations, history

    crashes, violations, history = asyncio.run(run())
    assert len(crashes) == 3
    assert violations == []
    zero = example1_code().zero_value()
    check_causal_consistency(history, zero)
    check_returns_written_values(history, zero)
    assert len(history.completed()) == len(history) >= 200


_LOST = OSError(errno.EIO, "the machine lost power here")


@pytest.mark.parametrize(
    "point,error",
    [(point, None) for point in _DiskGate.POINTS]
    + [(point, _LOST) for point in _DiskGate.POINTS],
    ids=lambda v: v if isinstance(v, str) else "lands" if v is None else "lost",
)
def test_crash_at_every_point_of_an_in_flight_commit(monkeypatch, point, error):
    """``kill`` cannot stop the worker thread: it waits for it.  Whether the
    write then lands or dies, the disk holds the old checkpoint (the write
    died before touching its slot) or the new one (its slot's fsync had
    returned), and the batch that waited for it is released to nobody."""
    code = example1_code()
    victim = 2

    async def run():
        async with live_cluster(
            code,
            config=ServerConfig(gc_interval=25.0),
            retry=RetryPolicy(timeout=60.0, backoff=1.3, max_retries=16),
        ) as (cluster, auditor, _):
            gate = _DiskGate(monkeypatch, cluster.store, victim, point, error)
            clients = [await cluster.add_client(s) for s in (victim, victim, 0, 4)]
            home = {c.node_id: c.core.server_id for c in clients}
            for k, client in enumerate(clients):
                op = await client.write(k % code.K, cluster.value(k + 1))
                assert not op.failed
            await cluster.quiesce()
            server = cluster.servers[victim]

            async def session(i, client):
                for k in range(6):
                    key = (i + k) % code.K
                    op = await (
                        client.read(key) if k % 2
                        else client.write(key, cluster.value(10 * (i + 1) + k))
                    )
                    # a request the crash swallowed is retried and answered
                    assert not op.failed, op.error

            sessions = [
                asyncio.ensure_future(session(i, c)) for i, c in enumerate(clients)
            ]
            stopped = _StopDiskAtCommit(cluster, victim, gate)
            await _until(gate.reached.is_set)
            assert all(stopped.held)  # the batch in flight has all three kinds
            # let more pile up behind the write, and the flushers of earlier
            # commits finish: from here on every byte of output is held
            await _until(lambda: any(_held(server)))
            await asyncio.sleep(0.03)
            frames_sent = server.frames_sent
            vc_in_memory = server.core.vc
            disk_writes = cluster.store.persist_counts[victim]
            audit_durable = server._audit_durable
            vc_at_gate = _vc_on_disk(cluster, victim)
            released = [
                op.ts for op in cluster.history.completed()
                if home[op.client_id] == victim
            ]
            kill = asyncio.ensure_future(cluster.kill_server(victim))
            await asyncio.sleep(0.05)
            assert not kill.done()  # waiting for the write it cannot stop
            gate.resume.set()
            await asyncio.wait_for(kill, 5.0)

            # nothing held was written, the batch in flight included
            assert server.frames_sent == frames_sent
            assert not server.committing and not server._dirty
            assert _held(server) == (0, 0, 0)
            assert len(server._audit_log) == server._audit_durable
            landed = cluster.store.persist_counts[victim] - disk_writes
            assert landed == (1 if error is None else 0)
            on_disk = _vc_on_disk(cluster, victim)
            if error is not None and point == "before-slot-write":
                assert on_disk == vc_at_gate  # the old checkpoint, untouched
            else:
                # the slot was durable: the new checkpoint, released or not
                assert on_disk == stopped.vc_in_memory
            if error is not None:
                assert server._audit_durable == audit_durable
            else:
                # the audit records of a checkpoint that landed stay with it
                assert server._audit_durable == stopped.audit_len
            # behind what it only had in memory, never behind a reply it released
            assert on_disk.leq(vc_in_memory)
            assert all(ts.leq(on_disk) for ts in released)
            await cluster.restart_server(victim)
            assert server.core.vc == on_disk

            await asyncio.wait_for(asyncio.gather(*sessions), 30.0)
            await cluster.quiesce()
            # the restarted server serves every acknowledged write
            for op in cluster.history.completed():
                assert op.ts.leq(server.core.vc)
            for key in range(code.K):
                op = await clients[0].read(key)
                assert not op.failed
            await asyncio.sleep(0.1)  # let the audit streams drain
            violations = auditor.finalize()
            history = cluster.history
            return violations, history

    violations, history = asyncio.run(run())
    assert violations == []
    zero = example1_code().zero_value()
    check_causal_consistency(history, zero)
    check_returns_written_values(history, zero)
    assert len(history.completed()) == len(history)


def test_a_failed_disk_half_releases_nothing_and_the_next_commit_everything_once(
    monkeypatch,
):
    code = example1_code()
    victim_id = 2

    async def run():
        loop = asyncio.get_running_loop()
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=None),
            retry=RetryPolicy(timeout=5000.0, max_retries=2),
        )
        gate = _DiskGate(
            monkeypatch, cluster.store, victim_id, "after-slot-fsync",
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
        )
        await cluster.start()
        first, second = [await cluster.add_client(victim_id) for _ in range(2)]
        remote = await cluster.add_client(0)
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        reported = []
        loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
        wrote: list[tuple] = []  # every reply and data frame the victim writes

        def writes_so_far() -> int:
            return cluster.store.persist_counts.get(victim_id, 0)

        real_write = _SOCKET_TRANSPORT.write

        def write(transport, data):
            if any(x is not None for x in _owner(victim, transport)):
                for frame in _frames([bytes(data)]):
                    if frame[0] == "m":
                        wrote.append(("m", frame[1].opid, writes_so_far()))
                    elif frame[0] == "d":
                        peer = transport.get_extra_info("peername")
                        wrote.extend(
                            ("d", peer, seq)
                            for seq in range(frame[1], frame[1] + len(frame[2]))
                        )
            return real_write(transport, data)

        monkeypatch.setattr(_SOCKET_TRANSPORT, "write", write)
        disk_writes = writes_so_far()
        frames_sent = victim.frames_sent
        gate.arm()
        ops = [asyncio.ensure_future(first.write(0, cluster.value(1)))]
        await _until(gate.reached.is_set)
        # a second write is handled, and held, behind the one in flight
        ops.append(asyncio.ensure_future(second.write(1, cluster.value(2))))
        await _until(lambda: _held(victim)[0] == 1)
        gate.resume.set()
        await _until(lambda: reported)
        await asyncio.sleep(0.02)
        # the disk said no: the loop was told, nothing was released, the
        # server is dirty, and the batch is held again *ahead* of what
        # came after it -- all waiting for the next event
        assert isinstance(reported[0]["exception"], OSError)
        assert reported[0]["exception"].errno == errno.ENOSPC
        assert not any(op.done() for op in ops)
        assert victim.frames_sent == frames_sent and wrote == []
        assert victim._dirty and not victim.committing
        assert writes_so_far() == disk_writes
        assert [dst for dst, _ in victim._held_replies] == [
            first.node_id, second.node_id,
        ]
        held_seqs = {
            j: [f[1] for f in ch._pending] for j, ch in victim._channels.items()
        }
        for seqs in held_seqs.values():
            assert len(seqs) == 2 and seqs[0] + 1 == seqs[1]
        ops.append(asyncio.ensure_future(remote.write(2, cluster.value(3))))
        done = await asyncio.wait_for(asyncio.gather(*ops), 5.0)
        assert not any(op.failed for op in done)
        await cluster.quiesce()
        # the failed write is not counted; the retry is one write that
        # covers both and lets both out: first come, first out, every reply
        # and every data frame exactly once
        assert [w[1:] for w in wrote if w[0] == "m"] == [
            (op.opid, disk_writes + 1) for op in done[:2]
        ]
        for j, ch in victim._channels.items():
            peer = ch.transport.get_extra_info("peername")
            seqs = [w[2] for w in wrote if w[:2] == ("d", peer)]
            assert seqs[:2] == held_seqs[j]
            assert seqs == sorted(set(seqs)), "a frame went out twice"
        assert len(reported) == 1
        await cluster.shutdown()

    asyncio.run(run())


def test_quiesced_means_on_disk_one_file_per_server_and_no_tmp(tmp_path):
    """One non-empty file per server: of its two slots, the one the last
    commit wrote holds what the server holds, and the other is empty."""
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=20.0), store_dir=tmp_path
        )
        await cluster.start()
        clients = [await cluster.add_client(s) for s in range(code.N)]

        async def session(i, client):
            for k in range(8):
                op = await client.write((i + k) % code.K, cluster.value(i + k))
                assert not op.failed

        await asyncio.gather(*(session(i, c) for i, c in enumerate(clients)))
        await cluster.quiesce()
        files = {
            name: os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)
        }
        assert not any(s.committing for s in cluster.servers)
        clocks = [(s.core.vc, _vc_on_disk(cluster, s.node_id)) for s in cluster.servers]
        await cluster.shutdown()
        return files, clocks

    files, clocks = asyncio.run(run())
    assert sorted(files) == [
        f"server_{i}.ckpt.{slot}" for i in range(code.N) for slot in (0, 1)
    ]
    for i in range(code.N):
        sizes = [files[f"server_{i}.ckpt.{slot}"] for slot in (0, 1)]
        assert min(sizes) == 0 and max(sizes) > 0, (i, sizes)
    for in_memory, on_disk in clocks:
        assert in_memory == on_disk


# ----------------------------------------------------------------------
# commit on output: state and acks wait for output or the GC slot


def _peer_run(server, sink, peer, conn_id, frames, sent):
    """Hand ``frames`` to ``server`` in one read, on a fresh connection
    from ``peer`` (hello included) whose writes ``sink`` collects."""
    hello = ("hp", peer, 0, server.core.cfg_epoch, sent, conn_id)
    conn = _Inbound(server)
    conn.connection_made(sink)
    conn.data_received(wire.encode_frames([hello, *frames]))
    server._inbound.discard(conn)  # ``kill`` must not close a sink
    return conn


def _a_del(code, peer: int) -> Del:
    """A ``Del`` from ``peer``: its handler changes state, outputs nothing."""
    ts = VectorClock.zero(code.N).with_component(peer, 1)
    return Del(0, Tag(ts, 100 + peer))


def _ack_spy(monkeypatch, server, peer, conn_id, sink) -> list:
    """``(loop time, upto)`` of every ack ``server`` sends the connection
    ``conn_id`` of ``peer``: on its own to ``sink``, or riding in a run to
    the real peer."""
    loop = asyncio.get_running_loop()
    acks = []
    real_write = _SOCKET_TRANSPORT.write

    def write(transport, data):
        if _owner(server, transport)[0] == peer:
            acks.extend(
                (loop.time(), f[4]) for f in _frames([bytes(data)])
                if f[0] == "d" and len(f) == 5 and f[3] == conn_id
            )
        return real_write(transport, data)

    def sink_write(data):
        acks.extend((loop.time(), f[1]) for f in _frames([bytes(data)]) if f[0] == "a")

    monkeypatch.setattr(_SOCKET_TRANSPORT, "write", write)
    sink.write = sink_write
    return acks


def _write_times(monkeypatch, store, server_id) -> list[float]:
    """Loop time of the snapshot of every checkpoint write ``server_id``
    starts from here on (a persist the store skips is none)."""
    loop = asyncio.get_running_loop()
    times = []
    real_persist = store.persist

    def persist(checkpoint, defer=False):
        disk = real_persist(checkpoint, defer=defer)
        if disk is not None and checkpoint.server_id == server_id:
            times.append(loop.time())
        return disk

    monkeypatch.setattr(store, "persist", persist)
    return times


async def _just_after_gc_tick(server, margin: float) -> float:
    """Wait until ``server``'s next GC tick is at least ``margin`` seconds
    away and the last one's commit is over; return when the next is due
    (loop time)."""
    loop = asyncio.get_running_loop()
    while True:
        await server.committed()
        due = server._timers[("gc",)].when()
        if due - loop.time() >= margin:
            return due
        await asyncio.sleep(max(due - loop.time(), 0.0) + 0.005)


def test_a_del_only_delivery_waits_for_the_gc_slot_and_its_ack_leaves_with_it(
    monkeypatch,
):
    code = example1_code()
    victim_id, peer, conn_id, period = 2, 0, 4242, 0.4

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=period * 1000.0)
        )
        await cluster.start()
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        due = await _just_after_gc_tick(victim, margin=period / 2)
        writes = _write_times(monkeypatch, cluster.store, victim_id)
        sink = _AckSink()
        acks = _ack_spy(monkeypatch, victim, peer, conn_id, sink)
        _peer_run(victim, sink, peer, conn_id, [("d", 1, [_a_del(code, peer)])], 1)
        assert victim._recv[peer].last == 1
        # delivered and dirty, but nothing asked for a commit
        assert victim._deferred and not victim.committing
        await _until(lambda: acks)
        await asyncio.sleep(0.05)
        on_disk = FileDurableStore(cluster.store.root).load(victim_id)
        await cluster.shutdown()
        return due, writes, acks, on_disk

    due, writes, acks, on_disk = asyncio.run(run())
    # one checkpoint, written at the GC slot and not before; one ack, let
    # out by that commit
    assert len(writes) == 1 and writes[0] >= due - 1e-3
    assert [upto for _, upto in acks] == [1] and acks[0][0] >= writes[0]
    assert on_disk.transport["recv"][peer] == 1


def test_a_kill_inside_the_deferral_window_loses_the_delivery_and_the_replay_delivers_it_once():
    code = example1_code()
    victim_id, peer, period = 2, 0, 0.4

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=period * 1000.0)
        )
        await cluster.start()
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        delivered = []
        real_deliver = victim._deliver

        def deliver(src, msg):
            if type(msg) is Del:
                delivered.append((src, msg))
            real_deliver(src, msg)

        victim._deliver = deliver
        a_del = _a_del(code, peer)
        first, replay = _AckSink(), _AckSink()
        await _just_after_gc_tick(victim, margin=0.75 * period)
        writes = cluster.store.persist_counts.get(victim_id, 0)
        _peer_run(victim, first, peer, 1001, [("d", 1, [a_del])], 1)
        assert delivered == [(peer, a_del)] and victim._deferred
        await asyncio.sleep(0.02)  # ample for a commit of its own to land
        # the process dies inside the window: ``kill`` flushes nothing
        await cluster.kill_server(victim_id)
        lost = (
            cluster.store.persist_counts.get(victim_id, 0) - writes,
            first.writes,
        )
        await cluster.restart_server(victim_id)
        forgotten = _watermark(victim, peer)
        # the peer got no ack, so it replays its unacked tail on its next
        # connection -- and a duplicate of it after that
        _peer_run(
            victim, replay, peer, 1002,
            [("d", 1, [a_del]), ("d", 1, [a_del])], 1,
        )
        await asyncio.wait_for(victim.committed(), 5.0)
        acks = [f[1] for f in _frames(replay.writes) if f[0] == "a"]
        on_disk = FileDurableStore(cluster.store.root).load(victim_id)
        await cluster.shutdown()
        return delivered, lost, forgotten, acks, on_disk

    delivered, lost, forgotten, acks, on_disk = asyncio.run(run())
    assert lost == (0, [])  # nothing written, nothing acked
    assert forgotten == 0  # the restart does not know the delivery
    assert len(delivered) == 2  # the lost one, then the replay: once
    assert acks == [1]
    assert on_disk.transport["recv"][peer] == 1


def test_without_a_gc_period_every_event_commits_at_once(monkeypatch):
    code = example1_code()
    victim_id, peer, conn_id = 2, 0, 4343

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=None))
        await cluster.start()
        await cluster.quiesce()
        victim = cluster.servers[victim_id]
        sink = _AckSink()
        acks = _ack_spy(monkeypatch, victim, peer, conn_id, sink)
        writes = cluster.store.persist_counts.get(victim_id, 0)
        a_del = _a_del(code, peer)
        conn = _peer_run(victim, sink, peer, conn_id, [], 2)
        per_event = []
        for seq, msg in ((1, a_del), (2, Del(1, a_del.tag))):
            conn.data_received(wire.encode_frame(("d", seq, [msg])))
            scheduled = victim.committing
            await asyncio.wait_for(victim.committed(), 5.0)
            per_event.append((
                scheduled,
                cluster.store.persist_counts.get(victim_id, 0) - writes,
                [upto for _, upto in acks],
            ))
        await cluster.shutdown()
        return per_event

    assert asyncio.run(run()) == [(True, 1, [1]), (True, 2, [1, 2])]


def test_committed_leaves_memory_equal_to_the_file_and_a_restart_the_same_clock():
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=500.0))
        await cluster.start()
        clients = [await cluster.add_client(s) for s in (0, 2, 4)]

        async def session(i, client):
            for k in range(6):
                key = (i + k) % code.K
                op = await (
                    client.read(key) if k % 3 == 2
                    else client.write(key, cluster.value(10 * i + k + 1))
                )
                assert not op.failed

        await asyncio.gather(*(session(i, c) for i, c in enumerate(clients)))
        # deliveries nobody answered wait for a GC slot up to 0.5 s away
        waiting = [s.node_id for s in cluster.servers if s._deferred]
        await cluster.quiesce()
        after = []
        for s in cluster.servers:
            on_disk = FileDurableStore(cluster.store.root).load(s.node_id)
            after.append((
                s._deferred,
                s.core.vc == on_disk.state["vc"],
                {j: r.last for j, r in s._recv.items()}
                == dict(on_disk.transport["recv"]),
            ))
        clocks = []
        for s in cluster.servers:
            vc = s.core.vc
            await cluster.kill_server(s.node_id)
            await cluster.restart_server(s.node_id)
            clocks.append(s.core.vc == vc)
        await cluster.shutdown()
        return waiting, after, clocks

    waiting, after, clocks = asyncio.run(run())
    assert waiting, "no server had deferred state: the flush went untested"
    assert after == [(False, True, True)] * code.N
    assert all(clocks)


# ----------------------------------------------------------------------
# power cuts: what the two slots hold when the machine stops


def _slots(root, server_id: int) -> list:
    return [FileDurableStore(root)._path(server_id, slot) for slot in (0, 1)]


def _reboot(root, server_id: int):
    """A new process over the same files: ``(checkpoint, reports)``."""
    store = FileDurableStore(root)
    return store.load(server_id), store.corruption_reports


def _power_cut(fd):
    """An ``os.fsync`` that never returns: part of the file reached the
    disk, then the machine stopped."""
    os.ftruncate(fd, os.fstat(fd).st_size * 2 // 3)
    raise _LOST


def _two_writes(tmp_path):
    """Two landed writes of one server, then a power cut that loses the
    truncate of the second (nothing fsyncs it): both slots valid, the
    second's generation the higher.  Returns the store, the checkpoint
    (as of the second write) and the two slots, older first."""
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    (older,) = [p for p in _slots(tmp_path, ckpt.server_id) if p.stat().st_size]
    old_bytes = older.read_bytes()
    ckpt.state["_opid_seq"] += 1
    store.persist(ckpt)
    assert older.stat().st_size == 0  # truncated once the newer was durable
    older.write_bytes(old_bytes)
    (newer,) = [p for p in _slots(tmp_path, ckpt.server_id) if p != older]
    return store, ckpt, older, newer


def test_a_lost_truncate_leaves_the_higher_generation_winning(tmp_path):
    """(I1) A batch goes out once its slot's fsync returned; the truncate of
    the other slot comes after and is never fsynced.  If it is lost, the
    older checkpoint is back beside the newer one: ``load`` takes the
    higher generation, and the next write overwrites the stale slot."""
    store, ckpt, older, newer = _two_writes(tmp_path)
    loaded, reports = _reboot(tmp_path, ckpt.server_id)
    assert reports == []
    assert loaded.state["_opid_seq"] == ckpt.state["_opid_seq"]
    rebooted = FileDurableStore(tmp_path)
    assert rebooted.load(ckpt.server_id) is not None
    ckpt.state["_opid_seq"] += 1
    rebooted.persist(ckpt)
    assert newer.stat().st_size == 0 and older.stat().st_size > 0
    loaded, reports = _reboot(tmp_path, ckpt.server_id)
    assert reports == []
    assert loaded.state["_opid_seq"] == ckpt.state["_opid_seq"]


def test_a_torn_newer_slot_loads_the_last_released_checkpoint(tmp_path, monkeypatch):
    """(I2) A write the power cut stopped before its fsync returned leaves
    a slot shorter than its header says -- at any byte -- and its batch
    was never released.  ``load`` passes over it to the older slot, which
    is the last checkpoint whose batch was, and reports nothing."""
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    sid = ckpt.server_id
    store.persist(ckpt)
    released = ckpt.state["_opid_seq"]
    (torn,) = [p for p in _slots(tmp_path, sid) if not p.stat().st_size]
    ckpt.state["_opid_seq"] += 1
    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", _power_cut)
        with pytest.raises(OSError):
            store.persist(ckpt)
    assert store.persist_counts[sid] == 1  # never landed: never released
    assert all(p.stat().st_size for p in _slots(tmp_path, sid))
    loaded, reports = _reboot(tmp_path, sid)
    assert reports == [] and loaded.state["_opid_seq"] == released
    # the same at every length the torn slot can have
    blob = FileDurableStore._encode_checkpoint(ckpt, generation=2)
    for length in range(len(blob)):
        torn.write_bytes(blob[:length])
        loaded, reports = _reboot(tmp_path, sid)
        assert reports == [], length
        assert loaded.state["_opid_seq"] == released, length
    # the store that saw the write fail reads the disk before its next one
    store.persist(ckpt)
    loaded, reports = _reboot(tmp_path, sid)
    assert reports == [] and loaded.state["_opid_seq"] == ckpt.state["_opid_seq"]


def test_after_a_write_failed_past_its_fsync_the_next_one_takes_the_other_slot(
    tmp_path, monkeypatch
):
    """A disk half that fails after its slot's fsync -- here the truncate of
    the other slot reports an error once it is done -- leaves that slot the
    only checkpoint, and the error does not say how far it got.  So the
    next write reads the disk first and overwrites the emptied slot: a
    power cut during it still leaves a checkpoint to load."""
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    ckpt.state["_opid_seq"] += 1
    real_truncate = os.truncate

    def truncate_then_fail(path, length):
        real_truncate(path, length)
        raise _LOST

    with monkeypatch.context() as patched:
        patched.setattr(os, "truncate", truncate_then_fail)
        with pytest.raises(OSError):
            store.persist(ckpt)
    durable = ckpt.state["_opid_seq"]
    ckpt.state["_opid_seq"] += 1
    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", _power_cut)
        with pytest.raises(OSError):
            store.persist(ckpt)
    loaded, reports = _reboot(tmp_path, ckpt.server_id)
    assert reports == [] and loaded.state["_opid_seq"] == durable


@pytest.mark.parametrize("seed", range(8))
def test_bit_rot_in_the_newer_slot_is_no_checkpoint_not_a_rollback(tmp_path, seed):
    """(I2) A slot of full length that fails a digest may be the newer one,
    so the older valid slot beside it must not load: ``load`` reports the
    damage and returns no checkpoint, exactly as for a lone damaged file."""
    store, ckpt, older, newer = _two_writes(tmp_path)
    assert store.corrupt_file(ckpt.server_id, seed=seed)
    loaded, reports = _reboot(tmp_path, ckpt.server_id)
    assert loaded is None
    assert [r.path for r in reports] == [str(newer)]


def test_the_write_after_a_damaged_load_outranks_both_slots(tmp_path):
    """(I3) After ``load`` found a rotten slot beside a valid one, the next
    generation is above both, so the valid older slot can never win over
    what is written from here on."""
    store, ckpt, older, newer = _two_writes(tmp_path)
    store.corrupt_file(ckpt.server_id, seed=1)
    generations = [
        FileDurableStore._generation(p.read_bytes()) for p in (older, newer)
    ]
    assert generations == [1, 2]
    rebooted = FileDurableStore(tmp_path)
    assert rebooted.load(ckpt.server_id) is None
    ckpt.state["_opid_seq"] += 1
    rebooted.persist(ckpt)
    (written,) = [p for p in (older, newer) if p.stat().st_size]
    assert FileDurableStore._generation(written.read_bytes()) > max(generations)
    loaded, reports = _reboot(tmp_path, ckpt.server_id)
    assert reports == [] and loaded.state["_opid_seq"] == ckpt.state["_opid_seq"]


def test_no_file_vanishes_from_a_running_store(tmp_path):
    """A reader that lists the store directory and stats every entry --
    what a size census of a live cluster does -- never finds an entry gone
    between the two: commits overwrite and truncate slots in place, and
    nothing is renamed over or unlinked."""
    code = example1_code()
    stop = threading.Event()
    missing: list[str] = []
    scans = 0

    def census():
        nonlocal scans
        while not stop.is_set():
            for entry in tmp_path.iterdir():
                try:
                    entry.stat()
                except FileNotFoundError:
                    missing.append(entry.name)
            scans += 1

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=20.0), store_dir=tmp_path
        )
        await cluster.start()
        clients = [await cluster.add_client(s) for s in (0, 3)]
        reader = threading.Thread(target=census)
        reader.start()
        try:

            async def session(i, client):
                for k in range(100):
                    op = await client.write((i + k) % code.K, cluster.value(k))
                    assert not op.failed

            await asyncio.gather(*(session(i, c) for i, c in enumerate(clients)))
        finally:
            stop.set()
            reader.join(10.0)
        assert not reader.is_alive()
        writes = sum(cluster.store.persist_counts.values())
        await cluster.shutdown()
        return writes

    writes = asyncio.run(run())
    assert writes >= 200 and scans >= 100
    assert missing == []


def test_gc_ticks_keep_to_their_slots_when_the_loop_lags():
    """Re-arming ``gc_interval`` after *handling* a tick let ticks that once
    shared a loop iteration stay together for good; which servers were
    grouped then decided how the round's Del notices batched, run by run.

    The property is about the deadlines the servers *arm*, so it is read
    off ``loop.call_at`` and needs no bound on how late this box runs a
    callback: every ``("gc",)`` deadline of server ``i`` lies on the grid
    ``i * period / N + k * period``, it is the grid point nearest one
    period after the moment it was armed, and so -- whenever the previous
    tick was handled less than half a period late -- exactly one period
    after the previous deadline, however late that was.
    """
    code = example1_code()
    period = 0.05

    async def run():
        loop = asyncio.get_running_loop()
        armed: dict[int, list[tuple[float, float]]] = {}  # (armed at, deadline)
        real_call_at = loop.call_at

        def call_at(when, callback, *args, **kwargs):
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, AsyncioServer) and args[:1] == (("gc",),):
                armed.setdefault(owner.node_id, []).append((loop.time(), when))
            return real_call_at(when, callback, *args, **kwargs)

        loop.call_at = call_at
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=period * 1e3))
        await cluster.start()

        async def stall():  # a loop that is busy for 15 ms at a time
            while True:
                time.sleep(0.015)
                await asyncio.sleep(0.005)

        staller = asyncio.ensure_future(stall())
        await asyncio.sleep(1.0)
        staller.cancel()
        await cluster.shutdown()
        return armed

    armed = asyncio.run(run())
    assert sorted(armed) == list(range(code.N))
    # float noise of sums on the loop clock, whatever the machine's uptime
    eps = 64 * math.ulp(max(when for arms in armed.values() for _, when in arms))
    late = on_time = 0
    for i, arms in armed.items():
        offset = i * period / code.N
        for at, when in arms:
            # on this server's grid, to float precision ...
            slots = (when - offset) / period
            assert abs(slots - round(slots)) < eps / period, (i, when)
            # ... at the grid point nearest ``armed at + period``
            assert abs(when - (at + period)) <= period / 2 + eps, (i, at, when)
        for (_, prev), (at, when) in zip(arms, arms[1:]):
            if at - prev < period / 2 - eps:
                # handled late, but by less than half a period: the next
                # deadline does not inherit the lateness
                assert abs(when - prev - period) < eps, (i, prev, at, when)
                late += at - prev > 0.005
                on_time += 1
            else:
                assert when - prev > period - eps  # never the same slot twice
        # the exact rate: lag does not stretch the period.  The armed grid
        # spans the second the cluster ran, whatever was handled when
        spanned = round((arms[-1][1] - arms[0][1]) / period) + 1
        assert spanned >= 18, (i, spanned)
    # the staller really made ticks late, and the grid held anyway
    assert late > 0 and on_time >= 25
