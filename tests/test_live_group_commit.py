"""Group commit behind the output barrier (live runtime).

The invariant under test (``AsyncioServer._commit``): no byte that reveals
a state change, or acknowledges a delivered frame, leaves a server before
a checkpoint containing that state and that receive watermark is durable.

* **order spy** -- over ``StreamWriter.write`` and ``os.fsync``: between a
  handler running on a server and the directory fsync of the commit that
  covers it, the server writes no ``("m", ...)``, ``("a", ...)`` or
  ``("d", ...)`` frame showing what that handler did;
* **batching** -- N frames from 4 peers handled in one loop iteration cost
  one checkpoint write and one ack per peer, carrying the final watermark;
* **crash inside the barrier** -- a server killed after handling but before
  committing never lets the held output out, its stale commit is a no-op,
  it restarts with the last committed clock, its peers redeliver their
  unacked tails exactly once and its clients' retries are answered; the
  online auditor stays clean over a seeded 200-op run with three such
  kills;
* **GC slots** -- the periodic GC tick of server ``i`` is armed for slot
  ``i/N`` of the period on the loop clock and stays there when the loop
  lags, so servers sharing a loop never drift into phase groups (read off
  the armed deadlines: no wall-clock bound).
"""

from __future__ import annotations

import asyncio
import math
import os
import time

import numpy as np

from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from repro.core.messages import App
from repro.core.tags import Tag, VectorClock
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import AsyncioCluster, AsyncioServer
from repro.runtime.auditor import OnlineAuditor

from tests.test_live_batching import _frames


class _OrderSpy:
    """Checks every frame a server writes against what it has on disk.

    Spies on ``os.fsync``, ``FileDurableStore.persist`` and
    ``StreamWriter.write``.  ``durable[s]`` is the content of the last
    checkpoint server ``s`` made durable -- noted only after ``persist``
    returned, i.e. after the directory fsync (or after it found the file
    already holding that very state).  A frame is a violation when it
    shows more than that checkpoint holds: a data frame whose sequence
    number the checkpoint's send state has not reached, an ack above the
    checkpoint's receive watermark, a reply stamped with a clock the
    checkpoint's clock does not cover.
    """

    def __init__(self, cluster, monkeypatch):
        self.durable: dict[int, dict] = {}
        self.written = {"m": 0, "a": 0, "d": 0}
        self.dir_fsyncs = 0
        self.violations: list[str] = []
        self._cluster = cluster
        self._dialler: dict[object, int] = {}
        spy = self

        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            if os.path.isdir(f"/proc/self/fd/{fd}"):
                spy.dir_fsyncs += 1

        monkeypatch.setattr(os, "fsync", fsync)

        store = cluster.store
        real_persist = store.persist

        def persist(checkpoint):
            sid = checkpoint.server_id
            fsyncs, writes = spy.dir_fsyncs, store.persist_counts.get(sid, 0)
            real_persist(checkpoint)
            # a real write ends in exactly one directory fsync; a skipped
            # one does not touch the disk
            wrote = store.persist_counts.get(sid, 0) - writes
            assert spy.dir_fsyncs - fsyncs == wrote
            spy.durable[sid] = {
                "vc": checkpoint.state["vc"],
                "recv": dict(checkpoint.transport["recv"]),
                "seq": {
                    j: st["seq"] for j, st in checkpoint.transport["send"].items()
                },
            }

        monkeypatch.setattr(store, "persist", persist)

        real_peer_loop = AsyncioServer._peer_loop

        def peer_loop(server, src, reader, writer, *args):
            spy._dialler[writer] = src
            return real_peer_loop(server, src, reader, writer, *args)

        monkeypatch.setattr(AsyncioServer, "_peer_loop", peer_loop)

        real_write = asyncio.StreamWriter.write

        def write(writer, data):
            spy._check(writer, bytes(data))
            return real_write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", write)

    def _check(self, writer, data: bytes) -> None:
        for s in self._cluster.servers:
            dialled = next(
                (j for j, ch in s._channels.items() if ch.writer is writer), None
            )
            if dialled is not None or writer in s._inbound:
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
                ok = frame[1] <= disk["seq"].get(dialled, 0)
            elif kind == "a":
                ok = frame[1] <= disk["recv"].get(self._dialler[writer], 0)
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
    assert all(spy.written.values()) and spy.dir_fsyncs > 0
    assert spy.violations == []


class _AckSink:
    """Stands in for the connection a peer dialled: collects what we ack."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        pass


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
        tasks = []
        for j in peers:
            # everything peer j "sent" is already buffered, so its reader
            # task handles all of it in one step, without yielding
            reader = asyncio.StreamReader()
            for seq in range(1, per_peer + 1):
                ts = VectorClock.zero(code.N).with_component(j, seq)
                msg = App(seq % code.K, cluster.value(10 * j + seq), Tag(ts, 100 + j))
                reader.feed_data(wire.encode_frame(("d", seq, msg)))
            tasks.append(
                asyncio.ensure_future(
                    victim._peer_loop(j, reader, sinks[j], victim._epoch)
                )
            )
        fsyncs = 0
        real_fsync = os.fsync

        def fsync(fd):
            nonlocal fsyncs
            fsyncs += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        writes_before = cluster.store.persist_counts.get(victim_id, 0)
        # iteration 1: the four reader tasks run; iteration 2: the commit
        await asyncio.sleep(0)
        assert victim._dirty and not any(s.writes for s in sinks.values())
        await asyncio.sleep(0)
        monkeypatch.setattr(os, "fsync", real_fsync)
        wrote = cluster.store.persist_counts.get(victim_id, 0) - writes_before
        vc = victim.core.vc.components
        checkpoint = cluster.store.load(victim_id)
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await cluster.shutdown()
        return wrote, fsyncs, sinks, vc, checkpoint, peers

    wrote, fsyncs, sinks, vc, checkpoint, peers = asyncio.run(run())
    assert wrote == 1 and fsyncs == 2  # temp file + directory, once
    for j in peers:
        # one cumulative ack per peer, carrying the final watermark
        assert _frames(sinks[j].writes) == [("a", per_peer)]
        assert len(sinks[j].writes) == 1
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
        self.held = (
            len(s._held_replies),
            len(s._held_acks),
            sum(len(ch._pending) for ch in s._channels.values()),
        )
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
        asyncio.ensure_future(self._kill())

    async def _kill(self) -> None:
        await self.cluster.kill_server(self.server.node_id)
        self.crashed.set_result(None)


def _vc_on_disk(cluster, server_id: int) -> VectorClock:
    blob = cluster.store._path(server_id).read_bytes()
    return cluster.store._decode_checkpoint(blob).state["vc"]


def test_crash_between_handler_and_commit_loses_only_what_nobody_saw():
    code = example1_code()
    seed, per_client, kills = 20260928, 34, 3

    async def run():
        auditor = OnlineAuditor()
        await auditor.start()
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=25.0),
            retry=RetryPolicy(timeout=60.0, backoff=1.3, max_retries=16),
            audit_addr=auditor.address,
        )
        await cluster.start()
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
                assert not ch.unacked, f"{s.node_id}->{j} still unacked"
                assert cluster.servers[j]._recv_last.get(s.node_id, 0) == ch.seq
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
        await cluster.shutdown()
        await auditor.close()
        return crashes, violations, history

    crashes, violations, history = asyncio.run(run())
    assert len(crashes) == 3
    assert violations == []
    zero = example1_code().zero_value()
    check_causal_consistency(history, zero)
    check_returns_written_values(history, zero)
    assert len(history.completed()) == len(history) >= 200


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
