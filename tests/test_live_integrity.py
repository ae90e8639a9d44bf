"""Live-runtime integrity: durable checkpoints, frame CRC, scrub-and-heal.

The live half of the end-to-end integrity story:

* :class:`~repro.runtime.asyncio_rt.FileDurableStore` detects *any*
  single-bit flip or truncation of a checkpoint file, reports it as a
  typed :class:`~repro.core.snapshot.CorruptCheckpoint`, and surfaces it
  as "no checkpoint" -- never an exception, never silently-wrong state;
* it skips a persist whose state, send sequence numbers and receive
  watermarks are what the file already holds (an idle cluster does not
  touch the disk, and the bytes at rest do not depend on when a GC tick
  fell), forgets that belief whenever it reads the file, and still loads
  the ``CECKPT01``/int64 files older builds wrote -- one golden file, and
  a whole cluster restarted on such files -- rewriting them compact;
* a server restarted from a damaged checkpoint boots empty and the
  anti-entropy overlay pulls its state back within the repair budget,
  under the online causal auditor with zero violations;
* in-memory codeword rot on a live server is quarantined (by the scrub
  round or the read-path guard) and healed by repair;
* :meth:`LiveFaultInjector.damage` is a pure function of
  ``(seed, src, dst, k, len)`` and always yields a frame the CRC rejects;
* the seeded live corruption soak: frame damage + codeword rot +
  checkpoint rot in one schedule, every injected corruption detected,
  zero violations, converged.
"""

from __future__ import annotations

import asyncio
import os
import stat
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from repro.core.cluster import CausalECCluster
from repro.core.messages import ReadRequest
from repro.core.snapshot import (
    CorruptCheckpoint,
    capture_server_state,
    restore_server_state,
)
from repro.core.tags import Tag, VectorClock
from repro.ec.codes import example1_code, six_dc_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.effects import ReplyEffect
from repro.protocol.failure_detector import FailureDetectorConfig
from repro.protocol.repair_core import RepairConfig
from repro.protocol.scrub_core import ScrubConfig
from repro.protocol.server_core import ServerConfig, ServerCore
from repro.runtime import wire
from repro.runtime.asyncio_rt import (
    AsyncioCluster,
    FileDurableStore,
    _TornCheckpoint,
)
from repro.runtime.chaos_rt import LiveFaultInjector
from repro.runtime.live_chaos import live_cluster, run_live_chaos, verdict
from repro.sim.chaos import ChaosConfig
from repro.sim.network import LinkFaults

from tests.legacy_v6 import checkpoint_v6

VICTIM = 4

#: bounded-convergence budget (seconds), as in the live repair tests
REPAIR_WAIT = 3.0

#: default seeds chosen so the schedule's checkpoint rot lands on a file
#: that was actually persisted before the crash (seeds where the victim
#: never persisted make the disk-rot a no-op and prove nothing)
LIVE_SCRUB_SEEDS = [
    int(s) for s in os.environ.get("LIVE_SCRUB_SEEDS", "9,11").split(",")
]


def _slot_file(root, server_id: int) -> Path:
    """The one non-empty slot of ``server_id``: a landed write truncates
    the other."""
    (path,) = [
        p for p in Path(root).glob(f"server_{server_id}.ckpt.[01]")
        if p.stat().st_size
    ]
    return path


def _checkpoint():
    """A realistic non-trivial checkpoint, captured from a sim server."""
    cluster = CausalECCluster(example1_code(), seed=3)
    clients = [cluster.add_client(i % cluster.num_servers) for i in range(3)]
    for i, c in enumerate(clients):
        cluster.execute(c.write(i % cluster.code.K, cluster.value(10 + i)))
    cluster.run(for_time=500)
    return capture_server_state(cluster.servers[2])


# ----------------------------------------------------------------------
# FileDurableStore: detection at the file layer (no sockets involved)


def test_file_store_roundtrip_and_verify(tmp_path):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    assert store.verify_file(ckpt.server_id) is True
    loaded = store.load(ckpt.server_id)
    assert loaded is not None
    assert wire.encode(loaded.state) == wire.encode(ckpt.state)
    assert wire.encode(loaded.transport) == wire.encode(ckpt.transport)
    assert store.persist_counts[ckpt.server_id] == 1
    assert store.corrupt_detected() == 0
    # a server that never persisted has no checkpoint and no verdict
    assert store.load(0) is None
    assert store.verify_file(0) is None


def test_file_store_detects_bit_rot(tmp_path):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    assert store.corrupt_file(ckpt.server_id, seed=7) is True
    assert store.verify_file(ckpt.server_id) is False
    assert store.load(ckpt.server_id) is None  # corrupt == no checkpoint
    assert store.corrupt_detected(ckpt.server_id) >= 1
    report = store.corruption_reports[0]
    assert isinstance(report, CorruptCheckpoint)
    assert report.server_id == ckpt.server_id
    assert report.reason
    # damaging a file that does not exist is a no-op, not an error
    assert store.corrupt_file(0) is False


def test_file_store_detects_truncation(tmp_path):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    assert store.truncate_file(ckpt.server_id, keep_frac=0.5) is True
    assert store.verify_file(ckpt.server_id) is False
    assert store.load(ckpt.server_id) is None
    assert store.corrupt_detected(ckpt.server_id) >= 1
    # a fresh persist replaces the torn file and clears the verdict
    store.persist(ckpt)
    assert store.verify_file(ckpt.server_id) is True
    assert store.load(ckpt.server_id) is not None


def test_damage_to_a_slot_a_commit_has_just_emptied_is_no_damage(
    tmp_path, monkeypatch
):
    """A commit landing on its worker thread truncates the slot the store
    still takes for the newest.  Damage scheduled by a fault plan then
    finds the file empty, and reports that there was nothing to damage."""
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    slots = [store._path(ckpt.server_id, slot) for slot in (0, 1)]
    (newest,) = [path for path in slots if path.stat().st_size]
    real_read = Path.read_bytes

    def read_bytes(path):
        if path == newest:
            os.truncate(path, 0)  # the commit lands just before the read
        return real_read(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    assert store.corrupt_file(ckpt.server_id, seed=7) is False
    assert store.truncate_file(ckpt.server_id, keep_frac=0.5) is False
    assert [path.stat().st_size for path in slots] == [0, 0]


def test_file_store_sweeps_stale_tmp_on_boot(tmp_path):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    store.persist(ckpt)
    # an older build crashed between its tmp-write and its rename
    stale = tmp_path / "server_9.ckpt.tmp"
    stale.write_bytes(b"half-written garbage")
    reopened = FileDurableStore(tmp_path)
    assert not stale.exists()
    loaded = reopened.load(ckpt.server_id)
    assert loaded is not None
    assert wire.encode(loaded.state) == wire.encode(ckpt.state)


def _plain(obj):
    """Checkpoint content as plain data: arrays as lists (so equal symbols
    compare equal whatever dtype holds them), containers by their fields."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (Tag, VectorClock)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    names = getattr(type(obj), "__slots__", None) or getattr(obj, "__dict__", None)
    if names:
        return (type(obj).__name__, [_plain(getattr(obj, n)) for n in names])
    return obj


def test_pr12_checkpoint_loads_serves_and_is_rewritten_compact(tmp_path):
    """``tests/data/checkpoint_pr12.ckpt`` was written by the encoder as it
    stood before group commit: ``CECKPT01``, 9-byte integers, the symbol as
    int64.  It still loads; the server restored from it serves its object;
    the next persist writes the compact form of the same state."""
    golden = (Path(__file__).parent / "data" / "checkpoint_pr12.ckpt").read_bytes()
    assert golden.startswith(b"CECKPT01")
    # a checkpoint the old code wrote loads under the new code ...
    store = FileDurableStore(tmp_path)
    (tmp_path / "server_2.ckpt").write_bytes(golden)
    assert store.verify_file(2) is True
    loaded = store.load(2)
    assert loaded is not None and loaded.server_id == 2
    assert store.corrupt_detected() == 0
    assert loaded.state["M"].value.dtype == np.int64
    # ... restores to a server whose symbol is narrow *and* sealed as such
    code = example1_code()
    core = ServerCore(2, code)
    restore_server_state(core, loaded)
    assert core.M.value.dtype == code.field.storage_dtype
    assert core.verify_codeword()
    # ... which serves every object it can decode alone (server 2 holds X3)
    for obj in sorted(core.objects):
        effects = core.handle_message(9, ReadRequest((9, obj), obj), 1.0)
        (reply,) = [e.msg for e in effects if type(e) is ReplyEffect]
        assert reply.value.dtype == code.field.storage_dtype
        assert reply.value.tolist() == loaded.state["M"].value[0].tolist()
    assert core.stats.integrity_quarantines == 0
    # ... and whose next persist writes the same state in the compact form
    store.persist(capture_server_state(core))
    rewritten = _slot_file(tmp_path, 2).read_bytes()
    assert rewritten.startswith(b"CECKPT03")
    # the old file goes once the slot holding its successor is durable
    assert not (tmp_path / "server_2.ckpt").exists()
    assert len(rewritten) < len(golden) / 2
    again = store.load(2)
    assert store.corrupt_detected() == 0
    assert _plain(again.state) == _plain(loaded.state)
    assert again.state["M"].value.dtype == code.field.storage_dtype


def test_cluster_upgrades_in_place_from_int64_ckpt01_files(tmp_path):
    """Five servers are killed, every checkpoint file is replaced by what a
    PR-13 build would have written for the same state (``CECKPT01``, v6
    integers, int64 symbols) and the servers are restarted: nothing is
    reported corrupt, nothing is quarantined (the seal is taken over the
    *narrowed* symbol), every read is right, and the auditor stays clean."""
    code = example1_code(value_len=8)
    rng = np.random.default_rng(21)

    async def run():
        async with live_cluster(
            code,
            config=ServerConfig(gc_interval=20.0),
            store_dir=tmp_path,
            retry=RetryPolicy(timeout=300.0, max_retries=8),
        ) as (cluster, auditor, _):
            clients = [await cluster.add_client(server=s) for s in range(code.N)]
            written = {}
            for i in range(12):
                value = cluster.value(rng.integers(0, 257, code.value_len))
                op = await clients[i % 3].write(i % code.K, value)
                assert not op.failed
                written[i % code.K] = value
            op = await clients[4].read(1)  # a remote read leaves ValResps behind
            assert not op.failed
            await cluster.quiesce()
            clocks = [s.core.vc for s in cluster.servers]
            for s in range(code.N):
                await cluster.kill_server(s)
            sizes = []
            for s in range(code.N):
                # the directory an older build left: one file per server
                slot = _slot_file(tmp_path, s)
                new = slot.read_bytes()
                old = checkpoint_v6(FileDurableStore._decode_checkpoint(new))
                assert old.startswith(b"CECKPT01")
                for path in tmp_path.glob(f"server_{s}.ckpt.[01]"):
                    path.unlink()
                (tmp_path / f"server_{s}.ckpt").write_bytes(old)
                sizes.append((len(new), len(old)))
            for s in range(code.N):
                await cluster.restart_server(s)
            assert [s.core.vc for s in cluster.servers] == clocks
            # every restored array is narrow before anything new is written
            dtypes = {s.core.M.value.dtype for s in cluster.servers} | {
                value.dtype
                for s in cluster.servers
                for hist in s.core.L.values()
                for _, value in hist.items()
            }
            reads = []
            for s in range(code.N):
                probe = await cluster.add_client(server=s)
                for k in range(code.K):
                    op = await probe.read(k)
                    assert not op.failed
                    reads.append((k, op.value))
            # one more write per object goes through every restored symbol
            for k in range(code.K):
                value = cluster.value(rng.integers(0, 257, code.value_len))
                assert not (await clients[k].write(k, value)).failed
                written[k] = value
            await cluster.quiesce()
            for s in (3, 4):
                for k in range(code.K):
                    op = await clients[s].read(k)
                    assert not op.failed
                    reads.append((k, op.value))
                    assert np.array_equal(op.value, written[k])
            await cluster.quiesce()
            legacy = sorted(p.name for p in tmp_path.glob("server_?.ckpt"))
            quarantines = sum(
                s.core.stats.integrity_quarantines for s in cluster.servers
            )
            reports = list(cluster.store.corruption_reports)
            await asyncio.sleep(0.1)  # let the audit streams drain
            violations = auditor.finalize()
            history = cluster.history
            return (
                sizes, reads, dtypes, quarantines, reports, violations, history,
                legacy,
            )

    sizes, reads, dtypes, quarantines, reports, violations, history, legacy = (
        asyncio.run(run())
    )
    assert all(old > 2 * new for new, old in sizes), sizes
    assert legacy == []  # every server has written its slots since
    assert reports == [] and quarantines == 0
    assert dtypes == {code.field.storage_dtype}
    assert violations == []
    zero = code.zero_value()
    check_causal_consistency(history, zero)
    check_returns_written_values(history, zero)
    assert len(reads) == code.N * code.K + 2 * code.K


# ----------------------------------------------------------------------
# skip-if-unchanged: a persist that would rewrite the same state is free


class _FsyncCounter:
    """Counts ``os.fsync`` calls (``dirs`` of them on directories) and
    records any other way to sync in ``others``: the ledger counts
    ``os.fsync`` alone, so every sync must go through it."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.dirs = 0
        self.others: list[str] = []
        real = os.fsync

        def fsync(fd):
            self.calls += 1
            self.dirs += stat.S_ISDIR(os.fstat(fd).st_mode)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        for name in ("fdatasync", "sync", "sync_file_range"):
            if hasattr(os, name):
                monkeypatch.setattr(
                    os, name, lambda *args, name=name: self.others.append(name)
                )


def test_file_store_skips_unchanged_state_and_writes_changed(tmp_path, monkeypatch):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    fsyncs = _FsyncCounter(monkeypatch)
    store.persist(ckpt)
    # the first write: the slot and the directory that now lists both slots
    assert (fsyncs.calls, store.persist_counts[ckpt.server_id]) == (2, 1)
    written = _slot_file(tmp_path, ckpt.server_id).read_bytes()
    # same state and transport, later clock reading: nothing to make durable
    ckpt.time += 50.0
    store.persist(ckpt)
    assert (fsyncs.calls, store.persist_counts[ckpt.server_id]) == (2, 1)
    assert store.skip_counts[ckpt.server_id] == 1
    assert _slot_file(tmp_path, ckpt.server_id).read_bytes() == written
    assert not list(tmp_path.glob("*.tmp"))
    # a change in either compared section is written, at one fsync each
    ckpt.state["_opid_seq"] += 1
    store.persist(ckpt)
    assert (fsyncs.calls, store.persist_counts[ckpt.server_id]) == (3, 2)
    ckpt.transport = {"send": {}, "recv": {0: 1}}
    store.persist(ckpt)
    assert (fsyncs.calls, store.persist_counts[ckpt.server_id]) == (4, 3)
    assert store.load(ckpt.server_id).transport == {"send": {}, "recv": {0: 1}}
    assert (fsyncs.dirs, fsyncs.others) == (1, [])


def test_file_store_fsyncs_the_directory_once_per_server_and_store(
    tmp_path, monkeypatch
):
    """Only the write that first creates a server's slots -- in a store, or
    after ``wipe`` -- fsyncs the directory; every later one is one fsync
    of one slot, whichever slot it lands in and whatever ``load`` read."""
    fsyncs = _FsyncCounter(monkeypatch)
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    sid = ckpt.server_id
    costs = []

    def write() -> None:
        ckpt.state["_opid_seq"] += 1
        before = (fsyncs.calls, fsyncs.dirs)
        store.persist(ckpt)
        costs.append((fsyncs.calls - before[0], fsyncs.dirs - before[1]))

    for _ in range(4):
        write()
    assert store.load(sid) is not None
    write()
    store.wipe(sid)
    write()
    write()
    store = FileDurableStore(tmp_path)  # a new process over the same files
    write()
    write()
    assert costs == [
        (2, 1), (1, 0), (1, 0), (1, 0), (1, 0),
        (2, 1), (1, 0),
        (2, 1), (1, 0),
    ]
    assert store.persist_counts[sid] == 2 and fsyncs.others == []
    assert store.load(sid).state["_opid_seq"] == ckpt.state["_opid_seq"]


def test_file_store_does_not_rewrite_for_an_ack_that_only_trims_a_send_log(tmp_path):
    """An ack drops frames from the sender's retransmission log and nothing
    else.  The file that still lists them restores to a channel that replays
    them once into the receiver's watermark, so the trim alone is skipped --
    otherwise the bytes at rest depend on whether a GC tick fell between the
    ack and whoever looks at the file."""
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    sid = ckpt.server_id

    def transport(seq, unacked, watermark):
        return {"send": {1: {"seq": seq, "unacked": unacked}}, "recv": {1: watermark}}

    ckpt.transport = transport(2, [(1, "a"), (2, "b")], 7)
    store.persist(ckpt)
    path = _slot_file(tmp_path, sid)
    written = path.read_bytes()
    for tail in ([(2, "b")], []):  # the peer acks frame 1, then frame 2
        ckpt.transport = transport(2, tail, 7)
        store.persist(ckpt)
    assert (store.persist_counts[sid], store.skip_counts[sid]) == (1, 2)
    assert path.read_bytes() == written
    # a frame sent is written, with the log as trimmed by then ...
    ckpt.transport = transport(3, [(3, "c")], 7)
    store.persist(ckpt)
    assert store.persist_counts[sid] == 2
    assert [tuple(e) for e in store.load(sid).transport["send"][1]["unacked"]] == [
        (3, "c")
    ]
    # ... and so is a frame delivered (load forgot the file: one more write)
    store.persist(ckpt)
    ckpt.transport = transport(3, [(3, "c")], 8)
    store.persist(ckpt)
    assert store.persist_counts[sid] == 4
    assert store.load(sid).transport["recv"] == {1: 8}


def test_bytes_at_rest_after_a_remote_read_do_not_depend_on_gc_ticks():
    """A read at a coded server leaves one ValResp per responder in the
    responders' send logs.  Their acks arrive together with the client's
    reply, so whether a responder's next (idle) GC tick rewrote its file
    without the frame used to be a race against whoever measured the
    directory; now idle ticks leave the files alone."""
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=20.0))
        await cluster.start()
        writer = await cluster.add_client(server=0)
        for k in range(code.K):
            assert not (await writer.write(k, cluster.value(k + 1))).failed
        await cluster.quiesce()
        await asyncio.sleep(0.2)  # GC settles: history lists are empty
        reader = await cluster.add_client(server=VICTIM)
        assert (await reader.read(0)).done
        responders = [s for s in range(code.N) if s != VICTIM]

        def at_rest():
            return [
                (
                    _slot_file(cluster.store.root, s).stat().st_size,
                    cluster.store.persist_counts[s],
                )
                for s in responders
            ]

        # the read returns once the victim holds a recovery set; a
        # responder it did not need may still be committing its ValResp
        await cluster.committed()
        before = at_rest()
        ticks = sum(s.core.stats.gc_runs for s in cluster.servers)
        await asyncio.sleep(0.3)
        ticks = sum(s.core.stats.gc_runs for s in cluster.servers) - ticks
        acked = all(
            not ch.arq.unacked
            for s in cluster.servers
            for ch in s._channels.values()
        )
        after = at_rest()
        await cluster.shutdown()
        return before, after, ticks, acked

    before, after, ticks, acked = asyncio.run(run())
    assert ticks >= 25 and acked  # every server ticked, every frame was acked
    assert after == before


def test_file_store_forgets_the_file_on_load_failed_verify_and_wipe(tmp_path):
    store = FileDurableStore(tmp_path)
    ckpt = _checkpoint()
    sid = ckpt.server_id
    store.persist(ckpt)
    # external damage is invisible to the store until something reads the
    # file: a persist of the same state is still skipped ...
    assert store.corrupt_file(sid, seed=5)
    store.persist(ckpt)
    assert store.persist_counts[sid] == 1
    # ... the scrub's verify notices, and then the same state is rewritten
    assert store.verify_file(sid) is False
    store.persist(ckpt)
    assert store.persist_counts[sid] == 2 and store.verify_file(sid) is True
    # load: typed report, no checkpoint, and the next persist is real
    assert store.truncate_file(sid, keep_frac=0.3)
    assert store.load(sid) is None
    assert isinstance(store.corruption_reports[-1], CorruptCheckpoint)
    store.persist(ckpt)
    assert store.persist_counts[sid] == 3 and store.load(sid) is not None
    store.persist(ckpt)  # (load forgot the file even though it was intact)
    assert store.persist_counts[sid] == 4
    store.wipe(sid)
    store.persist(ckpt)
    assert store.persist_counts[sid] == 5 and store.verify_file(sid) is True


def test_idle_cluster_does_not_touch_the_disk(monkeypatch):
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=50.0))
        await cluster.start()
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(3))
        assert not op.failed
        await cluster.quiesce()
        await asyncio.sleep(0.3)  # let GC finish what the write started
        fsyncs = _FsyncCounter(monkeypatch)
        ticks = sum(s.core.stats.gc_runs for s in cluster.servers)
        writes = sum(cluster.store.persist_counts.values())
        await asyncio.sleep(1.0)
        idle_fsyncs = fsyncs.calls
        idle_ticks = sum(s.core.stats.gc_runs for s in cluster.servers) - ticks
        idle_writes = sum(cluster.store.persist_counts.values()) - writes
        # a state change after the idle period is written
        op = await client.write(1, cluster.value(9))
        assert not op.failed
        await cluster.quiesce()
        vc = cluster.servers[0].core.vc
        on_disk = cluster.store.load(0).state["vc"]
        await cluster.shutdown()
        return idle_fsyncs, idle_ticks, idle_writes, fsyncs.calls, vc, on_disk

    idle_fsyncs, idle_ticks, idle_writes, fsyncs, vc, on_disk = asyncio.run(run())
    assert idle_ticks >= 50  # 5 servers kept ticking (about 20 times each)
    assert (idle_fsyncs, idle_writes) == (0, 0)
    assert fsyncs > 0 and on_disk == vc


def test_scrub_rewrites_a_rotted_checkpoint_of_an_idle_server():
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(
            code,
            config=ServerConfig(gc_interval=50.0),
            scrub=ScrubConfig(interval=60.0),
        )
        await cluster.start()
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(3))
        assert not op.failed
        await cluster.quiesce()
        await asyncio.sleep(0.3)
        victim = cluster.servers[VICTIM]
        writes = cluster.store.persist_counts[VICTIM]
        assert cluster.store.corrupt_file(VICTIM, seed=13)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 3.0
        while (
            victim.scrub.stats.checkpoints_rewritten < 1
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        # the scrub round only asked for the rewrite: wait for its commit
        await asyncio.wait_for(victim.committed(), 3.0)
        stats = victim.scrub.stats
        result = (
            stats.checkpoints_corrupt,
            stats.checkpoints_rewritten,
            cluster.store.persist_counts[VICTIM] - writes,
            cluster.store.corrupt_detected(VICTIM),
            cluster.store.verify_file(VICTIM),
        )
        await cluster.shutdown()
        return result

    corrupt, rewritten, writes, reports, verifies = asyncio.run(run())
    assert (corrupt, rewritten) == (1, 1)
    assert writes == 1, "the heal did not force a real write"
    assert reports == 1 and verifies is True


def test_restart_after_damage_to_an_idle_servers_file_is_typed_and_empty():
    code = example1_code()

    async def run():
        cluster = AsyncioCluster(code, config=ServerConfig(gc_interval=50.0))
        await cluster.start()
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(3))
        assert not op.failed
        await cluster.quiesce()
        # damage while the server is up and idle: nothing rewrites the file
        assert cluster.store.truncate_file(VICTIM, keep_frac=0.5)
        await asyncio.sleep(0.2)
        await cluster.kill_server(VICTIM)
        await cluster.restart_server(VICTIM)
        reports = list(cluster.store.corruption_reports)
        vc = cluster.servers[VICTIM].core.vc
        await cluster.shutdown()
        return reports, vc

    reports, vc = asyncio.run(run())
    assert len(reports) == 1 and isinstance(reports[0], CorruptCheckpoint)
    assert reports[0].server_id == VICTIM
    assert vc.lamport == 0, "restart-empty: a corrupt checkpoint is no checkpoint"


_CKPT_BLOB = FileDurableStore._encode_checkpoint(_checkpoint(), generation=7)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_any_single_bit_flip_in_a_checkpoint_is_detected(data):
    """Every byte of the container is covered by some digest, and a flip
    in a slot of full length is never mistaken for a torn write (which
    ``load`` may pass over for an older slot)."""
    pos = data.draw(st.integers(0, len(_CKPT_BLOB) - 1))
    bit = data.draw(st.integers(0, 7))
    damaged = bytearray(_CKPT_BLOB)
    damaged[pos] ^= 1 << bit
    try:
        FileDurableStore._decode_checkpoint(bytes(damaged))
    except _TornCheckpoint:
        raise AssertionError(f"bit {bit} of byte {pos} flipped reads as torn")
    except ValueError:
        pass  # typed detection -- the load path turns this into a report
    else:
        raise AssertionError(
            f"bit {bit} of byte {pos} flipped undetected"
        )


# ----------------------------------------------------------------------
# frame damage: deterministic injection, guaranteed CRC rejection


def test_frame_damage_is_deterministic_and_crc_rejected():
    frame = wire.encode_frame(_checkpoint())
    injector = LiveFaultInjector(LinkFaults(corrupt_prob=1.0, seed=42))
    a = injector.damage(frame, 0, 1, 5)
    b = injector.damage(frame, 0, 1, 5)
    assert a == b, "damage is not a pure function of (seed, src, dst, k)"
    assert a != frame
    assert injector.damage(frame, 0, 1, 6) != a  # lane index matters
    # the length prefix survives: the receiver sees a well-framed blob
    assert a[:4] == frame[:4]
    try:
        wire.decode_frame(a)
    except wire.FrameCorrupt:
        pass
    else:
        raise AssertionError("CRC accepted a bit-flipped frame")


# ----------------------------------------------------------------------
# live restart from a damaged checkpoint: detect, boot empty, heal


async def _damaged_restart_run(damage, repair: RepairConfig | None):
    """Crash VICTIM, damage its checkpoint file, restart, wait for repair."""
    async with live_cluster(
        example1_code(),
        config=ServerConfig(gc_interval=25.0),
        retry=RetryPolicy(timeout=40.0, max_retries=8),
        detector=FailureDetectorConfig(heartbeat_interval=25.0,
                                       suspect_after=150.0),
        repair=repair,
    ) as (cluster, auditor, _):
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(4))
        assert not op.failed
        await cluster.quiesce()

        await cluster.kill_server(VICTIM)
        assert damage(cluster.store)
        op = await client.write(0, cluster.value(8))
        assert not op.failed
        op = await client.write(1, cluster.value(6))
        assert not op.failed
        await asyncio.sleep(0.3)
        await cluster.restart_server(VICTIM)
        await asyncio.sleep(REPAIR_WAIT)

        victim_core = cluster.servers[VICTIM].core
        recovered = (
            victim_core.repair_known_tag(0).ts.lamport > 0
            and victim_core.repair_known_tag(1).ts.lamport > 0
        )
        detected = cluster.store.corrupt_detected(VICTIM)
        return recovered, detected, await verdict(cluster, auditor)


def test_restart_from_bitrotted_checkpoint_detects_and_heals():
    recovered, detected, violations = asyncio.run(
        _damaged_restart_run(
            lambda store: store.corrupt_file(VICTIM, seed=3),
            repair=RepairConfig(digest_interval=150.0, round_timeout=500.0),
        )
    )
    assert detected >= 1, "the rotted checkpoint loaded without a report"
    assert recovered, "victim still stale after the repair budget"
    assert violations == [], f"recovery broke consistency: {violations}"


def test_restart_from_torn_checkpoint_detects_and_heals():
    recovered, detected, violations = asyncio.run(
        _damaged_restart_run(
            lambda store: store.truncate_file(VICTIM, keep_frac=0.4),
            repair=RepairConfig(digest_interval=150.0, round_timeout=500.0),
        )
    )
    assert detected >= 1, "the torn checkpoint loaded without a report"
    assert recovered, "victim still stale after the repair budget"
    assert violations == [], f"recovery broke consistency: {violations}"


# ----------------------------------------------------------------------
# live scrub: in-memory rot is quarantined and healed while serving


async def _live_rot_run():
    cluster = AsyncioCluster(
        example1_code(),
        config=ServerConfig(gc_interval=25.0),
        retry=RetryPolicy(timeout=40.0, max_retries=8),
        repair=RepairConfig(digest_interval=150.0, round_timeout=500.0),
        scrub=ScrubConfig(interval=80.0),
    )
    await cluster.start()
    client = await cluster.add_client(server=0)
    try:
        op = await client.write(0, cluster.value(7))
        assert not op.failed
        await cluster.quiesce()

        cluster.servers[VICTIM].core.corrupt_codeword(seed=11)
        await asyncio.sleep(REPAIR_WAIT)

        stats = cluster.scrub_stats()
        victim_core = cluster.servers[VICTIM].core
        healed = victim_core.repair_known_tag(0).ts.lamport > 0
        # a fresh reader homed at the victim must see the write, never rot
        probe = await cluster.add_client(server=VICTIM)
        op = await probe.read(0)
        assert not op.failed
        value = op.value.tolist()
        zero = cluster.code.zero_value()
        violations = check_causal_consistency(
            cluster.history, zero, raise_on_violation=False
        )
        violations += check_returns_written_values(
            cluster.history, zero, raise_on_violation=False
        )
        return stats, healed, value, violations
    finally:
        await cluster.shutdown()


def test_live_scrub_quarantines_and_heals_memory_rot():
    stats, healed, value, violations = asyncio.run(_live_rot_run())
    assert stats["rounds"] > 0, "scrub timer never fired"
    # the rot was caught -- by the scrub round or the read-path guard
    assert stats["integrity_quarantines"] >= 1, stats
    assert healed, "victim never re-learned the write after quarantine"
    assert value == [7], f"reader at the healed victim saw {value}"
    assert violations == [], f"quarantine broke consistency: {violations}"


# ----------------------------------------------------------------------
# the seeded live corruption soak

SOAK_CONFIG = ChaosConfig(
    ops_per_client=6,
    corrupt_prob_max=0.15,
    codeword_rots=1,
    checkpoint_rots=1,
    scrub_interval=60.0,
)


def test_live_corruption_chaos_soak():
    code = six_dc_code()
    results = [
        run_live_chaos(
            code, seed, config=SOAK_CONFIG, time_scale=3.0,
            repair=RepairConfig(),
        )
        for seed in LIVE_SCRUB_SEEDS
    ]
    for r in results:
        assert r.ok, r.summary()
        assert r.converged
        assert r.completed > 0
        assert r.audit_records > 0
    # corruption actually happened and was detected, not just survived
    assert any(r.corrupted > 0 for r in results)
    assert any(
        r.scrub.get("integrity_quarantines", 0) > 0 for r in results
    )
    assert any(
        r.scrub.get("checkpoint_reports", 0) > 0 for r in results
    )
