"""The online causal-consistency auditor: checker semantics and the wire.

Unit tests drive :class:`~repro.consistency.online.IncrementalCausalChecker`
with hand-built record streams covering every bad pattern (and the valid
logs that must NOT trigger them); the live tests stream records into an
:class:`~repro.runtime.auditor.OnlineAuditor` over a real TCP socket.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.consistency.online import (
    AuditOp,
    IncrementalCausalChecker,
)
from repro.runtime import wire
from repro.runtime.auditor import OnlineAuditor

ZERO = ((0, 0), -1)  # the initial-value tag key: zero timestamp


def _tag(client: int, *components) -> tuple:
    return (tuple(components), client)


class _Seq:
    """Monotone per-server seq numbers for hand-built streams."""

    def __init__(self):
        self._next = {}

    def __call__(self, server: int) -> int:
        self._next[server] = self._next.get(server, 0) + 1
        return self._next[server]


def _w(seq, server, obj, tag, opid):
    return AuditOp(server, seq(server), "write", obj, tag, opid)


def _a(seq, server, obj, tag):
    return AuditOp(server, seq(server), "apply", obj, tag)


def _r(seq, server, obj, tag, opid):
    return AuditOp(server, seq(server), "read", obj, tag, opid)


def _run(records) -> IncrementalCausalChecker:
    checker = IncrementalCausalChecker(sweep_interval=1000)
    for rec in records:
        checker.ingest(rec)
    return checker


def _kinds(checker) -> list[str]:
    return sorted(v.kind for v in checker.finalize())


# ----------------------------------------------------------------------
# valid logs stay silent


def test_valid_log_no_violations():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _a(s, 1, 0, t1),          # peer apply corroborates the tag
        _r(s, 0, 0, t1, (7, 1)),  # read own write
        _w(s, 0, 0, t2, (7, 2)),
        _r(s, 1, 0, t2, (7, 3)),  # read the newest write elsewhere
    ])
    assert _kinds(checker) == []


def test_initial_read_before_any_write_is_fine():
    s = _Seq()
    checker = _run([
        _r(s, 0, 0, ZERO, (7, 0)),
        _w(s, 0, 0, _tag(7, 1), (7, 1)),
    ])
    assert _kinds(checker) == []


def test_replayed_records_deduplicate():
    s = _Seq()
    records = [
        _w(s, 0, 0, _tag(7, 1, 0), (7, 0)),
        _r(s, 0, 0, _tag(7, 1, 0), (7, 1)),
    ]
    checker = IncrementalCausalChecker()
    for rec in records * 3:  # whole-log replay after reconnects
        checker.ingest(rec)
    assert checker.records_ingested == 2
    assert _kinds(checker) == []


def test_out_of_order_arrival_read_before_write():
    # the reader's server stream is ahead of the writer's
    t1 = _tag(7, 1, 0)
    checker = _run([
        AuditOp(1, 1, "read", 0, t1, (8, 0)),
        AuditOp(0, 1, "write", 0, t1, (7, 0)),
    ])
    assert _kinds(checker) == []


# ----------------------------------------------------------------------
# each bad pattern fires


def test_duplicate_write_two_tags_one_opid():
    s = _Seq()
    checker = _run([
        _w(s, 0, 0, _tag(7, 1, 0), (7, 0)),
        _w(s, 1, 0, _tag(7, 2, 0), (7, 0)),  # same write, different tag
    ])
    assert "DuplicateWrite" in _kinds(checker)


def test_duplicate_tag_two_opids_one_tag():
    s = _Seq()
    t = _tag(7, 1, 0)
    checker = _run([
        _w(s, 0, 0, t, (7, 0)),
        _w(s, 1, 0, t, (8, 0)),  # different write claims the same tag
    ])
    assert "DuplicateTag" in _kinds(checker)


def test_cyclic_causal_order():
    # client 7: read tB then write tA; client 8: read tA then write tB.
    # session + reads-from edges close a causal cycle.
    s = _Seq()
    ta, tb = _tag(7, 1, 0), _tag(8, 0, 1)
    checker = _run([
        _w(s, 0, 0, ta, (7, 1)),
        _w(s, 1, 0, tb, (8, 1)),
        _r(s, 0, 0, tb, (7, 0)),
        _r(s, 1, 0, ta, (8, 0)),
    ])
    assert "CyclicCO" in _kinds(checker)


def test_stale_read_against_causally_preceding_larger_tag():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _w(s, 0, 0, t2, (7, 1)),
        # same client then reads back the OLD tag: session order says the
        # larger write causally precedes the read
        _r(s, 0, 0, t1, (7, 2)),
    ])
    assert "StaleRead" in _kinds(checker)


def test_fresh_read_is_not_stale():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _w(s, 0, 0, t2, (7, 1)),
        _r(s, 0, 0, t2, (7, 2)),
    ])
    assert _kinds(checker) == []


def test_write_co_init_read():
    s = _Seq()
    checker = _run([
        _w(s, 0, 0, _tag(7, 1, 0), (7, 0)),
        _r(s, 0, 0, ZERO, (7, 1)),  # own write precedes, initial returned
    ])
    assert "WriteCOInitRead" in _kinds(checker)


def test_thin_air_read_only_at_finalize():
    s = _Seq()
    checker = _run([_r(s, 0, 0, _tag(9, 5, 5), (7, 0))])
    assert checker.violations == []  # the writer's log may just be behind
    assert _kinds(checker) == ["ThinAirRead"]


def test_stale_read_detected_by_late_sweep():
    # the staleness-establishing write record arrives AFTER the read
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = IncrementalCausalChecker(sweep_interval=1000)
    checker.ingest(AuditOp(0, 1, "write", 0, t1, (7, 0)))
    checker.ingest(AuditOp(1, 1, "read", 0, t1, (7, 2)))
    assert checker.violations == []
    checker.ingest(AuditOp(0, 2, "write", 0, t2, (7, 1)))
    assert "StaleRead" in _kinds(checker)


def test_violations_not_repeated_across_sweeps():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _w(s, 0, 0, t2, (7, 1)),
        _r(s, 0, 0, t1, (7, 2)),
    ])
    checker.sweep()
    checker.sweep()
    checker.finalize()
    assert len([v for v in checker.violations if v.kind == "StaleRead"]) == 1


# ----------------------------------------------------------------------
# ambiguous reads: two servers answered, only one reached the client


def test_ambiguous_read_is_excluded_from_checks():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _w(s, 0, 0, t2, (7, 1)),
        # server 0 answered the read with the stale t1, server 1 with t2;
        # the client accepted exactly one, logs cannot tell which
        _r(s, 0, 0, t1, (7, 2)),
        _r(s, 1, 0, t2, (7, 2)),
    ])
    assert _kinds(checker) == []


def test_same_answer_from_two_servers_is_not_ambiguous():
    s = _Seq()
    t1, t2 = _tag(7, 1, 0), _tag(7, 2, 0)
    checker = _run([
        _w(s, 0, 0, t1, (7, 0)),
        _w(s, 0, 0, t2, (7, 1)),
        _r(s, 0, 0, t1, (7, 2)),
        _r(s, 1, 0, t1, (7, 2)),  # same stale answer: still a violation
    ])
    assert "StaleRead" in _kinds(checker)


# ----------------------------------------------------------------------
# the wire and the TCP auditor


def test_audit_op_wire_roundtrip():
    op = AuditOp(3, 17, "write", 2, ((1, 0, 2), 9), (9, 4), 123.5)
    back = wire.decode_frame(wire.encode_frame(op))
    assert isinstance(back, AuditOp)
    assert (back.server, back.seq, back.kind, back.obj) == (3, 17, "write", 2)
    assert back.tag == ((1, 0, 2), 9)
    assert back.opid == (9, 4)
    assert back.time == 123.5


async def _stream(records):
    auditor = OnlineAuditor()
    await auditor.start()
    _, writer = await asyncio.open_connection(*auditor.address)
    writer.write(wire.encode_frame(("ha", 0)))
    for rec in records:
        writer.write(wire.encode_frame(("r", rec)))
    await writer.drain()
    deadline = asyncio.get_running_loop().time() + 5.0
    while auditor.records_received < len(records):
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)
    writer.close()
    violations = auditor.finalize()
    await auditor.close()
    return auditor, violations


def test_live_auditor_accepts_valid_stream(tmp_path):
    s = _Seq()
    t1 = _tag(7, 1, 0)
    records = [
        _w(s, 0, 0, t1, (7, 0)),
        _r(s, 0, 0, t1, (7, 1)),
    ]
    auditor, violations = asyncio.run(_stream(records))
    assert violations == []
    assert auditor.records_received == 2
    assert auditor.connections == 1
    dump = auditor.dump(tmp_path / "audit.json")
    assert dump.read_text().find('"violations": []') != -1


def test_live_auditor_flags_violation_over_the_wire():
    s = _Seq()
    records = [
        _w(s, 0, 0, _tag(7, 1, 0), (7, 0)),
        _w(s, 1, 0, _tag(7, 2, 0), (7, 0)),  # double apply
    ]
    _, violations = asyncio.run(_stream(records))
    assert [v.kind for v in violations] == ["DuplicateWrite"]


def test_checker_rejects_unknown_kind():
    checker = IncrementalCausalChecker()
    with pytest.raises(ValueError):
        checker.ingest(AuditOp(0, 1, "frobnicate", 0, _tag(1, 1)))


async def _closed_by_auditor(auditor, frames) -> bool:
    """Send ``frames`` on a fresh connection; whether the auditor closed it."""
    reader, writer = await asyncio.open_connection(*auditor.address)
    try:
        writer.write(wire.encode_frames(frames))
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 5.0) == b""
    finally:
        writer.close()


def test_a_malformed_hello_or_record_closes_the_stream_quietly():
    s = _Seq()
    t1 = _tag(7, 1, 0)
    good = [_w(s, 0, 0, t1, (7, 0)), _r(s, 0, 0, t1, (7, 1))]

    async def run():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, ctx: reported.append(ctx)
        )
        auditor = OnlineAuditor()
        await auditor.start()
        for frames in (
            [7],
            [("ha",)],
            [("ha", "x")],
            [("ha", 0), 7],
            [("ha", 0), ("r",)],
            [("ha", 0), ("r", "not a record")],
        ):
            assert await _closed_by_auditor(auditor, frames), frames
        # a following good stream is still ingested
        _, writer = await asyncio.open_connection(*auditor.address)
        writer.write(wire.encode_frames([("ha", 0)] + [("r", r) for r in good]))
        await writer.drain()
        deadline = asyncio.get_running_loop().time() + 5.0
        while auditor.checker.records_ingested < len(good):
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        writer.close()
        violations = auditor.finalize()
        await auditor.close()
        return reported, violations

    reported, violations = asyncio.run(run())
    assert reported == [] and violations == []


def test_a_crc_damaged_audit_record_is_replayed_not_lost(monkeypatch):
    """No ARQ on the audit stream: a record failing its CRC must close the
    connection, so that the reconnect's full replay delivers it."""
    from repro.ec.codes import example1_code
    from repro.runtime.asyncio_rt import AsyncioCluster

    transport_cls = asyncio.selector_events._SelectorSocketTransport
    real_write = transport_cls.write
    damaged = []

    def write(transport, data):
        data = bytes(data)
        if not damaged and transport.get_extra_info("peername") == target[0]:
            # flip a bit in the body of the first ``r`` frame of the stream
            pos = 0
            while pos < len(data):
                end = pos + 4 + int.from_bytes(data[pos : pos + 4], "big")
                frame = wire.decode_frame(data[pos:end])
                if frame[0] == "r":
                    damaged.append(frame[1])
                    data = data[: end - 1] + bytes([data[end - 1] ^ 0x10]) + data[end:]
                    break
                pos = end
        return real_write(transport, data)

    target = [None]
    monkeypatch.setattr(transport_cls, "write", write)

    async def run():
        auditor = OnlineAuditor()
        await auditor.start()
        target[0] = auditor.address
        cluster = AsyncioCluster(example1_code(), audit_addr=auditor.address)
        await cluster.start()
        client = await cluster.add_client(0)
        for k in range(4):
            assert not (await client.write(k % 3, cluster.value(k + 1))).failed
            assert not (await client.read(k % 3)).failed
        await cluster.quiesce()
        logged = sum(len(s._audit_log) for s in cluster.servers)
        deadline = asyncio.get_running_loop().time() + 5.0
        while auditor.checker.records_ingested < logged:
            assert asyncio.get_running_loop().time() < deadline, "record lost"
            await asyncio.sleep(0.01)
        await cluster.shutdown()
        violations = auditor.finalize()
        await auditor.close()
        return auditor, logged, violations

    auditor, logged, violations = asyncio.run(run())
    assert len(damaged) == 1
    assert auditor.connections > 5  # the damaged stream reconnected
    assert auditor.checker.records_ingested == logged
    assert auditor.records_received >= logged
    assert violations == []
