"""What a history keeps per completed operation.

A benchmark window keeps every operation it completed, so a run that
completes several times more operations must not keep several times more
bytes.  Three properties, each with the safety condition that makes it
harmless to the checkers:

* a completed operation's value is a compact copy the operation *owns*
  (a read's value arrives as a view that pins its whole wire frame);
* a read that returned tag *t* shares the ``value`` and ``tag`` objects of
  the completed write *t* -- only when the values really are equal -- and
  a write's response clock is its tag's clock object;
* ``Operation`` and ``Tag`` are slotted.
"""

from __future__ import annotations

import numpy as np

from repro.consistency import (
    History,
    Operation,
    check_returns_written_values,
)
from repro.consistency.history import compact_value
from repro.core.messages import ReadReturn, WriteAck
from repro.core.tags import Tag, VectorClock
from repro.protocol.client_core import ClientCore
from repro.runtime import wire

ZERO = np.zeros(4, dtype=np.int64)


def _write(core: ClientCore, obj: int, value, ts: VectorClock) -> Operation:
    op, _ = core.start_write(obj, np.asarray(value, dtype=np.int64), 0.0)
    ack = WriteAck(op.opid)
    # decoded off the wire, the two clocks are equal but separate objects
    ack.ts, ack.tag = VectorClock(ts.components), Tag(ts, core.node_id)
    core.handle_message(core.server_id, ack, 1.0)
    assert op.done
    return op


def _read(core: ClientCore, obj: int, value, ts, tag) -> Operation:
    op, _ = core.start_read(obj, 2.0)
    # the value as the runtime hands it over: a read-only view into the
    # frame it was decoded from
    frame = wire.encode_frame(("m", ReadReturn(op.opid, np.asarray(value))))
    ret = wire.decode_frame(frame)[1]
    assert ret.value.base is not None and not ret.value.flags.owndata
    ret.ts, ret.value_tag = ts, tag
    core.handle_message(core.server_id, ret, 3.0)
    assert op.done
    return op


def test_compact_value_is_the_narrowest_unsigned_copy():
    for top, dtype in ((255, np.uint8), (256, np.uint16), (70000, np.uint32)):
        value = np.array([0, 3, top], dtype=np.int64)
        small = compact_value(value)
        assert small.dtype == dtype and np.array_equal(small, value)
        assert small.flags.owndata and small.base is None
    empty = compact_value(np.array([], dtype=np.int64))
    assert empty.size == 0
    # nothing it cannot hold exactly is touched
    # what the field hands over: unsigned, possibly a view pinning a frame
    view = wire.decode(wire.encode(np.array([7, 255, 0], dtype=np.uint16)))
    assert view.base is not None
    small = compact_value(view)
    assert small.dtype == np.uint8 and small.tolist() == [7, 255, 0]
    assert small.flags.owndata and small.base is None
    negative = np.array([-1, 5], dtype=np.int64)
    assert compact_value(negative) is negative
    floats = np.array([1.5])
    assert compact_value(floats) is floats
    assert compact_value(None) is None


def test_completed_operations_own_a_compact_value():
    history = History()
    writer = ClientCore(7, 0, history=history)
    reader = ClientCore(8, 1, history=history)
    ts = VectorClock((1, 0, 0))
    w = _write(writer, 0, [5, 6, 7, 256], ts)
    r = _read(reader, 0, np.array([5, 6, 7, 255], dtype=np.int64), ts, Tag(ts, 9))
    for op in (w, r):
        assert op.value.base is None and op.value.flags.owndata
    assert w.value.dtype == np.uint16 and r.value.dtype == np.uint8
    assert w.value.tolist() == [5, 6, 7, 256]
    assert r.value.tolist() == [5, 6, 7, 255]
    # a client without a history compacts too: the frame is let go
    alone = ClientCore(9, 0)
    r2 = _read(alone, 0, np.array([1, 2], dtype=np.int64), ts, None)
    assert r2.value.base is None and r2.value.dtype == np.uint8


def test_read_shares_the_value_and_tag_of_the_write_it_returned():
    history = History()
    writer = ClientCore(7, 0, history=history)
    reader = ClientCore(8, 1, history=history)
    ts = VectorClock((1, 0, 0))
    w = _write(writer, 0, [5, 6, 7, 8], ts)
    tag_copy = Tag(VectorClock((1, 0, 0)), 7)  # equal, but another object
    r = _read(reader, 0, [5, 6, 7, 8], ts, tag_copy)
    assert r.value is w.value and r.tag is w.tag
    assert w.ts is w.tag.ts  # one clock object per write, not two
    assert check_returns_written_values(history, ZERO) == []


def test_read_with_another_value_for_the_tag_keeps_it_and_is_flagged():
    history = History()
    writer = ClientCore(7, 0, history=history)
    reader = ClientCore(8, 1, history=history)
    ts = VectorClock((1, 0, 0))
    w = _write(writer, 0, [5, 6, 7, 8], ts)
    # a (test-injected) server bug: the right tag with the wrong bytes
    tag_copy = Tag(VectorClock((1, 0, 0)), 7)
    r = _read(reader, 0, [5, 6, 7, 9], ts, tag_copy)
    assert r.value is not w.value and r.tag is tag_copy
    assert r.value.tolist() == [5, 6, 7, 9]
    violations = check_returns_written_values(
        history, ZERO, raise_on_violation=False
    )
    assert len(violations) == 1 and "never written" in violations[0]
    # same tag on another object is no match either
    r2 = _read(reader, 1, [5, 6, 7, 8], ts, Tag(VectorClock((1, 0, 0)), 7))
    assert r2.value is not w.value


def test_read_completing_before_its_write_keeps_its_own_copy():
    history = History()
    writer = ClientCore(7, 0, history=history)
    reader = ClientCore(8, 1, history=history)
    ts = VectorClock((1, 0, 0))
    pending, _ = writer.start_write(0, np.array([5, 6, 7, 8]), 0.0)
    r = _read(reader, 0, [5, 6, 7, 8], ts, Tag(ts, 7))
    assert r.value is not pending.value
    assert np.array_equal(r.value, pending.value)


def test_operation_and_tag_are_slotted():
    op = Operation(client_id=1, opid=(1, 0), kind="read", obj=0)
    tag = Tag(VectorClock((1, 0)), 3)
    for obj in (op, tag):
        assert not hasattr(obj, "__dict__")
    assert op.settled is False and op.latency is None
