"""Round-trip property tests for the versioned wire codec.

Satellite of the sans-I/O refactor: every ``core/messages.py`` dataclass
(and the durable checkpoint state) must survive encode -> decode with all
fields intact, including the ``init=False`` certificate fields, over
randomized payloads.  Also checks the frame layer's version and truncation
handling and that the encoding is canonical (deterministic bytes).
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import enum
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.online import AuditOp
from repro.core.cluster import CausalECCluster
from repro.core.messages import (
    App,
    Del,
    DigestMsg,
    Heartbeat,
    MigrateInstall,
    ReadRequest,
    ReadReturn,
    ReconfigAck,
    ReconfigCommit,
    ReconfigPropose,
    RepairRequest,
    RepairResponse,
    ValInq,
    ValResp,
    ValRespEncoded,
    ViewInstall,
    ViewInstallAck,
    WriteAck,
    WriteRequest,
)
from repro.core.snapshot import (
    ServerCheckpoint,
    capture_server_state,
    restore_server_state,
    snapshot_server,
)
from repro.core.state import (
    Codeword,
    DeletionList,
    HistoryList,
    InQueue,
    InQueueEntry,
    ReadEntry,
    ReadList,
)
from repro.core.tags import Tag, VectorClock
from repro.ec.codes import example1_code
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import AsyncioCluster, FileDurableStore

from tests import reference_v7
from tests.legacy_v6 import checkpoint_v6, encode_v6, single_file

# ---------------------------------------------------------------------------
# strategies

vector_clocks = st.lists(st.integers(0, 9), min_size=1, max_size=6).map(
    lambda c: VectorClock(tuple(c))
)
tags = st.builds(Tag, vector_clocks, st.integers(-1, 20))
opids = st.one_of(
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
    st.text(max_size=8),
    st.integers(-5, 1 << 70),  # exercises the BIGINT fallback
)
values = st.lists(st.integers(0, 255), min_size=1, max_size=8).map(
    lambda v: np.array(v, dtype=np.int64)
)
tagvecs = st.dictionaries(st.integers(0, 5), tags, max_size=4)
sizes = st.floats(0, 1e6, allow_nan=False)
objs = st.integers(0, 9)


def _with_size(msg, size):
    msg.size_bits = size
    return msg


def _write_ack(opid, ts, tag, size):
    ack = WriteAck(opid)
    ack.ts, ack.tag, ack.size_bits = ts, tag, size
    return ack


def _read_return(opid, value, ts, tag, size):
    rr = ReadReturn(opid, value)
    rr.ts, rr.value_tag, rr.size_bits = ts, tag, size
    return rr


def _with_view(msg, view):
    msg.view = view
    return msg


def _view_install_ack(version, ts, size):
    ack = ViewInstallAck(version)
    ack.ts, ack.size_bits = ts, size
    return ack


views = st.none() | st.integers(0, 9)

messages = st.one_of(
    st.builds(
        _with_view,
        st.builds(_with_size, st.builds(WriteRequest, opids, objs, values), sizes),
        views,
    ),
    st.builds(_write_ack, opids, st.none() | vector_clocks, st.none() | tags, sizes),
    st.builds(
        _with_view,
        st.builds(_with_size, st.builds(ReadRequest, opids, objs), sizes),
        views,
    ),
    st.builds(
        _with_view,
        st.builds(
            _with_size,
            st.builds(MigrateInstall, opids, objs, values, st.integers(0, 9)),
            sizes,
        ),
        views,
    ),
    st.builds(_with_size, st.builds(ViewInstall, st.integers(0, 99)), sizes),
    st.builds(
        _view_install_ack, st.integers(0, 99), st.none() | vector_clocks, sizes
    ),
    st.builds(_read_return, opids, values, st.none() | vector_clocks, st.none() | tags, sizes),
    st.builds(_with_size, st.builds(App, objs, values, tags), sizes),
    st.builds(
        _with_size,
        st.builds(Del, objs, tags, st.none() | st.integers(0, 5), st.booleans()),
        sizes,
    ),
    st.builds(
        _with_size, st.builds(ValInq, st.integers(0, 20), opids, objs, tagvecs), sizes
    ),
    st.builds(
        _with_size,
        st.builds(ValResp, objs, values, st.integers(0, 20), opids, tagvecs),
        sizes,
    ),
    st.builds(
        _with_size,
        st.builds(
            ValRespEncoded, values, tagvecs, st.integers(0, 20), opids, objs, tagvecs
        ),
        sizes,
    ),
    st.builds(
        _with_size,
        st.builds(
            DigestMsg, st.integers(0, 5), vector_clocks, tagvecs,
            st.floats(0, 1e9, allow_nan=False),
        ),
        sizes,
    ),
    st.builds(
        _with_size,
        st.builds(RepairRequest, st.integers(0, 5), tagvecs, vector_clocks),
        sizes,
    ),
    st.builds(
        _with_size,
        st.builds(
            RepairResponse,
            st.integers(0, 5),
            tagvecs,
            vector_clocks,
            st.dictionaries(objs, st.tuples(tags, values), max_size=3),
            st.dictionaries(
                objs, st.dictionaries(st.integers(0, 5), tags, max_size=3),
                max_size=3,
            ),
            values,
            tagvecs,
        ),
        sizes,
    ),
)


def _fields_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_fields_equal(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_fields_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def assert_message_equal(a, b) -> None:
    assert type(a) is type(b)
    names = [f.name for f in dataclasses.fields(a)]
    for name in names:
        assert _fields_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# message round trips

@settings(deadline=None)
@given(messages)
def test_message_roundtrip(msg):
    decoded = wire.decode(wire.encode(msg))
    assert_message_equal(msg, decoded)


@settings(deadline=None)
@given(messages)
def test_frame_roundtrip(msg):
    frame = wire.encode_frame(msg)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4] == wire.WIRE_VERSION
    assert frame[5] == 0x01  # flags: CRC present by default
    assert_message_equal(msg, wire.decode_frame(frame))


@settings(deadline=None)
@given(messages)
def test_encoding_is_canonical(msg):
    """decode -> re-encode reproduces the exact bytes (deterministic codec)."""
    data = wire.encode(msg)
    assert wire.encode(wire.decode(data)) == data


# ---------------------------------------------------------------------------
# primitive payloads

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(1 << 80), 1 << 80)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=12)
    | tags
    | vector_clocks,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.integers(0, 9) | tags, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(deadline=None)
@given(json_like)
def test_primitive_roundtrip(payload):
    assert _fields_equal(payload, wire.decode(wire.encode(payload)))


@settings(deadline=None)
@given(tags)
def test_slotted_tag_roundtrip(t):
    back = wire.decode(wire.encode(t))
    assert type(back) is Tag and not hasattr(back, "__dict__")
    assert back == t and hash(back) == hash(t)
    assert back.ts.components == t.ts.components
    assert wire.encode(back) == wire.encode(t)


def test_set_encoding_is_order_independent():
    t = [Tag(VectorClock((i, 0)), i) for i in range(5)]
    assert wire.encode(set(t)) == wire.encode(set(reversed(t)))
    assert wire.decode(wire.encode(set(t))) == set(t)


def test_ndarray_dtype_and_shape_roundtrip():
    for arr in (
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.zeros((1, 5), dtype=np.uint8),
        np.array([], dtype=np.int64),
        np.array([[1.5, -2.5]], dtype=np.float64),
    ):
        back = wire.decode(wire.encode(arr))
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)
        # decoded arrays are read-only zero-copy views over the input
        # buffer (the field kernels are pure, so nothing mutates them);
        # mutation requires an explicit copy
        assert not back.flags.writeable
        assert back.copy().flags.writeable


def test_ndarray_decode_is_zero_copy():
    arr = np.arange(64, dtype=np.int64)
    data = wire.encode(arr)
    back = wire.decode(data)
    assert back.base is not None  # a view, not a fresh allocation
    with pytest.raises((ValueError, RuntimeError)):
        back[0] = 99


def test_decode_accepts_memoryview():
    msg = App(1, np.arange(6, dtype=np.int64), Tag(VectorClock((2, 1)), 0))
    msg.size_bits = 48.0
    data = wire.encode(msg)
    assert_message_equal(wire.decode(memoryview(data)), msg)
    assert_message_equal(
        wire.decode_frame(memoryview(wire.encode_frame(msg))), msg
    )


def test_encode_frames_matches_per_frame_encoding():
    msgs = [
        ("d", 1, App(0, np.arange(4), Tag(VectorClock((1, 0)), 3))),
        ("a", 7),
        ("g", ReadRequest(("c", 1), 0)),
    ]
    batch = wire.encode_frames(msgs)
    assert batch == b"".join(wire.encode_frame(m) for m in msgs)
    # the batch splits back into frames at the length boundaries
    pos, seen = 0, []
    while pos < len(batch):
        (length,) = struct.unpack(">I", batch[pos : pos + 4])
        seen.append(wire.decode_frame(batch[pos : pos + 4 + length]))
        pos += 4 + length
    assert len(seen) == len(msgs)
    assert seen[1] == ("a", 7)


def test_audit_op_roundtrip_with_shard_and_gen():
    """AuditOp carries cross-shard identity (shard, gen) over the wire."""
    op = AuditOp(
        server=2003,
        seq=17,
        kind="write",
        obj="key007",  # global key, not a slot, once audit maps apply
        tag=Tag(VectorClock((1, 0, 2)), 4),
        opid=(9, 3),
        time=12.5,
        shard=2,
        gen=1,
    )
    back = wire.decode(wire.encode(op))
    assert back == op
    assert (back.shard, back.gen, back.obj) == (2, 1, "key007")
    # positional back-compat: records from unsharded servers default to
    # shard 0 / gen 0
    legacy = AuditOp(1, 2, "read", 0, None, None, 1.0)
    assert (legacy.shard, legacy.gen) == (0, 0)
    assert wire.decode(wire.encode(legacy)) == legacy


# ---------------------------------------------------------------------------
# error handling

def test_version_mismatch_rejected():
    frame = bytearray(wire.encode_frame(ReadRequest(("c", 1), 0)))
    frame[4] ^= 0xFF
    with pytest.raises(wire.WireError, match="version"):
        wire.decode_frame(bytes(frame))


def test_prior_version_frames_rejected():
    """Frames stamped with any previous codec version must not decode."""
    assert wire.WIRE_VERSION == 7
    for old in (2, 3, 4, 5, 6):
        frame = bytearray(wire.encode_frame(ReadRequest(("c", 1), 0)))
        frame[4] = old
        with pytest.raises(wire.WireError, match="version"):
            wire.decode_frame(bytes(frame))


def test_v2_era_body_still_decodes():
    """v2 .. v6 wrote every integer as ``_T_INT`` and every clock as
    ``_T_VC``; v7 writes small ones shorter but must keep *reading* the old
    tags, or checkpoints and send logs written before it stop loading.  The
    body below was recorded from the v2 encoder, byte for byte."""
    msg = App(2, np.array([7, 0, 3], dtype=np.int64), Tag(VectorClock((1, 0, 2)), 4))
    msg.size_bits = 96.0
    old_body = bytes.fromhex(
        "0f00050300000000000000020c06000000033c69380800000001030000000000"
        "000003000000180700000000000000000000000000000003000000000000000e"
        "0d00000003000000000000000100000000000000000000000000000002030000"
        "000000000004054058000000000000"
    )
    assert_message_equal(wire.decode(old_body), msg)
    # the tests' copy of the old encoder is that encoder
    assert encode_v6(msg) == old_body
    # and what v7 writes for the same message is the same message, shorter
    body = wire.encode(msg)
    assert len(body) < len(old_body)
    assert_message_equal(wire.decode(body), msg)


# ---------------------------------------------------------------------------
# v7: compact integers and clocks

@pytest.mark.parametrize(
    "value, size",
    [(-1, 9), (0, 2), (255, 2), (256, 3), (65_535, 3), (65_536, 9),
     (2**31, 9), (2**63 - 1, 9), (-(2**63), 9), (2**70, 14)],
)
def test_int_roundtrip_and_width(value, size):
    data = wire.encode(value)
    back = wire.decode(data)
    assert type(back) is int and back == value
    assert len(data) == size
    # the old fixed-width form of the same value still decodes
    assert wire.decode(encode_v6(value)) == value


def test_numpy_integer_scalars_encode_as_ints_and_bools_stay_bools():
    for scalar in (np.int64(5), np.uint8(255), np.uint16(256), np.int32(-7),
                   np.uint64(2**63)):
        back = wire.decode(wire.encode(scalar))
        assert type(back) is int and back == int(scalar)
        assert wire.encode(scalar) == wire.encode(int(scalar))
    for flag in (True, False):
        data = wire.encode(flag)
        assert len(data) == 1 and wire.decode(data) is flag
    # 0/1 next to False/True in one container keep their types
    assert [type(x) for x in wire.decode(wire.encode([0, False, 1, True]))] == [
        int, bool, int, bool,
    ]


def test_vector_clock_widths():
    for comps, size in (
        ((1, 2, 3, 4, 5), 2 + 5),        # every component < 2**8
        ((1, 255, 256, 4, 5), 2 + 10),   # one needs two bytes: all get two
        ((65_535,) * 5, 2 + 10),
        ((65_536, 1), 5 + 16),           # >= 2**16: the 8-byte form
        ((2**40, 0, 7), 5 + 24),
        (tuple(range(300)), 5 + 300 * 8),  # too long for a count byte
        ((), 5),
    ):
        vc = VectorClock(comps)
        data = wire.encode(vc)
        assert len(data) == size, comps
        back = wire.decode(data)
        assert back == vc and back.components == comps
        assert back.lamport == vc.lamport
        assert wire.decode(encode_v6(vc)) == vc


def test_tag_and_del_frame_sizes():
    """What the metadata-dominated workloads are made of: a tag says five
    small numbers and an id (60 B in v6), a one-tag ``Del`` frame little
    more (v6: 108 B).  Clocks stay below 2**8 for the first few hundred
    writes per server and below 2**16 for any benchmark window."""
    young = Tag(VectorClock((200, 17, 0, 4, 255)), 1007)
    grown = Tag(VectorClock((300, 17, 0, 4, 255)), 1007)
    assert len(wire.encode(young)) <= 12 and len(wire.encode(grown)) <= 20
    for tag, saved in ((young, 0.5), (grown, 0.45)):
        msg = Del(1, tag)
        msg.size_bits = 0.0
        frame = wire.encode_frame(("d", 41, msg))
        v6_frame_len = 4 + 6 + len(encode_v6(("d", 41, msg)))
        assert len(frame) <= v6_frame_len * (1 - saved)
        assert wire.decode_frame(frame)[2].tag == tag


def test_same_object_same_bytes_with_variable_width_ints():
    """Sets are written in sorted *encoded* order; variable-width integers
    change that order, not its determinism."""
    a = {1, 255, 256, 65_535, 65_536, -1, 2**70}
    b = set(sorted(a, reverse=True))
    assert wire.encode(a) == wire.encode(b)
    assert wire.decode(wire.encode(a)) == a
    tags_a = {Tag(VectorClock((i * 90, 0)), i) for i in range(6)}
    assert wire.encode(tags_a) == wire.encode(set(reversed(sorted(tags_a))))
    assert wire.decode(wire.encode(tags_a)) == tags_a


def test_truncated_data_rejected():
    data = wire.encode(App(0, np.arange(4), Tag(VectorClock((1, 0)), 3)))
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        with pytest.raises(wire.WireError):
            wire.decode(data[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(wire.WireError, match="trailing"):
        wire.decode(wire.encode(7) + b"\x00")


def test_unregistered_type_rejected():
    class Mystery:
        pass

    with pytest.raises(wire.WireError, match="unregistered"):
        wire.encode(Mystery())


def test_frame_length_mismatch_rejected():
    frame = wire.encode_frame(41)
    with pytest.raises(wire.WireError):
        wire.decode_frame(frame + b"\x00")
    with pytest.raises(wire.WireError):
        wire.decode_frame(frame[:3])


# ---------------------------------------------------------------------------
# frame CRC (codec v5)

def test_any_single_bit_flip_in_body_raises_frame_corrupt():
    msg = App(2, np.arange(5, dtype=np.int64), Tag(VectorClock((1, 0)), 3))
    msg.size_bits = 40.0
    frame = wire.encode_frame(msg)
    # flip one bit in every byte past the 10-byte header (len+ver+flags+crc)
    for pos in range(10, len(frame)):
        for bit in range(8):
            mutated = bytearray(frame)
            mutated[pos] ^= 1 << bit
            with pytest.raises(wire.FrameCorrupt):
                wire.decode_frame(bytes(mutated))


def test_crc_field_corruption_also_detected():
    frame = bytearray(wire.encode_frame(("x", 12)))
    frame[6] ^= 0x40  # first CRC byte
    with pytest.raises(wire.FrameCorrupt):
        wire.decode_frame(bytes(frame))


def test_frame_corrupt_is_a_wire_error():
    # ``except WireError`` handlers (``_Framed.data_received``) keep working
    assert issubclass(wire.FrameCorrupt, wire.WireError)


def test_unknown_frame_flags_rejected():
    frame = bytearray(wire.encode_frame(7))
    frame[5] |= 0x80
    with pytest.raises(wire.WireError, match="flags"):
        wire.decode_frame(bytes(frame))


def test_hand_built_flagless_frame_still_decodes():
    """Nothing emits a frame without a CRC any more (the process-global
    emit-side toggle is gone), but the flag is per frame and decoders keep
    honouring it: ``length || version || flags=0 || body`` decodes, with
    no check to fail."""
    msg = ReadRequest(("c", 2), 1)
    body = wire.encode(msg)
    plain = struct.pack(">IBB", len(body) + 2, wire.WIRE_VERSION, 0x00) + body
    assert_message_equal(wire.decode_frame(plain), msg)
    # what the module emits for the same message: the flag, and 4 bytes more
    framed = wire.encode_frame(msg)
    assert framed[5] == 0x01 and len(framed) == len(plain) + 4
    # a flagless frame carries nothing to check: damage past the header is
    # either a decode error or a different value, never FrameCorrupt
    damaged = bytearray(plain)
    damaged[-1] ^= 0x01
    try:
        wire.decode_frame(bytes(damaged))
    except wire.FrameCorrupt:  # pragma: no cover - the regression
        raise AssertionError("a flagless frame was CRC-checked")
    except wire.WireError:
        pass
    assert not hasattr(wire, "set_crc_enabled")


@settings(deadline=None, max_examples=60)
@given(messages, st.data())
def test_mutated_frames_never_raise_untyped_exceptions(msg, data):
    """Fuzz hardening: any byte-level mutation of a valid frame either
    decodes (the mutation hit dead space -- impossible past the CRC) or
    raises WireError, never IndexError/struct.error/TypeError."""
    frame = bytearray(wire.encode_frame(msg))
    n_mut = data.draw(st.integers(1, 4))
    for _ in range(n_mut):
        pos = data.draw(st.integers(0, len(frame) - 1))
        frame[pos] ^= data.draw(st.integers(1, 255))
    try:
        wire.decode_frame(bytes(frame))
    except wire.WireError:
        pass


@settings(deadline=None, max_examples=60)
@given(messages, st.data())
def test_truncated_bodies_never_raise_untyped_exceptions(msg, data):
    body = wire.encode(msg)
    cut = data.draw(st.integers(0, max(0, len(body) - 1)))
    try:
        wire.decode(body[:cut] + data.draw(st.binary(max_size=6)))
    except wire.WireError:
        pass


# ---------------------------------------------------------------------------
# durable checkpoints: a real server's state survives the codec

def test_server_checkpoint_roundtrip():
    cluster = CausalECCluster(example1_code(), seed=3)
    clients = [cluster.add_client(i % cluster.num_servers) for i in range(3)]
    for i, c in enumerate(clients):
        cluster.execute(c.write(i % cluster.code.K, cluster.value(10 + i)))
    cluster.run(for_time=500)
    cluster.execute(clients[0].read(0))
    for server in cluster.servers:
        ckpt = capture_server_state(server)
        frame = wire.encode_frame(ckpt)
        decoded = wire.decode_frame(frame)
        before = snapshot_server(server)
        restore_server_state(server, decoded)
        assert snapshot_server(server) == before
        # canonical: the reinstalled state re-encodes to the same bytes
        assert wire.encode(capture_server_state(server).state) == wire.encode(
            ckpt.state
        )


# ---------------------------------------------------------------------------
# the dispatch-table encoder writes the ladder's bytes (ISSUE 24)
#
# ``tests/reference_v7.py`` is the ``isinstance`` chain ``wire`` encoded
# through until the table replaced it.  Everything below compares *bytes*:
# an encoder that writes a set in another order, or 256 in the 9-byte form,
# still round-trips -- and moves every digest that reads those bytes.

class _Kind(enum.IntEnum):
    ZERO = 0
    BYTE = 255
    SHORT = 256
    WIDE = 70_000


_Pair = collections.namedtuple("_Pair", "left right")


class _Symbols(np.ndarray):
    """An ndarray subclass: still an ndarray on the wire."""


class _Name(str):
    pass


_INT_EDGES = [
    -1, 0, 1, 255, 256, 65_535, 65_536, 2**63 - 1, 2**63, -(2**63),
    -(2**63) - 1, 2**80, -(2**80),
]

_ARRAYS = [
    np.arange(7, dtype=np.uint8),
    np.arange(300, dtype=np.uint16),
    np.arange(5, dtype=np.uint32),
    np.arange(-3, 3, dtype=np.int64),
    np.array([[1.5, -2.5], [0.0, 4.0]], dtype=np.float64),
    np.array([], dtype=np.uint16),
    np.arange(24, dtype=np.uint16).reshape(4, 6)[:, ::2],  # non-contiguous
    np.arange(24, dtype=np.uint8).reshape(4, 6).T,  # Fortran order
    np.arange(10, dtype=np.int64)[::-2],
    np.arange(6, dtype=np.uint16).view(_Symbols),
    np.zeros((1, 64), dtype=np.uint16),
]

oracle_clocks = st.one_of(
    vector_clocks,  # VC8
    st.lists(st.integers(0, 65_535), min_size=1, max_size=6).map(
        lambda c: VectorClock(tuple(c))
    ),  # VC8 or VC16
    st.lists(st.integers(0, 1 << 40), min_size=0, max_size=5).map(
        lambda c: VectorClock(tuple(c))
    ),  # mostly the 8-byte form; length 0
    st.sampled_from(
        [
            VectorClock(()),
            VectorClock((255,) * 255),
            VectorClock((7,) * 256),  # too long for a count byte
            VectorClock(tuple(range(300))),
            VectorClock((65_535, 0)),
            VectorClock((65_536, 0)),
            VectorClock((3, -1)),  # a negative component: only _T_VC fits
        ]
    ),
)
oracle_tags = st.builds(Tag, oracle_clocks, st.integers(-1, 70_000))

_hashable_leaves = (
    st.none()
    | st.booleans()
    | st.sampled_from(_INT_EDGES)
    | st.integers(-(1 << 70), 1 << 70)
    | st.sampled_from(list(_Kind))
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.text(max_size=4).map(_Name)
    | st.binary(max_size=8)
    | oracle_tags
    | oracle_clocks
)
_leaves = (
    _hashable_leaves
    | st.binary(max_size=8).map(bytearray)
    | st.sampled_from(
        [np.int8(-1), np.uint8(255), np.uint16(7), np.uint16(256),
         np.int32(-70_000), np.int64(2**40), np.uint64(2**63),
         np.float16(0.5), np.float32(1.5), np.float64(-2.25)]
    )
    | st.sampled_from(_ARRAYS)
)


def _containers(inner):
    keys = _hashable_leaves | st.tuples(st.integers(0, 300), st.text(max_size=3))
    dicts = st.dictionaries(keys, inner, max_size=4)
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda p: _Pair(*p)),
        dicts,
        dicts.map(collections.OrderedDict),
        dicts.map(lambda d: collections.defaultdict(list, d)),
        st.sets(oracle_tags, max_size=6),
        st.frozensets(oracle_tags | st.integers(-5, 70_000) | st.text(max_size=3),
                      max_size=6),
    )


oracle_values = st.recursive(_leaves, _containers, max_leaves=16)


def _every_registered_class():
    """One instance of each class in the registry, fields of mixed widths."""
    t1 = Tag(VectorClock((1, 0, 2, 0, 0)), 4)
    t2 = Tag(VectorClock((300, 17, 0, 4, 255)), 1007)
    vc = VectorClock((300, 17, 2, 4, 255))
    value = np.arange(8, dtype=np.uint16)
    tagvec = {0: t1, 1: t2, 2: t1}
    out = []

    def sized(msg, **late):
        msg.size_bits = 96.0
        for name, v in late.items():
            setattr(msg, name, v)
        out.append(msg)

    sized(WriteRequest((1007, 3), 1, value), session_ts=vc, view=2)
    sized(WriteAck((1007, 3)), ts=vc, tag=t2)
    sized(ReadRequest((1007, 4), 2), session_ts=None, view=None)
    sized(ReadReturn((1007, 4), value), ts=vc, value_tag=t1)
    sized(App(1, value, t2))
    sized(Del(1, t2, origin=3, fanout=True))
    sized(ValInq(1007, ("r", 9), 0, tagvec))
    sized(ValResp(0, value, 1007, ("r", 9), tagvec))
    sized(ValRespEncoded(value.reshape(1, 8), tagvec, 1007, ("r", 9), 0, tagvec))
    sized(Heartbeat(3, 12.5))
    sized(DigestMsg(2, vc, tagvec, 99.25))
    sized(RepairRequest(2, tagvec, vc))
    sized(
        RepairResponse(
            2, tagvec, vc, {0: (t1, value)}, {1: {0: t1, 4: t2}},
            value.reshape(1, 8), tagvec,
        )
    )
    sized(MigrateInstall((1007, 5), 1, value, 3), session_ts=vc, view=1)
    sized(ViewInstall(7))
    sized(ViewInstallAck(7), ts=vc)
    sized(ReconfigPropose(2, (0, 1, 2, 3, 5), joiner=5, row_seed=70_000))
    sized(ReconfigAck(2, cfg_epoch=1), ts=vc)
    sized(ReconfigCommit(2, (0, 1, 2, 3, 5), joiner=None, row_seed=None))

    hist = HistoryList(t1)
    hist.add(t2, value)
    dell = DeletionList()
    for node, tag in ((0, t1), (0, t2), (3, t2)):
        dell.add(tag, node)
    entry = InQueueEntry(3, 1, value, t2)
    inq = InQueue()
    inq.add(entry)
    read = ReadEntry(1007, ("r", 9), 0, tagvec, {1: value.reshape(1, 8)}, 4.5)
    readl = ReadList()
    readl.add(read)
    word = Codeword(value.reshape(1, 8), tagvec)
    state = {"vc": vc, "L": {0: hist}, "DelL": {0: dell}, "inqueue": inq,
             "readl": readl, "M": word}
    out += [hist, dell, entry, inq, read, readl, word,
            ServerCheckpoint(3, 12.5, state, {"send": {}, "recv": {0: 300}})]
    out.append(AuditOp(2003, 17, "write", "key007", ((1, 0, 2), 4), (9, 3),
                       12.5, 2, 1, 300))
    return out


def _assert_same_bytes(value):
    want = reference_v7.encode(value)
    assert wire.encode(value) == want
    # again, now that every tag inside carries its bytes
    assert wire.encode(value) == want
    assert wire.encode_frame(value) == reference_v7.encode_frame(value)


@settings(deadline=None)  # max_examples: the profile's (CI reruns with 2000)
@given(oracle_values)
def test_encoder_writes_the_reference_bytes(value):
    _assert_same_bytes(value)


def _edge_id(value):
    if isinstance(value, np.ndarray):
        layout = "c" if value.flags.c_contiguous else "strided"
        return f"{type(value).__name__}-{value.dtype}-{value.shape}-{layout}"
    return repr(value)


@pytest.mark.parametrize("value", _INT_EDGES + list(_Kind) + _ARRAYS, ids=_edge_id)
def test_encoder_writes_the_reference_bytes_at_each_edge(value):
    _assert_same_bytes(value)
    _assert_same_bytes([value, (value,), {1: value}])


def test_every_registered_class_encodes_as_the_reference_does():
    instances = _every_registered_class()
    # a class added to the registry must be added here too
    assert {type(x) for x in instances} == set(wire.registered_classes().values())
    for obj in instances:
        _assert_same_bytes(obj)
        _assert_same_bytes({"batch": [obj, obj], "one": (obj,)})


def test_subclasses_resolve_in_the_ladders_order():
    """A type the table has not seen takes the first arm of the old chain
    that claims it: the builtin it extends, never something wider."""
    vc = VectorClock((1, 2))
    for value, plain in (
        (_Kind.SHORT, 256),
        (np.uint16(7), 7),
        (np.float32(1.5), 1.5),
        (_Name("abc"), "abc"),
        (bytearray(b"xyz"), b"xyz"),
        (_Pair(1, vc), (1, vc)),
        (collections.OrderedDict(a=1, b=vc), {"a": 1, "b": vc}),
        (collections.defaultdict(int, {3: 4}), {3: 4}),
        (frozenset({1, 300}), {1, 300}),
        (np.arange(6, dtype=np.uint16).view(_Symbols),
         np.arange(6, dtype=np.uint16)),
    ):
        assert wire.encode(value) == wire.encode(plain) == reference_v7.encode(value)
    assert wire.encode(np.uint16(7)) == bytes((0x10, 7))  # _T_UINT8, not wider
    # bools keep their own tags; numpy's bool is neither bool nor integer
    assert wire.encode([True, False, 1, 0]) == reference_v7.encode([True, False, 1, 0])
    for _ in range(2):
        with pytest.raises(wire.WireError, match="unregistered"):
            wire.encode(np.bool_(True))
        with pytest.raises(wire.WireError, match="unregistered"):
            reference_v7.encode(np.bool_(True))


@settings(deadline=None)
@given(st.lists(messages | oracle_values, max_size=8))
def test_encode_frames_is_the_joined_frames(batch):
    frames = [wire.encode_frame(m) for m in batch]
    assert frames == [reference_v7.encode_frame(m) for m in batch]
    assert wire.encode_frames(batch) == b"".join(frames)
    # pre-encoded frames (chaos-damaged bytes) pass through untouched
    mixed = [f if i % 2 else m for i, (m, f) in enumerate(zip(batch, frames))]
    assert wire.encode_frames(mixed) == b"".join(frames)


def test_class_registered_after_import_encodes_and_unregistered_keeps_raising():
    @dataclasses.dataclass
    class Late:
        n: int
        tag: Tag

    late = Late(300, Tag(VectorClock((1, 2)), 3))
    # not cached as a failure: it raises each time, until it is registered
    for _ in range(2):
        with pytest.raises(wire.WireError, match="unregistered type Late"):
            wire.encode(late)
        with pytest.raises(wire.WireError, match="unregistered type Late"):
            wire.encode([1, {"k": late}])
    wire.register(9001, Late, ("n", "tag"))
    try:
        _assert_same_bytes(late)
        _assert_same_bytes([1, {"k": late}])
        back = wire.decode(wire.encode(late))
        assert type(back) is Late and back == late
        # a re-registration with another field order takes effect
        wire.register(9001, Late, ("tag", "n"))
        _assert_same_bytes(late)
        assert wire.encode(late)[3:4] == bytes((0x0E,))  # the tag comes first
    finally:
        del wire._REGISTRY[9001], wire._BY_CLASS[Late], wire._ENCODERS[Late]
    with pytest.raises(wire.WireError, match="unregistered type Late"):
        wire.encode(late)


def test_tag_bytes_are_kept_by_the_encoder_only():
    """The memo is filled by ``encode``, never by ``decode``, and never
    changes what is written."""
    tag = Tag(VectorClock((300, 1)), 7)
    assert tag._wire is None
    data = wire.encode({"t": tag})
    assert tag._wire == wire.encode(tag) == reference_v7.encode(tag)
    assert wire.encode({"t": tag}) == data
    back = wire.decode(data)["t"]
    assert back == tag and back._wire is None
    # VectorClock is not frozen and carries nothing
    assert not hasattr(tag.ts, "_wire")


def test_live_checkpoints_encode_as_the_reference_does(tmp_path, monkeypatch):
    """Every checkpoint a live 5-server run commits -- state, transport and
    the registered ``ServerCheckpoint`` around them, compared when it is
    captured (live state moves on) -- and every file it leaves behind."""
    code = example1_code(value_len=16)
    rng = np.random.default_rng(24)
    seen, differing = [], []
    persist = FileDurableStore.persist

    def compare_then_persist(self, checkpoint, defer=False):
        # recorded, not asserted: raising here would fail the commit and
        # leave the cluster holding its output
        for part in (checkpoint.state, checkpoint.transport, checkpoint):
            if wire.encode(part) != reference_v7.encode(part):
                differing.append((checkpoint.server_id, type(part).__name__))
        seen.append(checkpoint.server_id)
        return persist(self, checkpoint, defer=defer)

    monkeypatch.setattr(FileDurableStore, "persist", compare_then_persist)

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=20.0), store_dir=tmp_path
        )
        await cluster.start()
        clients = [await cluster.add_client(server=s) for s in range(code.N)]

        async def work(k, client):
            for i in range(12):
                if (i + k) % 3:
                    value = rng.integers(0, 256, code.value_len, dtype=np.int64)
                    op = await client.write((i + k) % code.K, value)
                else:
                    op = await client.read((i + k) % code.K)
                assert not op.failed

        await asyncio.gather(*(work(k, c) for k, c in enumerate(clients)))
        await cluster.quiesce()
        await cluster.shutdown()

    asyncio.run(run())
    assert not differing
    assert len(seen) >= 50 and set(seen) == set(range(code.N))
    slots = [p for p in tmp_path.glob("server_*.ckpt.[01]") if p.stat().st_size]
    assert len(slots) == code.N
    for path in sorted(slots):
        blob = path.read_bytes()
        loaded = FileDurableStore._decode_checkpoint(blob)
        generation = FileDurableStore._generation(blob)
        assert FileDurableStore._encode_checkpoint(loaded, generation) == blob
        assert wire.encode(loaded.state) == reference_v7.encode(loaded.state)


# ---------------------------------------------------------------------------
# golden files: bytes older builds wrote

_DATA = Path(__file__).parent / "data"


def test_pr23_checkpoint_reencodes_byte_for_byte():
    """``tests/data/checkpoint_pr23.ckpt`` was written by the ladder encoder
    (the build before the dispatch table) during a short live run: server 3
    of 5, 64-symbol values, a non-empty history list and ``DelL``.  The
    format did not change, so loading it and encoding what was loaded must
    give the file back."""
    golden = (_DATA / "checkpoint_pr23.ckpt").read_bytes()
    assert golden.startswith(b"CECKPT02")
    loaded = FileDurableStore._decode_checkpoint(golden)
    assert loaded.server_id == 3
    assert len(loaded.state["L"]) > 0 and any(
        d.total_entries() for d in loaded.state["DelL"].values()
    )

    def reencoded() -> bytes:
        # the store's section payloads, in the container the file came in
        sections, _ = FileDurableStore._encode_sections(loaded)
        return single_file(b"CECKPT02", sections)

    assert reencoded() == golden
    # warm: every tag now carries its bytes
    assert reencoded() == golden
    # a slot holds the very same payloads
    slot = FileDurableStore._encode_checkpoint(loaded, generation=1)
    assert slot.endswith(b"".join(FileDurableStore._encode_sections(loaded)[0]))
    for part in (loaded.state, loaded.transport):
        assert wire.encode(part) == reference_v7.encode(part)


def test_pr12_checkpoint_still_loads_through_the_ckpt01_reader():
    """The ``CECKPT01`` / v6 file keeps loading, and the tests' copy of the
    encoder that wrote it gives the file back from what was loaded."""
    golden = (_DATA / "checkpoint_pr12.ckpt").read_bytes()
    assert golden.startswith(b"CECKPT01")
    loaded = FileDurableStore._decode_checkpoint(golden)
    assert loaded.server_id == 2
    assert checkpoint_v6(loaded) == golden
    # the same state in today's form: smaller, and the reference's bytes
    assert wire.encode(loaded.state) == reference_v7.encode(loaded.state)
    assert len(wire.encode(loaded.state)) < len(encode_v6(loaded.state))
