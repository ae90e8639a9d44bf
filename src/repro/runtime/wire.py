"""Versioned wire codec for protocol messages and durable checkpoints.

The simulator passes Python objects by reference, so it never needed a wire
format.  The asyncio runtime sends real bytes over real sockets, and the
file-backed durable store writes real files, so both need one -- and it must
not be pickle: checkpoints outlive processes, peers may run different builds,
and unpickling attacker-supplied bytes executes code.

This codec is a small, explicit, recursive tagged-binary format:

* every encoded value starts with a one-byte type tag;
* integers take the shortest of four forms: one byte after the tag for
  ``0 <= v < 2**8``, two for ``v < 2**16`` (sequence numbers, ids, clock
  components, class-field counters -- nearly every integer a frame or a
  checkpoint holds), 8-byte big-endian two's complement otherwise, and an
  arbitrary-precision fallback for the rare overflow; floats are IEEE-754
  doubles, strings are UTF-8, all length prefixes are unsigned 32-bit
  big-endian;
* containers (tuple/list/dict/set) encode their length then their elements;
  sets are encoded in sorted-bytes order so encoding is deterministic;
* numpy arrays encode dtype, shape and raw bytes -- self-describing, so an
  array costs what its dtype costs: field symbols kept in the field's
  ``storage_dtype`` (uint16 for GF(257), uint8 for GF(256)) travel and
  rest at that width with no help from the codec;
* :class:`~repro.core.tags.VectorClock` and :class:`~repro.core.tags.Tag`
  have dedicated tags (they dominate protocol traffic); a clock whose
  components all fit one (two) bytes is a count byte plus one (two) bytes
  per component, anything else 8 bytes per component.  A ``Tag`` is frozen,
  so the encoder leaves its bytes on the tag the first time it encodes it
  and appends them from then on;
* registered classes -- every ``core/messages.py`` dataclass plus the
  durable-state containers -- encode as a class id followed by their fields
  in an **explicit registered order**.  Field order is part of the wire
  contract: it is spelled out here, not inferred from ``__dict__`` or
  dataclass introspection, so reordering a dataclass cannot silently change
  the encoding.  Decoding builds instances with ``cls.__new__`` + setattr,
  which also round-trips ``init=False`` fields like ``WriteAck.ts``.

Frames
------
A *frame* is ``u32 length || version byte || flags byte || [u32 crc32] ||
encoded value``.  The length covers everything after the length word.
:data:`WIRE_VERSION` is bumped on any incompatible change; decoders reject
frames from a different version instead of misparsing them.

Since v5 every frame carries a CRC32 (IEEE, as ``zlib.crc32``) of the
encoded value, flagged in bit 0 of the flags byte.  A mismatch raises
:class:`FrameCorrupt`; receivers treat it exactly like a dropped frame and
let ARQ retransmission mask it, so on-wire corruption costs latency, never
correctness.  Every frame this module emits carries the CRC; decoders
still honour the per-frame flag, checking the CRC only when it is set.

Copies
------
The codec is on the live runtime's per-message hot path, so both directions
avoid full-body copies:

* :func:`encode_frame` (and the batched :func:`encode_frames` and
  :func:`encode_runs`) assemble the length word, version byte and encoded
  fields in one ``b"".join`` -- the body is never concatenated twice;
* decoding walks a :class:`memoryview` over the input, so container and
  string traversal never slices fresh ``bytes``; ndarray payloads are
  returned as **read-only zero-copy views** over the frame buffer
  (``np.frombuffer``).  Every consumer of decoded values treats them as
  immutable (the field kernels are pure and return new arrays); callers
  that do need to mutate must ``.copy()`` explicitly.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Iterable

import numpy as np

from ..consistency.online import AuditOp
from ..core.messages import (
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
from ..core.snapshot import ServerCheckpoint
from ..core.state import (
    Codeword,
    DeletionList,
    HistoryList,
    InQueue,
    InQueueEntry,
    ReadEntry,
    ReadList,
)
from ..core.tags import Tag, VectorClock

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "FrameCorrupt",
    "encode",
    "decode",
    "encode_frame",
    "encode_frames",
    "encode_runs",
    "RUN_BUDGET",
    "decode_frame",
    "decode_body",
    "register",
    "registered_classes",
]

#: Bumped on any incompatible change to the encoding or the class registry.
#: v2: client requests carry a session-floor vector clock.
#: v3: anti-entropy messages (DigestMsg/RepairRequest/RepairResponse,
#: ids 11-13).  The value encoding and all pre-existing class ids are
#: unchanged -- v2-era *bodies* still decode -- but a v2 node cannot
#: decode the new ids, so frames reject the old version byte.
#: v4 (sharding): client requests carry a ring-epoch ``view`` field,
#: migration frames (MigrateInstall/ViewInstall/ViewInstallAck, ids
#: 14-16), and AuditOp gains ``shard``/``gen`` so the online auditor can
#: check causal consistency on cross-shard histories.
#: v5 (integrity): frames gain a flags byte and, when flag bit 0 is set
#: (the default), a CRC32 of the encoded value.  The value encoding and
#: all class ids are unchanged -- v2-era *bodies* still decode -- only
#: the frame header grew.
#: v6 (dynamic membership): reconfiguration control messages
#: (ReconfigPropose/ReconfigAck/ReconfigCommit, ids 17-19), peer hellos
#: advertise the dialer's membership ``cfg_epoch``, and AuditOp gains a
#: trailing ``epoch`` field so decision identity survives an epoch-fenced
#: server replacement (the replacement restarts its record sequence).
#: v7 (compact integers): non-negative ints below 2**8 / 2**16 encode in
#: 2 / 3 bytes (``_T_UINT8`` / ``_T_UINT16``) and vector clocks whose
#: components all do in ``2 + n`` / ``2 + 2n`` bytes (``_T_VC8`` /
#: ``_T_VC16``).  Every v6 type tag still *decodes* -- ``_T_INT`` and
#: ``_T_VC`` are still what large values encode as -- so v2-era bodies and
#: ``CECKPT01`` checkpoints load; a v6 node cannot parse the new tags, so
#: frames reject the old version byte.  ndarrays needed no change.
WIRE_VERSION = 7

#: Frames larger than this are rejected before allocation (corrupt length
#: words must not trigger multi-gigabyte reads).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(ValueError):
    """Raised on malformed, truncated, or wrong-version wire data."""


class FrameCorrupt(WireError):
    """A frame's CRC32 did not match its body: bit rot in flight.

    Receivers must treat this exactly like a *dropped* frame -- skip it and
    let ARQ retransmission deliver a clean copy -- never like a protocol
    error that tears down the connection.
    """


# ---------------------------------------------------------------------------
# type tags

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03  # 8-byte big-endian signed
_T_BIGINT = 0x04  # u32 length + signed big-endian bytes
_T_FLOAT = 0x05  # IEEE-754 double
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_SET = 0x0B
_T_NDARRAY = 0x0C
_T_VC = 0x0D
_T_TAG = 0x0E
_T_OBJ = 0x0F  # u16 class id + fields in registered order
_T_UINT8 = 0x10  # one unsigned byte
_T_UINT16 = 0x11  # 2-byte big-endian unsigned
_T_VC8 = 0x12  # u8 length + one unsigned byte per component
_T_VC16 = 0x13  # u8 length + 2-byte big-endian unsigned per component

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAGGED_U16 = struct.Struct(">BH")
_TAGGED_I64 = struct.Struct(">Bq")

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: the encoding of every int below 2**8, precomputed
_SMALL_INT = tuple(bytes((_T_UINT8, v)) for v in range(256))


# ---------------------------------------------------------------------------
# encoding
#
# One dispatch on ``type(obj)``: ``_ENCODERS`` maps an exact type to the
# function that appends a value's chunks to ``out``.  Containers look their
# items up inline, so encoding a value costs one dict probe per node, not a
# walk down an ``isinstance`` chain.  A type the table has not seen is
# resolved once by :func:`_resolve`, in the order of the chain this table
# replaced (``tests/reference_v7.py`` keeps that chain as the oracle: the
# bytes are its bytes).

_NONE = bytes((_T_NONE,))
_TRUE = bytes((_T_TRUE,))
_FALSE = bytes((_T_FALSE,))
_TAG_HEAD = bytes((_T_TAG,))
_NDARRAY_HEAD = bytes((_T_NDARRAY,))
_TAGGED_U32 = struct.Struct(">BI")  # a type tag and a length
_TAGGED_F64 = struct.Struct(">Bd")

_ENCODERS: dict[type, Callable[[list, Any], None]] = {}
_encoder_for = _ENCODERS.get


def _encode_into(out: list[bytes | memoryview], obj: Any) -> None:
    (_encoder_for(type(obj)) or _resolve(type(obj)))(out, obj)


def _enc_none(out: list, obj: None) -> None:
    out.append(_NONE)


def _enc_bool(out: list, obj: bool) -> None:
    out.append(_TRUE if obj else _FALSE)


def _enc_int(out: list, v: int) -> None:
    if 0 <= v < 256:
        out.append(_SMALL_INT[v])
    elif 0 <= v < 65536:
        out.append(_TAGGED_U16.pack(_T_UINT16, v))
    elif _I64_MIN <= v <= _I64_MAX:
        out.append(_TAGGED_I64.pack(_T_INT, v))
    else:
        raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
        out.append(_TAGGED_U32.pack(_T_BIGINT, len(raw)) + raw)


def _enc_int_like(out: list, obj: Any) -> None:
    _enc_int(out, int(obj))  # IntEnum members, numpy integer scalars


def _enc_float(out: list, obj: Any) -> None:
    out.append(_TAGGED_F64.pack(_T_FLOAT, obj))


def _enc_str(out: list, obj: str) -> None:
    raw = obj.encode("utf-8")
    out.append(_TAGGED_U32.pack(_T_STR, len(raw)) + raw)


def _enc_bytes(out: list, obj: bytes | bytearray) -> None:
    out.append(_TAGGED_U32.pack(_T_BYTES, len(obj)) + obj)


def _enc_tuple(out: list, obj: tuple) -> None:
    out.append(_TAGGED_U32.pack(_T_TUPLE, len(obj)))
    for item in obj:
        (_encoder_for(type(item)) or _resolve(type(item)))(out, item)


def _enc_list(out: list, obj: list) -> None:
    out.append(_TAGGED_U32.pack(_T_LIST, len(obj)))
    for item in obj:
        (_encoder_for(type(item)) or _resolve(type(item)))(out, item)


def _enc_dict(out: list, obj: dict) -> None:
    out.append(_TAGGED_U32.pack(_T_DICT, len(obj)))
    for k, v in obj.items():
        (_encoder_for(type(k)) or _resolve(type(k)))(out, k)
        (_encoder_for(type(v)) or _resolve(type(v)))(out, v)


def _enc_set(out: list, obj: set | frozenset) -> None:
    # sorted-bytes order makes set encoding deterministic
    items = []
    for item in obj:
        parts: list = []
        (_encoder_for(type(item)) or _resolve(type(item)))(parts, item)
        items.append(parts[0] if len(parts) == 1 else b"".join(parts))
    items.sort()
    out.append(_TAGGED_U32.pack(_T_SET, len(items)))
    out.extend(items)


def _enc_ndarray(out: list, obj: np.ndarray) -> None:
    arr = np.ascontiguousarray(obj)
    # a flat byte view, not tobytes(): the only copy of the payload
    # happens in the final join
    raw = memoryview(arr).cast("B")
    out.append(_NDARRAY_HEAD)
    _enc_str(out, arr.dtype.str)
    _enc_tuple(out, arr.shape)
    out.append(_U32.pack(raw.nbytes))
    out.append(raw)


def _enc_vector_clock(out: list, obj: VectorClock) -> None:
    comps = obj.components
    n = len(comps)
    # a count byte and unsigned components, or only the 8-byte form fits
    top = max(comps) if 0 < n < 256 and min(comps) >= 0 else 1 << 16
    if top < 256:
        out.append(bytes((_T_VC8, n, *comps)))
    elif top < 1 << 16:
        out.append(struct.pack(f">BB{n}H", _T_VC16, n, *comps))
    else:
        out.append(struct.pack(f">BI{n}q", _T_VC, n, *comps))


def _enc_tag(out: list, obj: Tag) -> None:
    raw = obj._wire
    if raw is None:
        # first encode of this tag: it is frozen, so these are its bytes
        # for good.  (Only frozen classes may carry a memo -- a
        # VectorClock's slots are assignable -- and the decoder never
        # fills it: most decoded tags are never encoded again.)
        parts = [_TAG_HEAD]
        _encode_into(parts, obj.ts)
        _encode_into(parts, obj.client_id)
        raw = b"".join(parts)
        object.__setattr__(obj, "_wire", raw)
    out.append(raw)


def _class_encoder(
    class_id: int, fields: tuple[str, ...]
) -> Callable[[list, Any], None]:
    head = _TAGGED_U16.pack(_T_OBJ, class_id)

    def enc(out: list, obj: Any) -> None:
        out.append(head)
        for name in fields:
            item = getattr(obj, name)
            (_encoder_for(type(item)) or _resolve(type(item)))(out, item)

    return enc


_ENCODERS.update({type(None): _enc_none, bool: _enc_bool, int: _enc_int})

#: What a type not in ``_ENCODERS`` encodes as: the first arm that claims
#: it, top to bottom -- the order of the ``isinstance`` chain every wire
#: version up to this table used (``bool`` and ``None`` sat above it and
#: cannot be subclassed).  So ``IntEnum`` members and numpy integer
#: scalars are ints (``np.bool_`` is neither and stays rejected), a
#: namedtuple is a tuple, ``OrderedDict``/``defaultdict`` are dicts, ndarray
#: subclasses are ndarrays -- and a registered class that also subclasses
#: one of these encodes as the builtin, as it always did.
_SUBCLASS_ARMS: tuple[tuple[Any, Callable[[list, Any], None]], ...] = (
    ((int, np.integer), _enc_int_like),
    ((float, np.floating), _enc_float),
    (str, _enc_str),
    ((bytes, bytearray), _enc_bytes),
    (tuple, _enc_tuple),
    (list, _enc_list),
    (dict, _enc_dict),
    ((set, frozenset), _enc_set),
    (np.ndarray, _enc_ndarray),
    (VectorClock, _enc_vector_clock),
    (Tag, _enc_tag),
)


def _resolve(cls: type) -> Callable[[list, Any], None]:
    """Find, install and return the encoder of a type new to the table.

    A failure is not remembered: an unregistered type raises every time,
    and encodes as soon as it is registered.
    """
    for bases, enc in _SUBCLASS_ARMS:
        if issubclass(cls, bases):
            break
    else:
        entry = _BY_CLASS.get(cls)
        if entry is None:
            raise WireError(f"cannot encode unregistered type {cls.__name__}")
        enc = _class_encoder(*entry)
    _ENCODERS[cls] = enc
    return enc


# ---------------------------------------------------------------------------
# class registry

#: class id -> (class, field order); the inverse map speeds up encoding.
_REGISTRY: dict[int, tuple[type, tuple[str, ...]]] = {}
_BY_CLASS: dict[type, tuple[int, tuple[str, ...]]] = {}


def register(class_id: int, cls: type, fields: tuple[str, ...]) -> None:
    """Register ``cls`` under ``class_id`` with an explicit field order.

    Ids and field orders are part of the wire contract: never reuse a
    retired id, never reorder fields without bumping :data:`WIRE_VERSION`.
    The class's encoder (its ``_T_OBJ || class id`` head and field tuple
    bound once) is built here, so registering after import is enough for
    the next :func:`encode` to see it.
    """
    if class_id in _REGISTRY and _REGISTRY[class_id][0] is not cls:
        raise ValueError(f"wire class id {class_id} already registered")
    if cls in _BY_CLASS and _BY_CLASS[cls][0] != class_id:
        raise ValueError(f"{cls.__name__} already registered")
    _REGISTRY[class_id] = (cls, fields)
    _BY_CLASS[cls] = (class_id, fields)
    _ENCODERS.pop(cls, None)  # a re-registration may bring new fields
    _resolve(cls)


def registered_classes() -> dict[int, type]:
    """The current id -> class table (for tests and debugging)."""
    return {cid: cls for cid, (cls, _) in _REGISTRY.items()}


# protocol messages (ids 1-19).  ``size_bits`` rides along so the receiving
# side sees the same cost accounting the sender assigned.
register(
    1, WriteRequest, ("opid", "obj", "value", "session_ts", "view", "size_bits")
)
register(2, WriteAck, ("opid", "ts", "tag", "size_bits"))
register(
    3, ReadRequest, ("opid", "obj", "session_ts", "view", "size_bits")
)
register(4, ReadReturn, ("opid", "value", "ts", "value_tag", "size_bits"))
register(5, App, ("obj", "value", "tag", "size_bits"))
register(6, Del, ("obj", "tag", "origin", "fanout", "size_bits"))
register(7, ValInq, ("client_id", "opid", "obj", "wanted_tagvec", "size_bits"))
register(8, ValResp, ("obj", "value", "client_id", "opid", "requested_tags", "size_bits"))
register(
    9,
    ValRespEncoded,
    ("symbol", "tagvec", "client_id", "opid", "obj", "requested_tags", "size_bits"),
)
register(10, Heartbeat, ("sender", "sent_at", "size_bits"))
register(11, DigestMsg, ("sender", "vc", "tags", "sent_at", "size_bits"))
register(12, RepairRequest, ("sender", "tags", "vc", "size_bits"))
register(
    13,
    RepairResponse,
    ("sender", "tags", "vc", "entries", "dels", "symbol", "tagvec", "size_bits"),
)
register(
    14,
    MigrateInstall,
    ("opid", "obj", "value", "gen", "session_ts", "view", "size_bits"),
)
register(15, ViewInstall, ("version", "size_bits"))
register(16, ViewInstallAck, ("version", "ts", "size_bits"))
register(
    17,
    ReconfigPropose,
    ("epoch", "members", "joiner", "row_seed", "size_bits"),
)
register(18, ReconfigAck, ("epoch", "cfg_epoch", "ts", "size_bits"))
register(
    19,
    ReconfigCommit,
    ("epoch", "members", "joiner", "row_seed", "size_bits"),
)

# durable server state (ids 20-31): everything a ServerCheckpoint holds, so
# the file-backed durable store never needs pickle.
register(20, HistoryList, ("_zero", "_items"))
register(21, DeletionList, ("_tags", "_max"))
register(22, InQueueEntry, ("sender", "obj", "value", "tag"))
register(23, InQueue, ("_entries",))
register(24, ReadEntry, ("client_id", "opid", "obj", "tagvec", "symbols", "registered_at"))
register(25, ReadList, ("_by_opid",))
register(26, Codeword, ("value", "tagvec"))
register(27, ServerCheckpoint, ("server_id", "time", "state", "transport"))

# observability (ids 40-49): records streamed to the online auditor.
register(
    40,
    AuditOp,
    (
        "server", "seq", "kind", "obj", "tag", "opid", "time", "shard",
        "gen", "epoch",
    ),
)


def encode(obj: Any) -> bytes:
    """Encode one value (no frame header)."""
    out: list[bytes | memoryview] = []
    _encode_into(out, obj)
    return b"".join(out)


# ---------------------------------------------------------------------------
# decoding

class _Reader:
    """Cursor over a :class:`memoryview`: ``take`` slices views, not bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | bytearray | memoryview):
        self.data = data if isinstance(data, memoryview) else memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated wire data")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def _decode_from(r: _Reader) -> Any:
    tag = r.take(1)[0]
    if tag == _T_UINT8:
        return r.take(1)[0]
    if tag == _T_UINT16:
        return _U16.unpack(r.take(2))[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(r.take(8))[0]
    if tag == _T_BIGINT:
        return int.from_bytes(r.take(r.u32()), "big", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        return str(r.take(r.u32()), "utf-8")
    if tag == _T_BYTES:
        return bytes(r.take(r.u32()))
    if tag == _T_TUPLE:
        return tuple(_decode_from(r) for _ in range(r.u32()))
    if tag == _T_LIST:
        return [_decode_from(r) for _ in range(r.u32())]
    if tag == _T_DICT:
        n = r.u32()
        d = {}
        for _ in range(n):
            k = _decode_from(r)
            d[k] = _decode_from(r)
        return d
    if tag == _T_SET:
        return {_decode_from(r) for _ in range(r.u32())}
    if tag == _T_NDARRAY:
        dtype = _decode_from(r)
        shape = _decode_from(r)
        raw = r.take(r.u32())
        # zero-copy: a read-only view over the frame buffer.  Safe because
        # decoded values are treated as immutable everywhere (the field
        # kernels are pure); callers that must mutate copy explicitly.
        return np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
    if tag == _T_VC8:
        return VectorClock(tuple(r.take(r.take(1)[0])))
    if tag == _T_VC16:
        n = r.take(1)[0]
        return VectorClock(struct.unpack(f">{n}H", r.take(2 * n)))
    if tag == _T_VC:
        n = r.u32()
        return VectorClock(tuple(_I64.unpack(r.take(8))[0] for _ in range(n)))
    if tag == _T_TAG:
        ts = _decode_from(r)
        client_id = _decode_from(r)
        return Tag(ts, client_id)
    if tag == _T_OBJ:
        class_id = _U16.unpack(r.take(2))[0]
        entry = _REGISTRY.get(class_id)
        if entry is None:
            raise WireError(f"unknown wire class id {class_id}")
        cls, fields = entry
        obj = cls.__new__(cls)
        for name in fields:
            # object.__setattr__ also handles frozen dataclasses
            object.__setattr__(obj, name, _decode_from(r))
        return obj
    raise WireError(f"unknown wire type tag 0x{tag:02x}")


def decode(data: bytes | bytearray | memoryview) -> Any:
    """Decode one value previously produced by :func:`encode`.

    ndarray payloads come back as read-only zero-copy views over ``data``
    (which they keep alive); everything else is materialized.

    Every failure mode of malformed input -- truncation, garbage dtype
    strings, shape/buffer mismatches, unhashable dict keys, pathological
    nesting -- surfaces as :class:`WireError`, never a stray
    ``struct.error``/``TypeError``/``RecursionError``: byte-flipped input
    is an expected event, not a crash.
    """
    r = _Reader(data)
    try:
        obj = _decode_from(r)
    except WireError:
        raise
    except (
        ValueError,
        TypeError,
        KeyError,
        OverflowError,
        struct.error,
        UnicodeDecodeError,
        RecursionError,
    ) as exc:
        raise WireError(f"malformed wire data: {exc!r}") from exc
    if r.pos != len(r.data):
        raise WireError(f"{len(r.data) - r.pos} trailing bytes after value")
    return obj


# ---------------------------------------------------------------------------
# frames

#: flags byte, bit 0: a u32 CRC32 of the encoded value follows the flags.
_FLAG_CRC = 0x01

#: ``length || version || flags || crc``
_HDR_CRC = struct.Struct(">IBBI")


def _frame_into(out: list[bytes | memoryview], obj: Any) -> None:
    """Append one frame's chunks (length word included) to ``out``."""
    mark = len(out)
    out.append(b"")  # the header's place, filled once the body is known
    _encode_into(out, obj)
    # incremental CRC over the body chunks: the body is still laid down
    # exactly once, in the caller's single join
    body_len = 0
    crc = 0
    for part in out[mark + 1 :]:
        body_len += len(part)
        crc = zlib.crc32(part, crc)
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    out[mark] = _HDR_CRC.pack(body_len + 6, WIRE_VERSION, _FLAG_CRC, crc)


def encode_frame(obj: Any) -> bytes:
    """``u32 length || version || flags || [crc] || encode(obj)``.

    Ready to write to a socket, assembled with a single join: the body
    bytes are laid down exactly once, never re-concatenated for the
    header or the CRC.
    """
    out: list[bytes | memoryview] = []
    _frame_into(out, obj)
    return b"".join(out)


def encode_frames(objs: Iterable[Any]) -> bytes:
    """Concatenate many frames into one buffer for a single socket write.

    Byte-identical to ``b"".join(encode_frame(o) for o in objs)`` but with
    one allocation for the whole batch -- the per-tick flush path of the
    live runtime.
    """
    out: list[bytes | memoryview] = []
    for obj in objs:
        if isinstance(obj, (bytes, bytearray, memoryview)):
            out.append(obj)  # pre-encoded frame (chaos-damaged bytes)
        else:
            _frame_into(out, obj)
    return b"".join(out)


#: a run frame closes before the encoded messages in its list pass this
#: many bytes (one larger message still goes alone)
RUN_BUDGET = 1 << 20

#: ``encode("d")``, the kind of every run frame
_RUN_KIND = _TAGGED_U32.pack(_T_STR, 1) + b"d"


def _is_data(item: Any) -> bool:
    return type(item) is tuple and item[0] == "d"


def _close_run(out: list, mark: int, first: int, count: int, ack) -> None:
    """Fill the slot reserved at ``out[mark]`` for a run of ``count``
    messages from ``first`` (their chunks follow it): the frame header and
    the head of the tuple and its list; ``ack`` fields go on the end."""
    head = [_TAGGED_U32.pack(_T_TUPLE, 3 if ack is None else 5), _RUN_KIND]
    _enc_int(head, first)
    head.append(_TAGGED_U32.pack(_T_LIST, count))
    head = b"".join(head)
    for v in ack or ():
        _enc_int(out, v)
    body_len = len(head)
    crc = zlib.crc32(head)
    for part in out[mark + 1 :]:
        body_len += len(part)
        crc = zlib.crc32(part, crc)
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    out[mark] = _HDR_CRC.pack(body_len + 6, WIRE_VERSION, _FLAG_CRC, crc) + head


def encode_runs(items: list, ack: tuple | None = None) -> tuple[bytes, int, bool]:
    """Frame one peer channel's released items for a single socket write.

    ``items`` are, in order, sequenced data messages ``("d", seq, msg)``,
    other frames (gossip) and pre-encoded frames (chaos-damaged bytes).
    Each maximal run of consecutive ``seq`` becomes one frame
    ``("d", first, [msg, ...])``: any other item ends a run, and a run
    closes before the encoded messages in its list pass
    :data:`RUN_BUDGET`.  ``ack``, a ``(conn, upto)`` pair of ints, rides
    in the last run frame as ``("d", first, msgs, conn, upto)``.  Each
    message is encoded once, straight into the output, behind a slot
    reserved for the heads (:func:`_close_run`).  The bytes are those of
    :func:`encode_frames` over the merged tuples.

    Returns the bytes, the number of frames, and whether ``ack`` went out.
    """
    out: list[bytes | memoryview] = []
    frames = 0
    last = max((i for i, it in enumerate(items) if _is_data(it)), default=-1)
    mark = None  # the open run's slot in ``out``
    first = count = size = 0
    for i, item in enumerate(items):
        if not _is_data(item):
            if mark is not None:
                _close_run(out, mark, first, count, None)
                mark = None
            if isinstance(item, (bytes, bytearray, memoryview)):
                out.append(item)
            else:
                _frame_into(out, item)
            frames += 1
            continue
        parts: list = []
        _encode_into(parts, item[2])
        n = sum(map(len, parts))
        if mark is not None and (item[1] != first + count or size + n > RUN_BUDGET):
            _close_run(out, mark, first, count, None)
            mark = None
        if mark is None:
            mark, first, count, size = len(out), item[1], 0, 0
            out.append(b"")
            frames += 1
        out += parts
        count, size = count + 1, size + n
        if i == last:
            _close_run(out, mark, first, count, ack)
            mark = None
    return b"".join(out), frames, ack is not None and last >= 0


def decode_body(body: bytes | bytearray | memoryview) -> Any:
    """Decode a frame body (everything after the length word).

    Raises :class:`FrameCorrupt` when the frame carries a CRC32 and it
    does not match -- callers on live sockets should treat that exactly
    like a dropped frame.
    """
    if len(body) < 2:
        raise WireError("truncated frame body")
    if body[0] != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: got {body[0]}, expected {WIRE_VERSION}"
        )
    flags = body[1]
    if flags & ~_FLAG_CRC:
        raise WireError(f"unknown frame flags 0x{flags:02x}")
    payload = memoryview(body)[2:]
    if flags & _FLAG_CRC:
        if len(payload) < 4:
            raise WireError("truncated frame CRC")
        (want,) = _U32.unpack(payload[:4])
        payload = payload[4:]
        got = zlib.crc32(payload)
        if got != want:
            raise FrameCorrupt(
                f"frame CRC mismatch: header {want:#010x}, body {got:#010x}"
            )
    return decode(payload)


def decode_frame(data: bytes | bytearray | memoryview) -> Any:
    """Decode one complete frame (length word included)."""
    if len(data) < 4:
        raise WireError("truncated frame header")
    (length,) = _U32.unpack(memoryview(data)[:4])
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    if len(data) != 4 + length:
        raise WireError(f"frame length {length} != {len(data) - 4} body bytes")
    return decode_body(memoryview(data)[4:])
