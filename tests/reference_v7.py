"""The wire v7 encoder as it stood before the dispatch table (ISSUE 24).

``src/repro/runtime/wire.py`` used to encode through the ``isinstance``
ladder below; it now dispatches on ``type(obj)`` and frozen tags carry their
bytes.  The format did not change, so this copy -- the replaced function,
verbatim but for the ``wire.`` prefixes on the registry and the error -- is
the oracle: ``wire.encode(x) == reference_v7.encode(x)`` for every ``x``,
byte for byte (``tests/test_wire_codec.py``), and the baseline the micro
lane times the new encoder against (``benchmarks/test_micro_primitives.py``).
Compare encoders by bytes, never by decoded equality: a set in another
order or an int in a wider form decodes to an equal value and is still a
format drift (checkpoint digests, skip-if-unchanged, bytes at rest).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

import numpy as np

from repro.core.tags import Tag, VectorClock
from repro.runtime import wire

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_SET = 0x0B
_T_NDARRAY = 0x0C
_T_VC = 0x0D
_T_TAG = 0x0E
_T_OBJ = 0x0F
_T_UINT8 = 0x10
_T_UINT16 = 0x11
_T_VC8 = 0x12
_T_VC16 = 0x13

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAGGED_U16 = struct.Struct(">BH")
_TAGGED_I64 = struct.Struct(">Bq")

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

_SMALL_INT = tuple(bytes((_T_UINT8, v)) for v in range(256))


def _encode_into(out: list[bytes | memoryview], obj: Any) -> None:
    if obj is None:
        out.append(bytes([_T_NONE]))
    elif obj is True:
        out.append(bytes([_T_TRUE]))
    elif obj is False:
        out.append(bytes([_T_FALSE]))
    elif isinstance(obj, (int, np.integer)):  # bools were handled above
        v = int(obj)
        if 0 <= v < 256:
            out.append(_SMALL_INT[v])
        elif 0 <= v < 65536:
            out.append(_TAGGED_U16.pack(_T_UINT16, v))
        elif _I64_MIN <= v <= _I64_MAX:
            out.append(_TAGGED_I64.pack(_T_INT, v))
        else:
            raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
            out.append(bytes([_T_BIGINT]) + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        out.append(bytes([_T_FLOAT]) + _F64.pack(float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(bytes([_T_STR]) + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(bytes([_T_BYTES]) + _U32.pack(len(obj)) + bytes(obj))
    elif isinstance(obj, tuple):
        out.append(bytes([_T_TUPLE]) + _U32.pack(len(obj)))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, list):
        out.append(bytes([_T_LIST]) + _U32.pack(len(obj)))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, dict):
        out.append(bytes([_T_DICT]) + _U32.pack(len(obj)))
        for k, v in obj.items():
            _encode_into(out, k)
            _encode_into(out, v)
    elif isinstance(obj, (set, frozenset)):
        # sorted-bytes order makes set encoding deterministic
        items = sorted(encode(item) for item in obj)
        out.append(bytes([_T_SET]) + _U32.pack(len(items)))
        out.extend(items)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        # a flat byte view, not tobytes(): the only copy of the payload
        # happens in the final join
        raw = memoryview(arr).cast("B")
        out.append(bytes([_T_NDARRAY]))
        _encode_into(out, arr.dtype.str)
        _encode_into(out, arr.shape)
        out.append(_U32.pack(raw.nbytes))
        out.append(raw)
    elif isinstance(obj, VectorClock):
        comps = obj.components
        n = len(comps)
        # a count byte and unsigned components, or only the 8-byte form fits
        top = max(comps) if 0 < n < 256 and min(comps) >= 0 else 1 << 16
        if top < 256:
            out.append(bytes((_T_VC8, n, *comps)))
        elif top < 1 << 16:
            out.append(struct.pack(f">BB{n}H", _T_VC16, n, *comps))
        else:
            out.append(bytes([_T_VC]) + _U32.pack(n))
            for c in comps:
                out.append(_I64.pack(c))
    elif isinstance(obj, Tag):
        out.append(bytes([_T_TAG]))
        _encode_into(out, obj.ts)
        _encode_into(out, obj.client_id)
    else:
        entry = wire._BY_CLASS.get(type(obj))
        if entry is None:
            raise wire.WireError(f"cannot encode unregistered type {type(obj).__name__}")
        class_id, fields = entry
        out.append(bytes([_T_OBJ]) + _U16.pack(class_id))
        for name in fields:
            _encode_into(out, getattr(obj, name))


def encode(obj: Any) -> bytes:
    """Encode one value (no frame header)."""
    out: list[bytes] = []
    _encode_into(out, obj)
    return b"".join(out)


def encode_frame(obj: Any) -> bytes:
    """``wire.encode_frame`` over the reference encoder (CRC flag set)."""
    body = encode(obj)
    header = struct.pack(
        ">IBBI", len(body) + 6, wire.WIRE_VERSION, 0x01, zlib.crc32(body)
    )
    return header + body
