"""The wire v6 encoder and the single-file checkpoint container, as older
builds wrote them.

Upgrade tests need bytes an older build wrote: 9-byte integers, 8-byte
vector-clock components and field symbols as int64.  This is that encoder
(value layer and checkpoint container), kept in the tests because nothing in
``src/`` writes the old form any more -- ``src/`` only has to *read* it.
``test_v2_era_body_still_decodes`` pins it against bytes recorded from the
real v2..v6 encoder.  The container, :func:`single_file`, is the one file
per server that builds before checkpoint slots wrote: ``CECKPT01`` around
v6 payloads, ``CECKPT02`` around v7 ones.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.snapshot import ServerCheckpoint
from repro.core.tags import Tag, VectorClock
from repro.runtime import wire

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")


def _into(out: list, obj, widen: bool) -> None:
    if obj is None:
        out.append(b"\x00")
    elif obj is True:
        out.append(b"\x01")
    elif obj is False:
        out.append(b"\x02")
    elif isinstance(obj, (int, np.integer)):
        v = int(obj)
        if -(1 << 63) <= v < (1 << 63):
            out.append(b"\x03" + _I64.pack(v))
        else:
            raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
            out.append(b"\x04" + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        out.append(b"\x05" + struct.pack(">d", float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"\x06" + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(b"\x07" + _U32.pack(len(obj)) + bytes(obj))
    elif isinstance(obj, (tuple, list)):
        out.append((b"\x08" if isinstance(obj, tuple) else b"\x09") + _U32.pack(len(obj)))
        for item in obj:
            _into(out, item, widen)
    elif isinstance(obj, dict):
        out.append(b"\x0a" + _U32.pack(len(obj)))
        for k, v in obj.items():
            _into(out, k, widen)
            _into(out, v, widen)
    elif isinstance(obj, (set, frozenset)):
        items = sorted(encode_v6(item, widen) for item in obj)
        out.append(b"\x0b" + _U32.pack(len(items)))
        out.extend(items)
    elif isinstance(obj, np.ndarray):
        if widen and obj.dtype.kind in "iu":
            obj = obj.astype(np.int64)  # what every field symbol was
        arr = np.ascontiguousarray(obj)
        out.append(b"\x0c")
        _into(out, arr.dtype.str, widen)
        _into(out, arr.shape, widen)
        out.append(_U32.pack(arr.nbytes))
        out.append(arr.tobytes())
    elif isinstance(obj, VectorClock):
        out.append(b"\x0d" + _U32.pack(len(obj.components)))
        out.extend(_I64.pack(c) for c in obj.components)
    elif isinstance(obj, Tag):
        out.append(b"\x0e")
        _into(out, obj.ts, widen)
        _into(out, obj.client_id, widen)
    else:
        class_id, fields = wire._BY_CLASS[type(obj)]
        out.append(b"\x0f" + struct.pack(">H", class_id))
        for name in fields:
            _into(out, getattr(obj, name), widen)


def encode_v6(obj, widen: bool = False) -> bytes:
    """``wire.encode`` as of wire v6; ``widen`` stores integer arrays as
    int64, the dtype every field symbol had then."""
    out: list[bytes] = []
    _into(out, obj, widen)
    return b"".join(out)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def checkpoint_v6(checkpoint: ServerCheckpoint) -> bytes:
    """``checkpoint`` as the ``CECKPT01`` file a PR-13 build wrote for it."""
    sections = [
        encode_v6(part, widen=True)
        for part in (
            (checkpoint.server_id, checkpoint.time),
            checkpoint.state,
            checkpoint.transport,
        )
    ]
    return single_file(b"CECKPT01", sections)


def single_file(magic: bytes, sections) -> bytes:
    """``magic || u32 nsections || (u32 len || blake2b-16 || payload)* ||
    header blake2b-16`` over the section payloads ``sections``."""
    digests = [_digest(p) for p in sections]
    head = magic + _U32.pack(len(sections))
    parts = [head]
    for payload, digest in zip(sections, digests):
        parts += [_U32.pack(len(payload)), digest, payload]
    parts.append(_digest(head + b"".join(digests)))
    return b"".join(parts)
