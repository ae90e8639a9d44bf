"""Span recorder: times calls into each layer's public functions from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of five layers (module name = layer name) with
wrappers that record one span per call -- name, start, end, parent -- while
``Recorder.enabled`` is set, and call straight through when it is not:

========================  ====================================================
layer                     wrapped entry points
========================  ====================================================
``ec``                    ``LinearCode.encode/encode_all/reencode/
                          reencode_many/decode/decode_many``
``wire``                  ``wire.encode/encode_frame/encode_frames/decode/
                          decode_body/decode_frame``
``server_core``           ``ServerCore.handle_message/handle_timer``
``snapshot``              ``capture_server_state`` as the runtime calls it
``durable_store``         ``FileDurableStore.persist`` and ``os.fsync``
========================  ====================================================

plus, per event loop, the selector's ``select`` (``asyncio_rt.idle``: the
time the loop sat waiting for a socket or a timer).

Everything runs on one thread and no wrapped function awaits, so spans nest
like a call stack: a span's *self* time is its duration minus the durations
of its direct children, every instant of the window belongs to exactly one
span's self time or to none, and layer shares are shares of wall time.

``os.fsync`` is special: its wrapper also keeps an always-on call count,
because ``fsyncs_per_op`` is an end-to-end metric of untraced runs.
"""

from __future__ import annotations

import json
import os
import stat
import time
from collections import defaultdict

import numpy as np

from repro.core import snapshot
from repro.ec.code import LinearCode
from repro.protocol.server_core import ServerCore
from repro.runtime import asyncio_rt, wire

_perf = time.perf_counter
_cpu = time.process_time

#: the layers whose busy shares are reported, in display order
LAYERS = ("ec", "wire", "server_core", "snapshot", "durable_store")
IDLE = "asyncio_rt.idle"
FSYNC = "durable_store.fsync"


class Recorder:
    """In-memory span store plus the always-on fsync count and event tape."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one entry per span, parallel lists (cheaper than tuples to finish)
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: bytes produced/consumed per span name (wire frames) while enabled
        self.bytes: dict[str, int] = defaultdict(int)
        #: cpu seconds burned inside the two kinds of span that mostly wait
        #: (``select`` and ``fsync``), so their waiting can be told apart
        self.wait_cpu: dict[str, float] = defaultdict(float)
        # -- always on ------------------------------------------------------
        self.fsync_calls = 0
        #: bytes newly covered by a file fsync (size growth per inode, or the
        #: whole file when it is a fresh inode); counted while enabled
        self.fsync_bytes = 0
        self._fsync_sizes: dict[tuple[int, int], int] = {}
        #: ``(server, "handle_message" | "handle_timer", args)`` per core
        #: event while it is a list, for the replay lane
        self.tape: list[tuple] | None = None

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(_perf())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _perf()
        self._stack.pop()

    # -- analysis -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent]`` rows."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name_id", "start_s", "end_s", "parent"],
                    "spans": [
                        list(row)
                        for row in zip(
                            self.name_ids, self.starts, self.ends, self.parents
                        )
                    ],
                },
                fh,
            )


class SpanTable:
    """Per-name totals over every finished span (the recorder is only
    enabled inside measurement windows, so that is the windows' content)."""

    def __init__(self, rec: Recorder):
        starts = np.asarray(rec.starts, dtype=float)
        ends = np.asarray(rec.ends, dtype=float)
        parents = np.asarray(rec.parents, dtype=np.int64)
        name_ids = np.asarray(rec.name_ids, dtype=np.int64)
        dur = ends - starts
        inside = ends > 0.0
        # self time = duration minus the direct children's durations
        child = np.zeros(len(dur))
        has_parent = inside & (parents >= 0)
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child
        n_names = len(rec.names)
        ids = name_ids[inside]
        self.names = rec.names
        self.calls = np.bincount(ids, minlength=n_names)
        self.total = np.bincount(ids, weights=dur[inside], minlength=n_names)
        self.self_time = np.bincount(
            ids, weights=self_t[inside], minlength=n_names
        )
        # time of ``wire.encode`` spent directly under a persist: the
        # checkpoint's own serialisation, reported with the store
        persist = rec._name_id.get("durable_store.persist", -1)
        enc = rec._name_id.get("wire.encode", -1)
        under = has_parent & (name_ids == enc)
        under &= name_ids[np.where(parents >= 0, parents, 0)] == persist
        self.wire_under_persist = float(dur[under].sum())
        self.spans = int(inside.sum())

    def _sel(self, prefix: str):
        return [i for i, n in enumerate(self.names) if n.startswith(prefix)]

    def layer_self(self, layer: str) -> float:
        return float(sum(self.self_time[i] for i in self._sel(layer + ".")))

    def layer_calls(self, layer: str) -> int:
        return int(sum(self.calls[i] for i in self._sel(layer + ".")))

    def name_total(self, name: str) -> float:
        return float(sum(self.total[i] for i in self._sel(name)))

    def name_calls(self, name: str) -> int:
        return int(sum(self.calls[i] for i in self._sel(name)))


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(rec: Recorder, name: str, fn, sized: bool = False,
                  waits: bool = False):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        cpu0 = _cpu() if waits else 0.0
        idx = rec.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
            if waits:
                rec.wait_cpu[name] += _cpu() - cpu0
        if sized:
            # encoders return the bytes, decoders take them as first argument
            data = out if isinstance(out, (bytes, bytearray)) else args[0]
            rec.bytes[name] += len(data)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _core_wrapper(rec: Recorder, name: str, fn):
    """Span + tape for ``ServerCore.handle_message`` / ``handle_timer``."""
    span = _span_wrapper(rec, "server_core." + name, fn)

    def wrapper(self, *args):
        if rec.tape is not None:
            rec.tape.append((self.node_id, name, args))
        return span(self, *args)

    wrapper.__wrapped__ = fn
    return wrapper


def _fsync_wrapper(rec: Recorder, fn):
    span = _span_wrapper(rec, FSYNC, fn, waits=True)

    def fsync(fd):
        rec.fsync_calls += 1
        out = span(fd)
        if rec.enabled:
            _count_fsync_bytes(rec, fd)
        return out

    fsync.__wrapped__ = fn
    return fsync


def _count_fsync_bytes(rec: Recorder, fd) -> None:
    st = os.fstat(fd if isinstance(fd, int) else fd.fileno())
    if not stat.S_ISREG(st.st_mode):
        return  # a directory fsync makes a rename durable, not new bytes
    key = (st.st_dev, st.st_ino)
    before = rec._fsync_sizes.get(key, 0)
    rec.fsync_bytes += st.st_size - before if st.st_size > before else st.st_size
    rec._fsync_sizes[key] = st.st_size


_EC = ("encode", "encode_all", "reencode", "reencode_many", "decode", "decode_many")
_WIRE = ("encode", "encode_frame", "encode_frames", "decode", "decode_body",
         "decode_frame")
_WIRE_SIZED = {"encode_frame", "encode_frames", "decode_body"}


def install(rec: Recorder) -> list[tuple]:
    """Patch the layer entry points; returns the undo list for :func:`uninstall`."""
    undo: list[tuple] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for m in _EC:
        patch(LinearCode, m, _span_wrapper(rec, "ec." + m, getattr(LinearCode, m)))
    for m in _WIRE:
        patch(wire, m, _span_wrapper(
            rec, "wire." + m, getattr(wire, m), sized=m in _WIRE_SIZED
        ))
    for m in ("handle_message", "handle_timer"):
        patch(ServerCore, m, _core_wrapper(rec, m, getattr(ServerCore, m)))
    # the runtime imported the function by name: wrap the runtime's binding,
    # i.e. exactly the captures the live servers make
    if asyncio_rt.capture_server_state is not snapshot.capture_server_state:
        raise RuntimeError("the runtime no longer captures through snapshot")
    patch(asyncio_rt, "capture_server_state", _span_wrapper(
        rec, "snapshot.capture_server_state", snapshot.capture_server_state
    ))
    patch(asyncio_rt.FileDurableStore, "persist", _span_wrapper(
        rec, "durable_store.persist", asyncio_rt.FileDurableStore.persist
    ))
    patch(os, "fsync", _fsync_wrapper(rec, os.fsync))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


def watch_loop_idle(rec: Recorder, loop) -> None:
    """Record the running loop's waits in ``select`` as ``asyncio_rt.idle``.

    The selector is the one place a selector event loop blocks; everything
    between two ``select`` calls is the loop doing work.
    """
    selector = loop._selector
    if not hasattr(selector.select, "__wrapped__"):  # once per loop
        selector.select = _span_wrapper(rec, IDLE, selector.select, waits=True)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a throwaway recorder."""
    rec = Recorder()

    def nothing():
        return None

    wrapped = _span_wrapper(rec, "calibration", nothing)
    rec.enabled = True
    t0 = _perf()
    for _ in range(calls):
        wrapped()
    t1 = _perf()
    for _ in range(calls):
        nothing()
    t2 = _perf()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls
