"""Quiet single-layer lanes: one layer, fixed inputs, no runtime in the way.

Each lane times a public function of one layer on inputs that never change
(the ``--seed`` does not reach them) and reports the best of ``REPEATS``
timings, so a lane moves only when its layer's code does.  The whole set
takes a few seconds.  ``server_core.replay_events_per_s`` is the exception
in one respect: its input is the tape of core events the traced run just
recorded, replayed into fresh cores with the effects thrown away.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.messages import WriteRequest
from repro.core.snapshot import capture_server_state
from repro.ec.codes import example1_code
from repro.ec.field import PrimeField
from repro.protocol.effects import SendEffect
from repro.protocol.server_core import ServerConfig, ServerCore
from repro.runtime import wire
from repro.runtime.asyncio_rt import FileDurableStore

REPEATS = 10
V = 4096
WRITES = 12
#: at most this many taped events are replayed (keeps the lane under ~2 s)
REPLAY_EVENTS = 6000

_perf = time.perf_counter


def _unwrapped(fn):
    """The function under the span wrapper, if the tracer is installed."""
    return getattr(fn, "__wrapped__", fn)


def best_us(fn, inner: int) -> float:
    """Best-of-``REPEATS`` microseconds per call of ``fn``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = _perf()
        for _ in range(inner):
            fn()
        best = min(best, (_perf() - t0) / inner)
    return best * 1e6


def _loaded_core(code):
    """A server that has taken ``WRITES`` client writes, and the ``app``
    messages it broadcast for them."""
    rng = np.random.default_rng(0)
    core = ServerCore(0, code, ServerConfig(gc_interval=50.0))
    core.boot(0.0)
    client = code.N
    apps = []
    for i in range(WRITES):
        value = rng.integers(0, 256, code.value_len, dtype=np.int64)
        req = WriteRequest((client, i), i % code.K, code.field.validate(value))
        for e in core.handle_message(client, req, float(i)):
            if type(e) is SendEffect:
                apps.append(e.msg)
    return core, apps


def ec_lanes() -> dict[str, float]:
    code = example1_code(PrimeField(257), value_len=V)
    rng = np.random.default_rng(0)
    values = [code.field.validate(rng.integers(0, 256, V)) for _ in range(code.K)]
    newer = [code.field.validate(rng.integers(0, 256, V)) for _ in range(code.K)]
    symbols = code.encode_all(values)
    updates = [(k, values[k], newer[k]) for k in range(code.K)]
    coded = {3: symbols[3], 4: symbols[4], 0: symbols[0]}
    encode_all = _unwrapped(type(code).encode_all)
    reencode_many = _unwrapped(type(code).reencode_many)
    decode_many = _unwrapped(type(code).decode_many)
    if decode_many(code, [1, 2], coded) is None:
        raise RuntimeError("lane input is not a recovery set")
    return {
        "ec.encode_all_us_v4096": best_us(lambda: encode_all(code, values), 50),
        "ec.reencode_many_us_v4096": best_us(
            lambda: reencode_many(code, 4, symbols[4], updates), 50
        ),
        "ec.decode_many_us_v4096": best_us(
            lambda: decode_many(code, [1, 2], coded), 50
        ),
    }


def io_lanes(scratch: Path) -> dict[str, float]:
    """wire, snapshot and durable_store on one loaded 4 KiB-value server."""
    code = example1_code(PrimeField(257), value_len=V)
    core, apps = _loaded_core(code)
    frames = [("d", i + 1, msg) for i, msg in enumerate(apps)]
    encode_frames = _unwrapped(wire.encode_frames)
    decode_frame = _unwrapped(wire.decode_frame)
    blob = encode_frames(frames)
    singles = [_unwrapped(wire.encode_frame)(f) for f in frames]
    mb = len(blob) / 1e6
    capture = _unwrapped(capture_server_state)
    checkpoint = capture(core)
    store = FileDurableStore(scratch / "lane_store")
    persist = _unwrapped(FileDurableStore.persist)
    return {
        "wire.encode_frames_mb_s": mb / (
            best_us(lambda: encode_frames(frames), 5) / 1e6
        ),
        "wire.decode_mb_s": mb / (
            best_us(lambda: [decode_frame(s) for s in singles], 5) / 1e6
        ),
        "snapshot.capture_us_quiet": best_us(lambda: capture(core), 20),
        "durable_store.persist_us_quiet": best_us(
            lambda: persist(store, checkpoint), 5
        ),
    }


def replay_lane(tape, code, config: ServerConfig) -> dict[str, float]:
    """Pure protocol CPU: taped ``handle_message``/``handle_timer`` calls fed
    to fresh cores in their recorded order, effects discarded."""
    events = tape[:REPLAY_EVENTS]
    handlers = {
        name: _unwrapped(getattr(ServerCore, name))
        for name in ("handle_message", "handle_timer")
    }
    best = float("inf")
    for _ in range(3):
        cores = [ServerCore(i, code, config) for i in range(code.N)]
        for core in cores:
            core.boot(0.0)
        t0 = _perf()
        for server, name, args in events:
            handlers[name](cores[server], *args)
        best = min(best, _perf() - t0)
    return {"server_core.replay_events_per_s": len(events) / best}


def run_all(scratch: Path, tape, code, config: ServerConfig) -> dict[str, float]:
    return {**ec_lanes(), **io_lanes(scratch), **replay_lane(tape, code, config)}
