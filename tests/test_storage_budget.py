"""Theorem 4.5 read off a real disk: a bytes-at-rest budget.

In steady state a CausalEC server stores one codeword symbol (Thm 4.5).  On
the (5,3) example code over GF(257) that is ``N * value_len`` field elements
in all, each ``field.storage_dtype.itemsize`` = 2 bytes wide.  After a few
writes per object and quiescence, the five checkpoint files of a live
cluster must

* hold every array in the field's storage dtype (an int64 array reaching a
  file is the regression this guards: 8 bytes per symbol where 2 suffice);
* at 4 KiB values, weigh -- leaving out what acked-but-unrewritten frames
  in the ARQ send logs add, which is ROADMAP item 3(ii) -- no more than
  1.25 x ``N * value_len * itemsize``.

On failure the per-attribute table says where the bytes are.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.ec.codes import example1_code
from repro.ec.field import PrimeField
from repro.protocol.server_core import ServerConfig
from repro.runtime import wire
from repro.runtime.asyncio_rt import AsyncioCluster, FileDurableStore


def _arrays(obj, path=""):
    """Every ndarray reachable from a decoded checkpoint, with its path."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _arrays(k, f"{path}<key>")
            yield from _arrays(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _arrays(v, f"{path}[]")
    else:
        names = getattr(type(obj), "__slots__", None) or getattr(obj, "__dict__", ())
        for name in names:
            yield from _arrays(getattr(obj, name), f"{path}.{name}")


def _table(checkpoints) -> str:
    """Encoded bytes per durable attribute, summed over the files."""
    sizes: dict[str, int] = {}
    for ckpt in checkpoints:
        parts = {f"state.{k}": v for k, v in ckpt.state.items()}
        parts.update({f"transport.{k}": v for k, v in (ckpt.transport or {}).items()})
        for name, value in parts.items():
            sizes[name] = sizes.get(name, 0) + len(wire.encode(value))
    rows = sorted(sizes.items(), key=lambda kv: -kv[1])
    return "\n".join(f"  {name:28s} {size:9d} B" for name, size in rows)


def _without_send_logs(path, ckpt) -> int:
    """The file's size had every send log been empty when it was written."""
    emptied = {
        **ckpt.transport,
        "send": {
            j: {**st, "unacked": []} for j, st in ckpt.transport["send"].items()
        },
    }
    return (
        path.stat().st_size
        - len(wire.encode(ckpt.transport))
        + len(wire.encode(emptied))
    )


@pytest.mark.parametrize("value_len", [4096, 64])
def test_bytes_at_rest_stay_within_the_codeword_budget(tmp_path, value_len):
    field = PrimeField(257)
    code = example1_code(field, value_len=value_len)
    rng = np.random.default_rng(value_len)

    async def run():
        cluster = AsyncioCluster(
            code, config=ServerConfig(gc_interval=20.0), store_dir=tmp_path
        )
        await cluster.start()
        clients = [await cluster.add_client(server=s) for s in (0, 1, 2)]
        for i in range(3 * code.K):
            # foreign dtype on purpose: what the benchmark's clients send
            value = rng.integers(0, 256, value_len, dtype=np.int64)
            op = await clients[i % 3].write(i % code.K, value)
            assert not op.failed
        # a coded read: ValResp / ValRespEncoded frames pass through send logs
        reader = await cluster.add_client(server=4)
        op = await reader.read(1)
        assert not op.failed
        await cluster.quiesce()
        await asyncio.sleep(0.2)  # the GC rounds the writes started
        await cluster.quiesce()
        transient = sum(s.core.transient_state_size() for s in cluster.servers)
        await cluster.shutdown()
        return transient

    transient = asyncio.run(run())
    assert transient == 0  # Thm 4.5: only the codeword symbols are left
    # the newest slot of each server: a landed write truncates the other
    paths = sorted(
        p for p in tmp_path.glob("server_*.ckpt.[01]") if p.stat().st_size
    )
    assert len(paths) == code.N
    checkpoints = [
        FileDurableStore._decode_checkpoint(p.read_bytes()) for p in paths
    ]
    table = _table(checkpoints)
    # (a) nothing wider than the field's storage dtype reaches a file
    wide = [
        (ckpt.server_id, where, arr.dtype)
        for ckpt in checkpoints
        for where, arr in _arrays((ckpt.state, ckpt.transport))
        if arr.dtype != field.storage_dtype
    ]
    assert not wide, f"arrays not in {field.storage_dtype}: {wide}\n{table}"
    symbols = sum(
        arr.nbytes for ckpt in checkpoints for _, arr in _arrays(ckpt.state["M"])
    )
    floor = code.N * value_len * field.storage_dtype.itemsize
    assert symbols == floor
    # (b) the files weigh little more than the symbols they hold
    at_rest = sum(_without_send_logs(p, c) for p, c in zip(paths, checkpoints))
    per_user_byte = at_rest / (code.K * value_len)
    if value_len == 4096:
        assert at_rest <= 1.25 * floor, (
            f"{at_rest} B at rest with empty send logs = {per_user_byte:.2f} per "
            f"user byte; budget {1.25 * floor:.0f} B\n{table}"
        )
    else:
        # at 64 B the file is metadata (ROADMAP item 3(ii)); what the compact
        # integers bought must not be given back: 25 930 B before them
        assert at_rest <= 10_000, f"{at_rest} B at rest\n{table}"
