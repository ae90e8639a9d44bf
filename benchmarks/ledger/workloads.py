"""The four workloads and their seeded inputs.

The program under test only ever sees what this module generates: a
sequence of ``(kind, key, value)`` operations per closed-loop client, or one
timed arrival stream for the open loop.  The same ``(workload, seed)``
always yields the same bytes (:func:`inputs_digest` is what the smoke test
compares).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: objects in the (5,3) example code; keys are uniform over them
K = 3
#: servers
N = 5
#: operations per balanced block (divisible by K and by 20, so every read
#: share used below is met exactly within each block)
BLOCK = 60


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    value_len: int
    read_share: float
    #: closed loop: one client per entry, homed at that server
    homes: tuple[int, ...]
    #: if set, the traced run is an open-loop ladder instead of the closed
    #: loop: rung k offers ``base_rate * 2**k`` ops/s cluster-wide
    base_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "live_mixed_64",
            "small values, 50% reads, closed loop of 2: per-message fixed "
            "costs (snapshot, persist, frames, GC gossip) dominate; ec and "
            "byte copies are negligible",
            value_len=64, read_share=0.5, homes=(0, 3),
        ),
        Workload(
            "live_write_4k",
            "4 KiB values, writes only, closed loop of 2: checkpoint size, "
            "wire bytes, digests and encode/re-encode scale with the value "
            "here and nowhere else",
            value_len=4096, read_share=0.0, homes=(0, 3),
        ),
        Workload(
            "live_read_coded_1k",
            "95% reads at the two coded servers, 1 KiB values: every read is "
            "a val-inq fan-out plus decode, so a write-path gain that taxes "
            "reads shows as a loss here",
            value_len=1024, read_share=0.95, homes=(3, 4),
        ),
        Workload(
            "live_open_ladder_64",
            "the only high-concurrency regime, where per-tick batching can "
            "amortise: closed loop of 10 over all 5 servers for the bounded "
            "numbers; the traced run climbs an open-loop ladder of 6*2^k ops/s",
            value_len=64, read_share=0.5, homes=tuple(range(N)) * 2,
            base_rate=6.0,
        ),
    )
}

_INDEX = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(w: Workload, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, _INDEX[w.name], *stream))


def _block(w: Workload, rng: np.random.Generator):
    """One balanced block: exact read share, every key equally often."""
    reads = round(BLOCK * w.read_share)
    kinds = np.array([True] * reads + [False] * (BLOCK - reads))
    keys = np.repeat(np.arange(K), BLOCK // K)
    rng.shuffle(kinds)
    rng.shuffle(keys)
    return kinds, keys


def client_ops(w: Workload, seed: int, client: int):
    """Endless ``(is_read, key, value | None)`` stream for one client.

    Values are seeded random bytes, one per coordinate of GF(257).
    """
    rng = _rng(w, seed, 1, client)
    while True:
        kinds, keys = _block(w, rng)
        for is_read, key in zip(kinds, keys):
            value = None if is_read else rng.integers(
                0, 256, w.value_len, dtype=np.int64
            )
            yield bool(is_read), int(key), value


def preload_values(w: Workload, seed: int) -> list[np.ndarray]:
    """The value each object is given once during set-up."""
    rng = _rng(w, seed, 0)
    return [rng.integers(0, 256, w.value_len, dtype=np.int64) for _ in range(K)]


def arrivals(w: Workload, seed: int, rung: int, duration: float):
    """The open loop's schedule for one rung: ``[(due_s, site, is_read, key,
    value | None)]`` sorted by due time.

    Exactly ``round(rate * duration)`` arrivals at sorted uniform times -- a
    Poisson process conditioned on its count, so the offered load of a rung
    does not vary with the seed while the gaps still do.
    """
    rate = w.base_rate * 2 ** rung
    rng = _rng(w, seed, 2, rung)
    n = round(rate * duration)
    due = np.sort(rng.uniform(0.0, duration, n))
    sites = rng.integers(0, N, n)
    out = []
    ops = []
    while len(ops) < n:
        kinds, keys = _block(w, rng)
        ops.extend(zip(kinds, keys))
    for t, site, (is_read, key) in zip(due, sites, ops):
        value = None if is_read else rng.integers(
            0, 256, w.value_len, dtype=np.int64
        )
        out.append((float(t), int(site), bool(is_read), int(key), value))
    return out


def inputs_digest(w: Workload, seed: int, n: int = 240) -> str:
    """blake2b over the first ``n`` generated inputs of every stream."""
    h = hashlib.blake2b(digest_size=16)

    def feed(*parts):
        for p in parts:
            h.update(np.asarray(p).tobytes() if p is not None else b"-")

    for v in preload_values(w, seed):
        feed(v)
    if w.base_rate:
        for row in arrivals(w, seed, 0, n / w.base_rate):
            feed(*row)
    for c in range(len(w.homes)):
        ops = client_ops(w, seed, c)
        for _ in range(n):
            feed(*next(ops))
    return h.hexdigest()
