"""Open-loop workload driver for the live *sharded* runtime.

Realises the paper's Sec. 4.2 arrival-rate model (lambda requests/s per
site) in wall-clock time against a
:class:`~repro.runtime.sharded_rt.ShardedAsyncioCluster`, the way the
simulator's :class:`~repro.workloads.open_loop.OpenLoopDriver` does in
virtual time.  Each site runs a Poisson arrival task: gaps are drawn from a
per-site stream seeded by ``(seed, site)`` (the simulator driver's
convention, so arrival sequences are reproducible), each arrival checks out
a pooled :class:`~repro.runtime.sharded_rt.ShardedSession` -- growing the
pool on demand up to ``max_clients_per_site``, dropping the arrival if the
pool is exhausted, exactly the open-loop semantics -- and the operation runs
as its own task so a slow response never stalls the arrival process.  Every
arrival targets a string key through the shard router and, while a view
change is in flight, the migration write fence.  ``repro reshard`` drives
it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

__all__ = ["LiveOpenLoopConfig", "ShardedOpenLoopDriver"]


@dataclass
class LiveOpenLoopConfig:
    """``rate_per_site`` is in operations per *real* second."""

    rate_per_site: float = 50.0
    duration: float = 1.0  # seconds of arrivals
    read_ratio: float = 0.5
    seed: int = 0
    max_clients_per_site: int = 32


class ShardedOpenLoopDriver:
    """Poisson arrivals per site against a sharded store; pooled sessions."""

    def __init__(self, store, keys, config: LiveOpenLoopConfig | None = None,
                 sites: list[int] | None = None):
        self.store = store
        self.keys = list(keys)
        self.config = config or LiveOpenLoopConfig()
        self.sites = sites if sites is not None else list(
            range(store.num_servers)
        )
        self.offered = 0
        self.dropped = 0  # arrivals that found no free session
        self.failed = 0  # operations that settled unsuccessfully
        self.latencies_ms: list[float] = []
        self._free: dict[int, list] = {s: [] for s in self.sites}
        self._pool_size: dict[int, int] = {s: 0 for s in self.sites}
        self._op_tasks: list[asyncio.Task] = []

    async def run(self) -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        await asyncio.gather(
            *(self._site_loop(site, start) for site in self.sites)
        )
        if self._op_tasks:
            await asyncio.gather(*self._op_tasks)
        return self.summary(loop.time() - start)

    async def _site_loop(self, site: int, start: float) -> None:
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, site))
        mean_gap = 1.0 / cfg.rate_per_site
        loop = asyncio.get_running_loop()
        t = 0.0
        while True:
            t += float(rng.exponential(mean_gap))
            if t > cfg.duration:
                return
            delay = start + t - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.offered += 1
            session, create = self._acquire(site)
            if session is None and not create:
                self.dropped += 1
                continue
            key = self.keys[int(rng.integers(len(self.keys)))]
            is_read = bool(rng.random() < cfg.read_ratio)
            value = None if is_read else int(rng.integers(1, 100))
            self._op_tasks.append(asyncio.ensure_future(
                self._do_op(site, session, key, is_read, value)
            ))

    def _acquire(self, site: int):
        free = self._free[site]
        if free:
            return free.pop(), False
        if self._pool_size[site] < self.config.max_clients_per_site:
            self._pool_size[site] += 1  # reserved before the await in _do_op
            return None, True
        return None, False

    async def _do_op(self, site, session, key, is_read: bool, value):
        loop = asyncio.get_running_loop()
        if session is None:
            session = self.store.session(site=site)
        t0 = loop.time()
        try:
            if is_read:
                await session.get(key)
            else:
                await session.put(key, value)
        except Exception:
            self.failed += 1
            return
        finally:
            self._free[site].append(session)
        self.latencies_ms.append((loop.time() - t0) * 1000.0)

    def summary(self, elapsed_s: float) -> dict:
        lats = np.asarray(self.latencies_ms, dtype=float)
        completed = len(lats)
        pct = (
            {
                "p50_ms": float(np.percentile(lats, 50)),
                "p99_ms": float(np.percentile(lats, 99)),
                "p999_ms": float(np.percentile(lats, 99.9)),
            }
            if completed
            else {"p50_ms": None, "p99_ms": None, "p999_ms": None}
        )
        return {
            "offered": self.offered,
            "completed": completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "elapsed_s": elapsed_s,
            "ops_per_s": completed / elapsed_s if elapsed_s > 0 else 0.0,
            **pct,
        }
