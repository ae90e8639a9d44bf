"""Open-loop workload driver for the live asyncio runtime.

The simulator's :class:`~repro.workloads.open_loop.OpenLoopDriver` realises
the paper's Sec. 4.2 arrival-rate model (lambda requests/s per site) in
virtual time; this module does the same against a real
:class:`~repro.runtime.asyncio_rt.AsyncioCluster` in wall-clock time, and is
the engine behind ``repro bench-macro`` and
``benchmarks/test_macro_throughput.py``.

Each site runs a Poisson arrival task: gaps are drawn from a per-site stream
seeded by ``(seed, site)`` (the same convention as the simulator driver, so
arrival sequences are reproducible), each arrival checks out a pooled client
-- growing the pool on demand up to ``max_clients_per_site``, dropping the
arrival if the pool is exhausted, exactly the open-loop semantics -- and the
operation runs as its own task so a slow response never stalls the arrival
process.

:func:`run_macro_sweep` drives a fresh cluster at each requested arrival
rate and emits the ``BENCH_macro.json`` payload: sustained ops/s,
p50/p99/p999 latency, and the frames-per-op / flushes-per-op wire metrics,
including an unbatched comparison lane that quantifies what the per-tick
flush coalescing saves.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LiveOpenLoopConfig",
    "LiveOpenLoopDriver",
    "run_macro_sweep",
]

#: schema tag for the BENCH_macro.json payload
MACRO_BENCH_SCHEMA = "repro-macro-bench/v1"


@dataclass
class LiveOpenLoopConfig:
    """``rate_per_site`` is in operations per *real* second."""

    rate_per_site: float = 50.0
    duration: float = 1.0  # seconds of arrivals
    read_ratio: float = 0.5
    seed: int = 0
    max_clients_per_site: int = 32
    num_objects: int | None = None  # default: every object of the code


class LiveOpenLoopDriver:
    """Poisson arrivals per site against a live cluster; pooled clients."""

    def __init__(self, cluster, config: LiveOpenLoopConfig | None = None,
                 sites: list[int] | None = None):
        self.cluster = cluster
        self.config = config or LiveOpenLoopConfig()
        self.sites = sites if sites is not None else list(
            range(cluster.num_servers)
        )
        self.offered = 0
        self.dropped = 0  # arrivals that found no free client
        self.failed = 0  # operations that settled unsuccessfully
        self.latencies_ms: list[float] = []
        self._free: dict[int, list] = {s: [] for s in self.sites}
        self._pool_size: dict[int, int] = {s: 0 for s in self.sites}
        self._op_tasks: list[asyncio.Task] = []
        self._num_objects = self.config.num_objects or cluster.code.K

    async def run(self) -> dict:
        """Run the arrival phase, await every in-flight op, summarize."""
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
            client, create = self._acquire(site)
            if client is None and not create:
                self.dropped += 1
                continue
            obj = int(rng.integers(self._num_objects))
            is_read = bool(rng.random() < cfg.read_ratio)
            value = None if is_read else self.cluster.value(
                int(rng.integers(1, 100))
            )
            self._op_tasks.append(asyncio.ensure_future(
                self._do_op(site, client, obj, is_read, value)
            ))

    def _acquire(self, site: int):
        """A free pooled client, a grow-the-pool ticket, or neither."""
        free = self._free[site]
        if free:
            return free.pop(), False
        if self._pool_size[site] < self.config.max_clients_per_site:
            self._pool_size[site] += 1  # reserved before the await in _do_op
            return None, True
        return None, False

    async def _do_op(self, site, client, obj: int, is_read: bool, value):
        loop = asyncio.get_running_loop()
        if client is None:
            client = await self.cluster.add_client(server=site)
        t0 = loop.time()
        try:
            op = await (
                client.read(obj) if is_read else client.write(obj, value)
            )
        except Exception:
            self.failed += 1
            return
        finally:
            self._free[site].append(client)
        if op.failed:
            self.failed += 1
        else:
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


async def _run_lane(code, rate: float, batch: bool, *, duration: float,
                    read_ratio: float, seed: int, gc_interval: float) -> dict:
    from ..protocol.client_core import RetryPolicy
    from ..protocol.server_core import ServerConfig
    from ..runtime.asyncio_rt import AsyncioCluster

    cluster = AsyncioCluster(
        code,
        config=ServerConfig(gc_interval=gc_interval),
        retry=RetryPolicy(timeout=250.0, max_retries=6),
        batch=batch,
    )
    await cluster.start()
    try:
        driver = LiveOpenLoopDriver(
            cluster,
            LiveOpenLoopConfig(
                rate_per_site=rate / cluster.num_servers,
                duration=duration,
                read_ratio=read_ratio,
                seed=seed,
            ),
        )
        result = await driver.run()
        await cluster.quiesce()
        stats = cluster.frame_stats()
    finally:
        await cluster.shutdown()
    done = max(result["completed"], 1)
    return {
        "rate": rate,
        "batch": batch,
        **result,
        **stats,
        "frames_per_op": stats["frames_sent"] / done,
        "flushes_per_op": stats["flushes"] / done,
    }


def run_macro_sweep(
    code=None,
    rates: tuple[float, ...] = (100.0, 200.0),
    duration: float = 1.5,
    read_ratio: float = 0.5,
    seed: int = 0,
    value_len: int = 64,
    gc_interval: float = 50.0,
    compare_unbatched: bool = True,
) -> dict:
    """Drive a fresh live cluster at each rate; return the macro payload.

    ``rates`` are cluster-wide arrival rates in ops/s, split evenly across
    sites.  With ``compare_unbatched`` an extra lane re-runs the first rate
    with ``batch=False`` (one socket write per frame) so the
    flushes-per-op column shows what the coalesced flush path saves.
    """
    if code is None:
        from ..ec.codes import example1_code
        from ..ec.field import PrimeField

        code = example1_code(PrimeField(257), value_len=value_len)
    lanes = [(rate, True) for rate in rates]
    if compare_unbatched:
        lanes.append((rates[0], False))
    results = [
        asyncio.run(_run_lane(
            code, rate, batch,
            duration=duration, read_ratio=read_ratio, seed=seed,
            gc_interval=gc_interval,
        ))
        for rate, batch in lanes
    ]
    return {
        "schema": MACRO_BENCH_SCHEMA,
        "unix_time": time.time(),
        "code": code.name,
        "value_len": code.value_len,
        "servers": code.N,
        "duration_s": duration,
        "read_ratio": read_ratio,
        "seed": seed,
        "results": results,
    }
