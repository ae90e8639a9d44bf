"""Cross-shard session guarantees: RYW + monotone reads in both runtimes.

A :class:`~repro.runtime.sharded_rt.ShardedSession` is ONE logical session
whose operations land on different coding groups; the per-shard session
floors (plus shared client identity) must make read-your-writes and
monotone reads hold across the shard boundary -- including when the
session's home site crashes and its per-shard clients fail over to other
servers carrying the accumulated floors.

The simulator's counterpart, on every placement of the key-value store,
is ``tests/test_kv_store.py``; its ring cases also run here, beside the
live run (a small fixed workload).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.protocol.client_core import RetryPolicy
from tests import test_kv_store as shared

KEYS = [f"key{i}" for i in range(10)]


def _pick_cross_shard_keys(router):
    """One key from each of two different shards."""
    a = router.keys_on(0)
    b = router.keys_on(1)
    assert a and b, "keyspace does not straddle both shards"
    return a[0], b[0]


# ---------------------------------------------------------------------------
# simulator: the ring placement's cases of ``test_kv_store.py``


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sim_session_alternating_across_shards(seed):
    shared.test_session_reads_its_writes_across_groups("ring", seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_sim_session_ryw_survives_site_failover(seed):
    shared.test_session_ryw_survives_site_failover("ring", seed)


# ---------------------------------------------------------------------------
# live asyncio runtime


def test_live_session_alternating_and_failover():
    from repro.runtime.sharded_rt import ShardedAsyncioCluster

    async def run():
        store = ShardedAsyncioCluster(
            KEYS,
            num_shards=2,
            slots_per_shard=len(KEYS),
            value_len=1,
            retry=RetryPolicy(timeout=60.0, backoff=1.5, max_retries=6),
        )
        await store.start()
        try:
            session = store.session(site=0, failover=True)
            ka, kb = _pick_cross_shard_keys(store.router)
            rng = np.random.default_rng(7)
            last: dict[str, int] = {}
            for i in range(8):
                key, other = (ka, kb) if i % 2 == 0 else (kb, ka)
                value = int(rng.integers(1, 90))
                await session.put(key, value)
                last[key] = value
                assert int((await session.get(key)).value[0]) == last[key]
                if other in last:
                    assert int((await session.get(other)).value[0]) == last[other]
            # crash the session's home site in every shard: reads must
            # fail over and still satisfy RYW across both shards
            await store.kill_site(0)
            ra = await session.get(ka)
            assert not ra.failed and int(ra.value[0]) == last[ka]
            rb = await session.get(kb)
            assert not rb.failed and int(rb.value[0]) == last[kb]
            switched = [
                c
                for c in session._clients.values()
                if getattr(c, "switch_log", [])
            ]
            assert switched, "expected at least one client failover"
        finally:
            await store.shutdown()

    asyncio.run(run())
