"""Live acceptance: epoch-fenced dynamic membership under traffic.

The tentpole scenario on the asyncio runtime: an open-loop workload runs
while one server's machine dies *permanently*; the failure detector's
confirmed-dead escalation auto-proposes a replace, the commit fences the
old epoch at the wire, the replacement inherits the dead server's
endpoint and is healed by anti-entropy -- all with the online causal
auditor attached and zero violations, and with the GC watermark
machinery demonstrably advancing past the cutover epoch (the replacement
participates in the deletion agreement like a founding member).

Also here: the join/leave paths (a joiner serving reads after state
transfer, removal retiring a server without stranding data), the wire
fence's catch-up chain for a server that restarts from a checkpoint
predating a commit, and per-shard reconfiguration of a sharded store
(one shard's epoch moves, the neighbour's does not).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from repro.ec.codes import example1_code
from repro.ec.field import PrimeField
from repro.protocol.client_core import RetryPolicy
from repro.protocol.failure_detector import FailureDetectorConfig
from repro.protocol.repair_core import RepairConfig
from repro.protocol.server_core import ServerConfig
from repro.runtime.asyncio_rt import AsyncioCluster
from repro.runtime.live_chaos import live_cluster, verdict
from repro.runtime.sharded_rt import ShardedAsyncioCluster

VICTIM = 1

#: bounded budget (seconds) for anti-entropy to heal an empty incarnation
HEAL_WAIT = 6.0

RETRY = RetryPolicy(timeout=250.0, max_retries=6)


async def _wait_for(predicate, budget: float, step: float = 0.05) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + budget
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(step)
    return predicate()


def _consistency(cluster) -> list[str]:
    zero = cluster.code.zero_value()
    violations = check_causal_consistency(
        cluster.history, zero, raise_on_violation=False
    )
    violations += check_returns_written_values(
        cluster.history, zero, raise_on_violation=False
    )
    return violations


async def _wait_heal(cluster, server: int) -> bool:
    core = cluster.servers[server].core
    return await _wait_for(
        lambda: all(
            core.repair_known_tag(k).ts.lamport > 0
            for k in range(cluster.code.K)
        ),
        HEAL_WAIT,
    )


# ----------------------------------------------------------------------
# the acceptance scenario: auto-replace under open-loop traffic + chaos

# CI's live-reconfig lane widens the seed sweep via LIVE_RECONFIG_SEEDS
RECONFIG_SEEDS = [
    int(s)
    for s in os.environ.get("LIVE_RECONFIG_SEEDS", "1").split(",")
]


async def _acceptance_run(seed: int):
    code = example1_code(PrimeField(257))
    async with live_cluster(
        code,
        config=ServerConfig(gc_interval=50.0),
        retry=RETRY,
        repair=RepairConfig(digest_interval=60.0),
        detector=FailureDetectorConfig(
            heartbeat_interval=25.0, suspect_after=60.0, confirm_after=250.0
        ),
        auto_replace=True,
    ) as (cluster, auditor, _):
        clients = [
            await cluster.add_client(
                i, node_id=100 + i, failover=(i == VICTIM)
            )
            for i in range(code.N)
        ]

        stop = asyncio.Event()
        completed = {"pre": 0, "post": 0}
        phase = ["pre"]

        async def traffic(client, seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                k = int(rng.integers(code.K))
                try:
                    if rng.random() < 0.6:
                        op = await client.write(
                            k, cluster.value(int(rng.integers(1, 200)))
                        )
                    else:
                        op = await client.read(k)
                    if not op.failed:
                        completed[phase[0]] += 1
                except Exception:
                    pass  # a client whose home is mid-replace may time out
                await asyncio.sleep(0.004)

        tasks = [
            asyncio.ensure_future(traffic(c, 1000 * seed + i))
            for i, c in enumerate(clients)
        ]
        try:
            await asyncio.sleep(0.3)  # warm-up: writes on every home
            old = cluster.servers[VICTIM]
            await cluster.kill_server(VICTIM, forever=True)

            replaced = await _wait_for(
                lambda: cluster.cfg_epoch >= 1
                and cluster.servers[VICTIM] is not old
                and not cluster.servers[VICTIM].halted,
                10.0,
            )
            assert replaced, "confirmed-dead never escalated into a replace"
            phase[0] = "post"
            new = cluster.servers[VICTIM]
            assert new.port == old.port  # endpoint inherited: clients keep working
            assert ("replace", 1, tuple(range(code.N)), None) in [
                (n, e, m, j) for n, e, m, j in cluster.reconfig_log
            ]
            assert any(
                kind == "dead" and peer == VICTIM
                for _, peer, kind in cluster.detector_transitions
            )

            # transient chaos on a bystander while the group is post-cutover
            await cluster.kill_server(3)
            await asyncio.sleep(0.1)
            await cluster.restart_server(3)

            await asyncio.sleep(0.5)  # post-cutover traffic
            stop.set()
            await asyncio.gather(*tasks, return_exceptions=True)

            assert completed["pre"] > 0 and completed["post"] > 0

            assert await _wait_heal(cluster, VICTIM), (
                "replacement still stale after the repair budget"
            )
            # the replacement serves reads at the dead server's own endpoint
            probe = await cluster.add_client(VICTIM, node_id=500)
            for k in range(code.K):
                op = await probe.read(k)
                assert not op.failed, (k, op.error)

            # GC watermarks advance past the cutover: the replacement takes
            # part in the deletion agreement, so its tmax floor rises above
            # the zero tags it booted with
            gc_advanced = await _wait_for(
                lambda: sum(
                    t.ts.lamport for t in new.core.tmax.values()
                ) > 0,
                HEAL_WAIT,
            )
            assert gc_advanced, "replacement's GC watermark never advanced"

            # the zombie incarnation can never rejoin
            with pytest.raises(RuntimeError):
                await old.restart()

            await cluster.quiesce()
            return await verdict(cluster, auditor), len(cluster.history.operations)
        finally:
            stop.set()
            for t in tasks:
                t.cancel()


@pytest.mark.parametrize("seed", RECONFIG_SEEDS)
def test_auto_replace_acceptance_under_traffic(seed):
    violations, ops = asyncio.run(_acceptance_run(seed))
    assert violations == [], f"reconfiguration broke consistency: {violations}"
    assert ops > 0


# ----------------------------------------------------------------------
# join and leave


async def _add_remove_run():
    code = example1_code(PrimeField(257))
    cluster = AsyncioCluster(
        code,
        config=ServerConfig(gc_interval=50.0),
        retry=RETRY,
        repair=RepairConfig(digest_interval=60.0),
    )
    await cluster.start()
    clients = [
        await cluster.add_client(i, node_id=100 + i) for i in range(code.N)
    ]
    try:
        for k in range(code.K):
            op = await clients[k % code.N].write(k, cluster.value(k + 1))
            assert not op.failed, op.error

        joiner = await cluster.add_server()
        jid = joiner.core.node_id
        assert jid == code.N
        assert cluster.cfg_epoch == 1
        assert cluster.current_code.N == code.N + 1
        # non-minting: the joiner keeps the founding clock dimension
        assert joiner.core.clock_dim == code.N
        assert "join(seed=" in joiner.core.code.name

        assert await _wait_heal(cluster, jid), "joiner never healed"
        cj = await cluster.add_client(jid, node_id=300)
        for k in range(code.K):
            op = await cj.read(k)
            assert not op.failed, (k, op.error)
            assert int(op.value[0]) == k + 1, (k, op.value)

        # writes in the extended configuration land everywhere
        for k in range(code.K):
            op = await clients[k % code.N].write(k, cluster.value(10 + k))
            assert not op.failed, op.error

        await cluster.remove_server(jid)
        assert cluster.cfg_epoch == 2
        assert jid in cluster.retired
        assert cluster.servers[jid].halted
        # the survivors are validated as recovery sets before the commit,
        # so every object is still readable
        op = await clients[0].read(0)
        assert not op.failed
        assert int(op.value[0]) == 10

        assert [n for n, _, _, _ in cluster.reconfig_log] == ["add", "remove"]
        await cluster.quiesce()
        return _consistency(cluster)
    finally:
        await cluster.shutdown()


def test_live_add_then_remove_joiner():
    violations = asyncio.run(_add_remove_run())
    assert violations == [], f"join/leave broke consistency: {violations}"


async def _remove_validation_run():
    code = example1_code(PrimeField(257))
    cluster = AsyncioCluster(code, retry=RETRY)
    await cluster.start()
    try:
        # for example1, servers {0, 2} are jointly load-bearing: with both
        # gone some object has no recovery set, so the second removal must
        # be refused with nothing staged
        await cluster.remove_server(0)
        with pytest.raises(ValueError):
            await cluster.remove_server(2)
        assert cluster.cfg_epoch == 1
        assert cluster.retired == {0}
    finally:
        await cluster.shutdown()


def test_remove_refuses_to_strand_objects():
    asyncio.run(_remove_validation_run())


# ----------------------------------------------------------------------
# wire fencing: a lagging restart catches up from the fence response


async def _fence_catchup_run():
    code = example1_code(PrimeField(257))
    cluster = AsyncioCluster(
        code,
        config=ServerConfig(gc_interval=50.0),
        retry=RETRY,
        repair=RepairConfig(digest_interval=60.0),
    )
    await cluster.start()
    client = await cluster.add_client(0, node_id=100)
    try:
        for k in range(code.K):
            op = await client.write(k, cluster.value(k + 1))
            assert not op.failed

        # server 3 crashes normally and will restart *by itself* from its
        # checkpoint (a standalone process resuming), missing the commit
        await cluster.kill_server(3)

        await cluster.kill_server(VICTIM, forever=True)
        await cluster.replace_server(VICTIM)
        assert cluster.cfg_epoch == 1

        lagger = cluster.servers[3]
        await lagger.restart()  # raw restart: no coordinator replay
        assert lagger.core.cfg_epoch == 0  # checkpoint predates the commit

        # its stale-epoch hellos are fenced; the fence response hands it
        # the commit chain and it redials at the new epoch
        caught_up = await _wait_for(
            lambda: lagger.core.cfg_epoch == cluster.cfg_epoch, 6.0
        )
        assert caught_up, "lagging server never installed the fence chain"
        fenced = sum(
            s.reconfig.stats.frames_fenced
            for s in cluster.servers
            if s is not lagger
        )
        assert fenced > 0, "no hello was ever fenced"

        assert await _wait_heal(cluster, VICTIM), "replacement never healed"
        probe = await cluster.add_client(3, node_id=200)
        for k in range(code.K):
            op = await probe.read(k)
            assert not op.failed, (k, op.error)
            assert int(op.value[0]) == k + 1
        await cluster.quiesce()
        return _consistency(cluster)
    finally:
        await cluster.shutdown()


def test_wire_fence_hands_lagging_server_the_commit_chain():
    violations = asyncio.run(_fence_catchup_run())
    assert violations == [], f"fence catch-up broke consistency: {violations}"


# ----------------------------------------------------------------------
# sharded: one shard reconfigures, the neighbour's epoch stays put


KEYS = [f"key{i:02d}" for i in range(8)]


async def _sharded_replace_run():
    store = ShardedAsyncioCluster(
        KEYS,
        num_shards=2,
        slots_per_shard=len(KEYS),
        value_len=1,
        retry=RETRY,
        audit=True,
        repair=RepairConfig(digest_interval=60.0),
    )
    await store.start()
    try:
        session = store.session(site=0)
        last = {}
        for i, key in enumerate(KEYS):
            await session.put(key, 10 + i)
            last[key] = 10 + i

        victim_shard = store.router.ring.lookup(KEYS[0])
        other_shard = next(
            s for s in store.shards if s != victim_shard
        )
        await store.kill_server(victim_shard, 2, forever=True)
        new = await store.reconfig_replace(victim_shard, 2)

        assert store.shards[victim_shard].cfg_epoch == 1
        # membership is per shard: the neighbour group never moved
        assert store.shards[other_shard].cfg_epoch == 0
        # the replacement got the shard's audit identity before streaming
        assert new.audit_shard == victim_shard
        assert new.audit_node == new.core.node_id + victim_shard * 1000

        await asyncio.sleep(2.0)  # heal budget for the empty incarnation
        for key in KEYS:
            op = await session.get(key)
            assert not op.failed
            assert int(op.value[0]) == last[key], (key, op.value)
        await store.quiesce()
        return store.finalize_audit()
    finally:
        await store.shutdown()


def test_sharded_reconfig_replaces_within_one_shard():
    verdicts = asyncio.run(_sharded_replace_run())
    assert verdicts == [], f"sharded replace broke the audit: {verdicts}"
