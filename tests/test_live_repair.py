"""Live-runtime repair: bounded convergence after irrecoverable state loss.

The scenario the ARQ provably cannot fix: a server crashes, its durable
checkpoint is wiped, and it restarts from the initial state.  Its peers'
channels fast-forward past everything the victim had already acked (acked
frames were pruned and are never replayed), so -- absent new writes --
retransmission alone leaves the victim stale forever.  With the repair
overlay attached, the victim's digest gossip exposes the gap and one pull
round re-installs the missed writes and re-encodes its symbol, within a
bounded number of digest intervals, under the online causal auditor with
zero violations.
"""

from __future__ import annotations

import asyncio

from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.failure_detector import FailureDetectorConfig
from repro.protocol.repair_core import RepairConfig
from repro.protocol.server_core import ServerConfig
from repro.runtime.live_chaos import live_cluster, verdict

VICTIM = 4

#: bounded-convergence budget (seconds): a handful of digest intervals
#: plus one pull round at the configured 150 ms cadence
REPAIR_WAIT = 3.0


async def _wiped_restart_run(repair: RepairConfig | None):
    async with live_cluster(
        example1_code(),
        config=ServerConfig(gc_interval=25.0),
        retry=RetryPolicy(timeout=40.0, max_retries=8),
        detector=FailureDetectorConfig(heartbeat_interval=25.0,
                                       suspect_after=150.0),
        repair=repair,
    ) as (cluster, auditor, _):
        client = await cluster.add_client(server=0)
        op = await client.write(0, cluster.value(4))
        assert not op.failed
        await cluster.quiesce()

        # crash the victim AND wipe its checkpoint: restart = total loss
        await cluster.kill_server(VICTIM)
        cluster.store.wipe(VICTIM)
        op = await client.write(0, cluster.value(8))
        assert not op.failed
        op = await client.write(1, cluster.value(6))
        assert not op.failed
        await asyncio.sleep(0.3)
        await cluster.restart_server(VICTIM)

        # no further writes: convergence must come from repair (or never)
        await asyncio.sleep(REPAIR_WAIT)

        victim_core = cluster.servers[VICTIM].core
        recovered = (
            victim_core.repair_known_tag(0).ts.lamport > 0
            and victim_core.repair_known_tag(1).ts.lamport > 0
        )
        stats = cluster.repair_stats()
        return recovered, stats, await verdict(cluster, auditor)


def test_wiped_restart_stays_stale_without_repair():
    recovered, stats, violations = asyncio.run(
        _wiped_restart_run(repair=None)
    )
    assert not recovered, (
        "victim converged without repair: the ARQ replayed acked frames?"
    )
    assert stats == {}
    assert violations == []


def test_wiped_restart_converges_bounded_with_repair():
    recovered, stats, violations = asyncio.run(
        _wiped_restart_run(
            repair=RepairConfig(digest_interval=150.0, round_timeout=500.0),
        )
    )
    assert recovered, "victim still stale after the repair budget"
    assert stats["rounds_completed"] >= 1
    assert stats["entries_installed"] >= 1
    assert stats["bits_shipped"] > 0
    assert violations == [], f"repair broke consistency: {violations}"
