"""Supervisor x scrub interaction: quarantine vs. backoff restart.

A scrub-triggered quarantine is modelled as a storage crash: the victim
wipes its volatile protocol state and persists the wiped checkpoint in
the same handler step.  If the *process* then crashes and the supervisor
backoff-restarts it, the restart must resume from that post-quarantine
checkpoint -- two failure paths composing, not fighting:

* **no resurrection** -- the restored incarnation must not bring the
  rotted bytes (or the pre-rot tags the quarantine erased) back from a
  stale checkpoint;
* **no double-wipe** -- the restored checkpoint's integrity seal covers
  the restored codeword, so the next scrub rounds must not quarantine
  again (``integrity_quarantines`` stays at one for the whole episode);
* **heal still works** -- anti-entropy repair re-derives the symbol from
  the peers' recovery sets after the restart, and a reader homed at the
  victim sees every write.

The complementary case: rot that strikes *between* scrub rounds and dies
with the crashed incarnation.  Volatile corruption must not survive into
the restart (the checkpoint predates the rot only in its in-memory copy;
the durable state was sealed before the flip), and no quarantine should
ever fire.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.protocol.repair_core import RepairConfig
from repro.protocol.scrub_core import ScrubConfig
from repro.protocol.server_core import ServerConfig
from repro.runtime.asyncio_rt import AsyncioCluster
from repro.runtime.supervisor import RestartPolicy, Supervisor

VICTIM = 4

#: bounded-convergence budget (seconds) for the post-restart repair pull
REPAIR_WAIT = 5.0


async def _wait_for(predicate, budget: float, step: float = 0.02) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + budget
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(step)
    return predicate()


def _quarantine_entries(server) -> list:
    return [e for e in server.decision_log if e and e[0] == "scrub-quarantine"]


async def _boot(scrub: ScrubConfig | None):
    cluster = AsyncioCluster(
        example1_code(),
        config=ServerConfig(gc_interval=25.0, decision_log=True),
        retry=RetryPolicy(timeout=40.0, max_retries=8),
        # repair paced slower than the whole crash/restart choreography so
        # the heal demonstrably happens *after* the supervised restart
        repair=RepairConfig(digest_interval=1200.0, round_timeout=500.0),
        scrub=scrub,
    )
    await cluster.start()
    supervisor = Supervisor(
        cluster,
        RestartPolicy(initial_delay=0.15, backoff=2.0, max_restarts=5),
    )
    supervisor.start()
    return cluster, supervisor


async def _write_and_settle(cluster):
    """Write both objects and wait until the victim folded a symbol."""
    client = await cluster.add_client(server=0)
    for obj, v in ((0, 7), (1, 9)):
        op = await client.write(obj, cluster.value(v))
        assert not op.failed
    await cluster.quiesce()
    core = cluster.servers[VICTIM].core
    folded = await _wait_for(
        lambda: any(t != core._zero for t in core.M.tagvec.values()), 4.0
    )
    assert folded, "victim never folded a written version into its symbol"
    return client


def _consistency(cluster) -> list[str]:
    zero = cluster.code.zero_value()
    violations = check_causal_consistency(
        cluster.history, zero, raise_on_violation=False
    )
    violations += check_returns_written_values(
        cluster.history, zero, raise_on_violation=False
    )
    return violations


# ----------------------------------------------------------------------
# quarantine first, then a supervised crash-restart


async def _quarantine_then_crash_run():
    cluster, supervisor = await _boot(ScrubConfig(interval=60.0))
    try:
        await _write_and_settle(cluster)
        victim = cluster.servers[VICTIM]
        core = victim.core

        core.corrupt_codeword(seed=11)
        rotted = np.array(core.M.value, copy=True)

        assert await _wait_for(
            lambda: core.stats.integrity_quarantines >= 1, 4.0
        ), "scrub never quarantined the rotted symbol"
        assert core.stats.integrity_quarantines == 1
        assert len(_quarantine_entries(victim)) == 1
        # the quarantine is on disk once the commit that covers it has
        # landed (group commit): wait for that, then the durable
        # checkpoint is the post-quarantine one
        await asyncio.wait_for(victim.committed(), 1.0)
        ckpt = cluster.store.load(VICTIM)
        assert ckpt is not None
        assert all(
            t == core._zero for t in ckpt.state["M"].tagvec.values()
        ), "checkpoint still claims tags the quarantine erased"

        # crash while quarantined; the supervisor backoff-restarts it
        await supervisor.inject_crash(VICTIM)
        assert await _wait_for(
            lambda: not victim.halted and supervisor.restarts.get(VICTIM, 0) >= 1,
            4.0,
        ), "supervisor never restarted the crashed victim"

        # no resurrection: the rotted bytes are gone for good
        assert not np.array_equal(core.M.value, rotted)
        assert core.verify_codeword()
        # no double-wipe: scrub keeps running and stays quiet over several
        # more rounds -- the restored seal covers the restored codeword
        rounds_now = victim.scrub.stats.rounds
        await _wait_for(
            lambda: victim.scrub.stats.rounds >= rounds_now + 3, 2.0
        )
        assert core.stats.integrity_quarantines == 1, (
            "restart re-quarantined an already-quarantined symbol"
        )
        assert len(_quarantine_entries(victim)) == 1
        # detection is counted wherever the seal check fired first (the
        # scrub round or a foreground handler's guard) -- never twice
        assert victim.scrub.stats.corrupt_detected <= 1

        # heal: repair re-derives the erased versions from the peers
        healed = await _wait_for(
            lambda: core.repair_known_tag(0).ts.lamport > 0
            and core.repair_known_tag(1).ts.lamport > 0,
            REPAIR_WAIT,
        )
        probe = await cluster.add_client(server=VICTIM)
        reads = {}
        for obj in (0, 1):
            op = await probe.read(obj)
            assert not op.failed
            reads[obj] = op.value.tolist()
        return healed, reads, _consistency(cluster), dict(supervisor.restarts)
    finally:
        await supervisor.stop()
        await cluster.shutdown()


def test_quarantine_survives_supervised_restart_without_double_wipe():
    healed, reads, violations, restarts = asyncio.run(
        _quarantine_then_crash_run()
    )
    assert healed, "victim never re-learned the erased writes after restart"
    assert reads == {0: [7], 1: [9]}, f"reader at healed victim saw {reads}"
    assert violations == [], f"episode broke consistency: {violations}"
    assert restarts.get(VICTIM) == 1  # one crash, one supervised restart


# ----------------------------------------------------------------------
# rot that dies with the incarnation: no spurious quarantine on restart


async def _rot_dies_with_incarnation_run():
    cluster, supervisor = await _boot(scrub=None)
    try:
        await _write_and_settle(cluster)
        victim = cluster.servers[VICTIM]
        core = victim.core

        core.corrupt_codeword(seed=23)
        rotted = np.array(core.M.value, copy=True)

        # crash before anything reads (and so guards) the rotted symbol:
        # the corruption only ever existed in process memory
        await supervisor.inject_crash(VICTIM)
        assert await _wait_for(
            lambda: not victim.halted and supervisor.restarts.get(VICTIM, 0) >= 1,
            4.0,
        ), "supervisor never restarted the crashed victim"

        assert not np.array_equal(core.M.value, rotted)
        assert core.verify_codeword()
        # the durable checkpoint was sealed before the flip, so recovery
        # is clean and nothing ever needed quarantining
        assert core.stats.integrity_quarantines == 0
        assert _quarantine_entries(victim) == []

        probe = await cluster.add_client(server=VICTIM)
        op = await probe.read(0)
        assert not op.failed
        return op.value.tolist(), _consistency(cluster)
    finally:
        await supervisor.stop()
        await cluster.shutdown()


def test_volatile_rot_dies_with_the_crashed_incarnation():
    value, violations = asyncio.run(_rot_dies_with_incarnation_run())
    assert value == [7], f"restarted victim served {value}"
    assert violations == [], f"episode broke consistency: {violations}"
