"""ARQ reconnect edge cases on the live runtime.

The peer channels' replay-on-reconnect + receiver-watermark design has
three corners that only show up under faults:

* **duplicate reconnect races** -- connections reset again while the
  previous redial is still in flight;
* **replay with retransmissions in flight** -- the chaos retransmission
  loop re-sends the unacked tail while a reset triggers a full replay of
  the same frames; the receiver watermark must keep delivery exactly-once;
* **watermark recovery** -- a server restarts from a checkpoint whose
  receive watermark predates frames it had already acknowledged; the
  sender has pruned them, so the receiver must fast-forward (via the
  hello's acked base) instead of stalling forever.
"""

from __future__ import annotations

import asyncio

from repro.consistency.causal import check_causal_consistency
from repro.ec.codes import example1_code
from repro.protocol.client_core import RetryPolicy
from repro.runtime.asyncio_rt import AsyncioCluster
from repro.runtime.chaos_rt import LiveFaultInjector
from repro.sim.network import LinkFaults


async def _boot(code, chaos=None):
    cluster = AsyncioCluster(
        code,
        retry=RetryPolicy(timeout=40.0, backoff=1.5, max_retries=8),
        chaos=chaos,
    )
    await cluster.start()
    client = await cluster.add_client(0)
    return cluster, client


def test_duplicate_reconnect_races():
    code = example1_code()

    async def run():
        cluster, client = await _boot(code)
        for k in range(3):
            op = await client.write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        # reset the same server twice back-to-back: the second reset lands
        # while the first redial is still in flight
        cluster.reset_server(1)
        cluster.reset_server(1)
        cluster.reset_server(0)
        op = await client.write(0, cluster.value(9))
        assert not op.failed
        # and again mid-reconnect, interleaved with traffic
        cluster.reset_server(0)
        op = await client.read(0)
        assert not op.failed
        await cluster.quiesce()
        check_causal_consistency(cluster.history, code.zero_value())
        await cluster.shutdown()

    asyncio.run(run())


def test_replay_with_retransmissions_in_flight():
    code = example1_code()
    faults = LinkFaults(drop_prob=0.3, dup_prob=0.15, seed=5)
    injector = LiveFaultInjector(faults, jitter_ms=3.0)

    async def run():
        cluster, client = await _boot(code, chaos=injector)
        ops = []
        for k in range(4):
            ops.append(await client.write(k % code.K, cluster.value(k + 1)))
        # every server's connections reset while dropped frames sit in the
        # unacked tails and the retransmission loop is re-sending them:
        # redial replays overlap in-flight retransmissions
        for i in range(code.N):
            cluster.reset_server(i)
        for k in range(4):
            ops.append(
                await client.write(k % code.K, cluster.value(10 + k))
            )
        injector.disable()
        await cluster.quiesce()
        assert all(not op.failed for op in ops)
        # exactly-once delivery held: the history is causally consistent
        # and duplicates/replays never double-applied a write
        check_causal_consistency(cluster.history, code.zero_value())
        assert injector.dropped > 0  # the chaos really bit
        await cluster.shutdown()

    asyncio.run(run())


def test_watermark_recovery_when_checkpoint_predates_acked_seq():
    code = example1_code()

    async def run():
        cluster, client = await _boot(code)
        for k in range(4):
            op = await client.write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        await cluster.quiesce()

        victim = 1
        acked = {j: r.last for j, r in cluster.servers[victim]._recv.items()}
        peers = [j for j, n in acked.items() if n > 0]
        assert peers, "no peer traffic reached the victim"

        await cluster.kill_server(victim)
        # rewind the on-disk receive watermarks below what the victim
        # already acked: the senders have pruned that range, so a naive
        # restart would wait forever for frames that can never come
        checkpoint = cluster.store.load(victim)
        for j in peers:
            checkpoint.transport["recv"][j] = max(
                0, checkpoint.transport["recv"][j] - 2
            )
        cluster.store.persist(checkpoint)
        await cluster.restart_server(victim)

        # new traffic through the rewound channels must still deliver:
        # the hello's acked base fast-forwards the watermark past the gap
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        j = peers[0]
        while cluster.servers[victim]._recv[j].last < acked[j]:
            assert loop.time() < deadline, (
                f"channel {j} -> {victim} stalled after watermark rewind"
            )
            op = await client.write(
                int(loop.time() * 1000) % code.K, cluster.value(77)
            )
            assert not op.failed
            await asyncio.sleep(0.02)

        await cluster.quiesce()
        check_causal_consistency(cluster.history, code.zero_value())
        await cluster.shutdown()

    asyncio.run(run())


def test_restart_racing_inflight_kill_is_serialized():
    code = example1_code()

    async def run():
        cluster, client = await _boot(code)
        for k in range(3):
            op = await client.write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        await cluster.quiesce()
        victim = cluster.servers[2]
        # schedule the restart while the kill coroutine is still mid-flight
        # (a supervisor polling ``halted`` does exactly this): the lifecycle
        # lock must run the kill to completion first, then the restart --
        # interleaved, the kill's tail would wipe the restored core and
        # leave a zombie listener acking frames it never applies
        kill = asyncio.ensure_future(victim.kill())
        await asyncio.sleep(0)  # let the kill start and hold the lock
        restart = asyncio.ensure_future(victim.restart())
        await asyncio.gather(kill, restart)
        assert not victim.halted
        assert victim._channels, "restart's channels were torn down"
        op = await client.write(0, cluster.value(9))
        assert not op.failed
        await cluster.quiesce()
        check_causal_consistency(cluster.history, code.zero_value())
        await cluster.shutdown()

    asyncio.run(run())


def test_acked_base_tracked_and_restored():
    code = example1_code()

    async def run():
        cluster, client = await _boot(code)
        for k in range(3):
            op = await client.write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        await cluster.quiesce()
        sender = cluster.servers[0]
        bases = {
            j: ch.arq.acked
            for j, ch in sender._channels.items()
            if ch.arq.acked > 0
        }
        assert bases, "no channel ever saw an ack"
        # a restart rederives each channel's acked base from the
        # checkpoint's send state (everything below the unacked tail).
        # The checkpoint may predate the very last ack, so the restored
        # base can trail the live one -- but never overstate it, and the
        # unacked tail must sit directly above it.
        await cluster.kill_server(0)
        await cluster.restart_server(0)
        restored = cluster.servers[0]._channels
        assert any(restored[j].arq.acked > 0 for j in bases)
        for j, base in bases.items():
            arq = restored[j].arq
            assert arq.acked <= base
            if arq.unacked:
                assert arq.unacked[0][0] == arq.acked + 1
        op = await client.write(0, cluster.value(50))
        assert not op.failed
        await cluster.quiesce()
        await cluster.shutdown()

    asyncio.run(run())


def test_fresh_incarnation_is_not_mistaken_for_a_duplicate_stream():
    """A server that lost its disk numbers its frames from 1 again.  Its
    peers still hold the dead incarnation's receive watermark; they must
    rewind it (the hello carries the dialer's send sequence) instead of
    dropping -- and acking, so the sender prunes them -- its first frames
    as duplicates."""
    code = example1_code()

    async def run():
        cluster, client = await _boot(code)
        for k in range(6):  # the victim's home client makes it send frames
            op = await client.write(k % code.K, cluster.value(k + 1))
            assert not op.failed
        await cluster.quiesce()
        victim = 0
        watermarks = {
            s.node_id: s._recv[victim].last
            for s in cluster.servers if s.node_id != victim
        }
        assert min(watermarks.values()) >= 6

        await client.close()
        await cluster.kill_server(victim)
        cluster.store.wipe(victim)  # disk loss: it restarts empty, seq 0
        await cluster.restart_server(victim)
        assert all(
            ch.arq.seq == 0 for ch in cluster.servers[victim]._channels.values()
        )

        writer = await cluster.add_client(victim)
        op = await writer.write(1, cluster.value(99))
        assert not op.failed
        await cluster.quiesce()
        # the one App per peer was delivered, not swallowed (whether the
        # protocol then applies a write stamped by a clock that rolled
        # back to zero is the repair overlay's business, not the ARQ's)
        for s in cluster.servers:
            if s.node_id == victim:
                continue
            arq = cluster.servers[victim]._channels[s.node_id].arq
            assert s._recv[victim].last == arq.seq >= 1
            assert not arq.unacked
        await cluster.shutdown()

    asyncio.run(run())
