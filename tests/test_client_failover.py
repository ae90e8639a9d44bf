"""Client failover: deterministic core tests plus a live-cluster exercise.

The sans-I/O :class:`~repro.protocol.client_core.ClientCore` is driven
with explicit timer events (fully deterministic); the live test kills a
client's home server under a running failure detector and checks the
read path switches servers and completes.
"""

from __future__ import annotations

import asyncio
import socket

import numpy as np

from repro.ec.codes import example1_code
from repro.core.messages import App, ReadRequest, ReadReturn
from repro.core.tags import Tag, VectorClock
from repro.protocol.client_core import (
    ClientCore,
    HomeServerUnavailable,
    RetryPolicy,
)
from repro.protocol.effects import (
    CancelTimerEffect,
    HomeServerSwitchEffect,
    OpSettledEffect,
    ReplyEffect,
    SendEffect,
)
from repro.protocol.failure_detector import FailureDetectorConfig
from repro.protocol.server_core import ServerCore
from repro.runtime.asyncio_rt import (
    CLIENT_START_TIMEOUT,
    AsyncioClient,
    AsyncioCluster,
)

QUICK = RetryPolicy(timeout=10.0, backoff=1.0, max_retries=1)


def _sends(effects):
    return [e for e in effects if isinstance(e, SendEffect)]


def _switches(effects):
    return [e for e in effects if isinstance(e, HomeServerSwitchEffect)]


# ----------------------------------------------------------------------
# deterministic core tests


def test_read_fails_over_after_retries_exhausted():
    core = ClientCore(10, 0, retry=QUICK, failover=[1, 2])
    op, effects = core.start_read(0, 0.0)
    assert [e.dst for e in _sends(effects)] == [0]
    core.handle_timer(("retry", op.opid, 1), 10.0)  # retry on server 0
    effects = core.handle_timer(("retry", op.opid, 2), 20.0)  # give up on 0
    switch = _switches(effects)
    assert len(switch) == 1
    assert (switch[0].old, switch[0].new, switch[0].opid) == (0, 1, op.opid)
    assert core.server_id == 1
    assert [e.dst for e in _sends(effects)] == [1]  # re-sent to the new home
    # the new server answers: the operation completes, not fails
    ret = ReadReturn(op.opid, np.zeros(2))
    effects = core.handle_message(1, ret, 25.0)
    settled = [e for e in effects if isinstance(e, OpSettledEffect)]
    assert settled and not settled[0].failed
    assert not op.failed


def test_read_fails_typed_after_every_candidate():
    core = ClientCore(
        10, 0, retry=RetryPolicy(timeout=10.0, backoff=1.0, max_retries=0),
        failover=[1],
    )
    op, _ = core.start_read(0, 0.0)
    core.handle_timer(("retry", op.opid, 1), 10.0)  # 0 exhausted -> switch
    assert core.server_id == 1
    effects = core.handle_timer(("retry", op.opid, 1), 20.0)  # 1 exhausted
    settled = [e for e in effects if isinstance(e, OpSettledEffect)]
    assert settled and settled[0].failed
    assert op.failed
    assert isinstance(op.error, HomeServerUnavailable)
    assert op.error.servers_tried == [0, 1]


def test_write_fails_fast_but_rotates_sticky_home():
    core = ClientCore(
        10, 0, retry=RetryPolicy(timeout=10.0, backoff=1.0, max_retries=0),
        failover=[1, 2],
    )
    op, _ = core.start_write(0, np.ones(2), 0.0)
    effects = core.handle_timer(("retry", op.opid, 1), 10.0)
    # the in-flight write is NOT retried elsewhere (per-server write dedup
    # makes a cross-server retry a potential double apply) ...
    assert op.failed
    assert isinstance(op.error, HomeServerUnavailable)
    assert op.error.servers_tried == [0]
    assert not _sends(effects)
    # ... but the next operation avoids the unresponsive server
    switch = _switches(effects)
    assert len(switch) == 1 and switch[0].opid is None
    assert core.server_id == 1


def test_opt_in_write_failover():
    core = ClientCore(
        10, 0, retry=RetryPolicy(timeout=10.0, backoff=1.0, max_retries=0),
        failover=[1], failover_writes=True,
    )
    op, _ = core.start_write(0, np.ones(2), 0.0)
    effects = core.handle_timer(("retry", op.opid, 1), 10.0)
    assert not op.failed
    assert core.server_id == 1
    assert [e.dst for e in _sends(effects)] == [1]


def test_deadline_is_total_budget_across_candidates():
    core = ClientCore(
        10, 0,
        retry=RetryPolicy(
            timeout=10.0, backoff=1.0, max_retries=0, deadline=15.0
        ),
        failover=[1, 2, 3],
    )
    op, _ = core.start_read(0, 0.0)
    core.handle_timer(("retry", op.opid, 1), 10.0)  # switch to 1
    effects = core.handle_timer(("retry", op.opid, 1), 20.0)
    # candidates 2 and 3 remain, but 20 ms >= the 15 ms deadline
    assert op.failed
    assert not _switches(effects)


def test_suspect_home_idle_client_rotates():
    core = ClientCore(10, 0, failover=[1, 2])
    effects = core.suspect_home(5.0)
    assert core.server_id == 1
    assert len(_switches(effects)) == 1
    assert not _sends(effects)  # nothing pending, nothing to re-send


def test_suspect_home_pending_read_redials_immediately():
    core = ClientCore(10, 0, retry=QUICK, failover=[1])
    op, _ = core.start_read(0, 0.0)
    effects = core.suspect_home(5.0)
    assert core.server_id == 1
    assert any(isinstance(e, CancelTimerEffect) for e in effects)
    assert [e.dst for e in _sends(effects)] == [1]
    assert _switches(effects)[0].opid == op.opid


def test_suspect_home_pending_write_is_left_to_retry_policy():
    core = ClientCore(10, 0, retry=QUICK, failover=[1])
    op, _ = core.start_write(0, np.ones(2), 0.0)
    effects = core.suspect_home(5.0)
    assert core.server_id == 0  # no switch, no fail: retry policy decides
    assert not op.failed
    assert not _switches(effects)


def test_no_failover_candidates_keeps_old_fail_fast():
    core = ClientCore(
        10, 0, retry=RetryPolicy(timeout=10.0, backoff=1.0, max_retries=0)
    )
    op, _ = core.start_read(0, 0.0)
    core.handle_timer(("retry", op.opid, 1), 10.0)
    assert op.failed
    assert op.error.servers_tried == [0]
    assert core.suspect_home(20.0) == []  # nowhere to rotate to


# ----------------------------------------------------------------------
# session guarantees across failover: the client's session floor


def test_requests_carry_the_session_floor():
    core = ClientCore(10, 0, retry=QUICK, failover=[1])
    op, effects = core.start_read(0, 0.0)
    assert _sends(effects)[0].msg.session_ts is None  # nothing observed yet
    ret = ReadReturn(op.opid, np.zeros(2))
    ret.ts = VectorClock((3, 0, 1, 0, 0))
    core.handle_message(0, ret, 1.0)
    assert core.session_ts == VectorClock((3, 0, 1, 0, 0))
    # the next request -- e.g. after a failover -- advertises the floor
    op, effects = core.start_read(0, 2.0)
    assert _sends(effects)[0].msg.session_ts == VectorClock((3, 0, 1, 0, 0))
    # later responses merge component-wise, never regress
    ret = ReadReturn(op.opid, np.zeros(2))
    ret.ts = VectorClock((1, 4, 0, 0, 0))
    core.handle_message(0, ret, 3.0)
    assert core.session_ts == VectorClock((3, 4, 1, 0, 0))


def test_server_parks_request_until_clock_covers_floor():
    code = example1_code()
    server = ServerCore(0, code)
    server.boot(0.0)
    # a failed-over client whose session saw a write through server 1
    # that has not propagated here yet
    req = ReadRequest((9, 0), 0)
    req.session_ts = VectorClock((0, 1, 0, 0, 0))
    effects = server.handle_message(9, req, 1.0)
    assert not [e for e in effects if isinstance(e, ReplyEffect)]
    assert server.stats.parked_requests == 1
    # a client retry of the parked request does not double-park
    server.handle_message(9, req, 2.0)
    assert server.stats.parked_requests == 1
    assert server.stats.duplicate_requests == 1
    # the missing write arrives via propagation: the clock catches up and
    # the parked read is served -- with the no-longer-stale value
    tag = Tag(VectorClock((0, 1, 0, 0, 0)), 7)
    value = np.array([5], dtype=np.int64)
    effects = server.handle_message(1, App(0, value, tag), 3.0)
    replies = [e for e in effects if isinstance(e, ReplyEffect)]
    assert [e.client_id for e in replies] == [9]
    assert replies[0].msg.opid == (9, 0)
    assert np.array_equal(replies[0].msg.value, value)
    assert replies[0].msg.ts.leq(server.vc) and req.session_ts.leq(server.vc)


def test_parked_requests_are_volatile_across_crash():
    code = example1_code()
    server = ServerCore(0, code)
    server.boot(0.0)
    req = ReadRequest((9, 0), 0)
    req.session_ts = VectorClock((0, 1, 0, 0, 0))
    server.handle_message(9, req, 1.0)
    assert server._parked
    server.wipe_volatile()  # crash: the client's retry will re-deliver
    assert not server._parked


# ----------------------------------------------------------------------
# live: detector-driven failover on a real cluster


async def _live_failover(code):
    cluster = AsyncioCluster(
        code,
        retry=RetryPolicy(timeout=40.0, backoff=1.5, max_retries=4),
        detector=FailureDetectorConfig(
            heartbeat_interval=25.0, suspect_after=150.0
        ),
    )
    await cluster.start()
    client = await cluster.add_client(0, failover=True)
    victim = 0
    op = await client.write(0, cluster.value(5))
    assert not op.failed

    await cluster.kill_server(victim)
    # some live server's detector must suspect the victim
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 5.0
    while not any(
        peer == victim and kind == "suspect"
        for _, peer, kind in cluster.detector_transitions
    ):
        assert loop.time() < deadline, "no suspicion raised"
        await asyncio.sleep(0.02)

    # the client homed at the dead server still completes reads
    op = await client.read(0)
    assert not op.failed, f"read did not fail over: {op.error}"
    assert client.switch_log, "client never switched home servers"
    assert client.switch_log[0][0] == victim
    assert client.core.server_id != victim

    await cluster.restart_server(victim)
    deadline = loop.time() + 5.0
    while not any(
        peer == victim and kind == "alive"
        for _, peer, kind in cluster.detector_transitions
    ):
        assert loop.time() < deadline, "victim never un-suspected"
        await asyncio.sleep(0.02)

    await cluster.quiesce()
    await cluster.shutdown()


def test_live_detector_drives_client_failover():
    asyncio.run(_live_failover(example1_code()))


def test_client_start_with_no_listener_fails_typed_after_the_budget():
    async def run():
        # a port nobody listens on: bound once, then released
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = AsyncioClient(ClientCore(5, 0), ("127.0.0.1", port))
        loop = asyncio.get_running_loop()
        began = loop.time()
        try:
            await client.start()
        except HomeServerUnavailable as exc:
            error = exc
        else:
            error = None
        waited = loop.time() - began
        await client.close()
        return error, waited

    error, waited = asyncio.run(run())
    assert isinstance(error, HomeServerUnavailable)
    assert error.attempts == 0 and error.server_id == 0
    assert CLIENT_START_TIMEOUT - 0.05 <= waited < CLIENT_START_TIMEOUT + 1.0
