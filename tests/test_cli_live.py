"""The live subcommands of ``python -m repro``, run in-process.

Each test calls :func:`repro.cli.main` the way a shell would and checks
the exit code and the verdict line -- never a count that depends on how
the loop was scheduled.  ``cluster`` and ``chaos`` run on
:func:`~repro.runtime.live_chaos.run_live_chaos`, ``reconfig`` boots
through :func:`~repro.runtime.live_chaos.live_cluster`, and the last tests
pin down that ``live_cluster`` tears everything down however its body
ends.  CI's ``dev-mode`` lane runs this file with leaked sockets and
transports turned into errors.
"""

from __future__ import annotations

import asyncio
import os
import re

import pytest

from repro.cli import main
from repro.ec.codes import example1_code
from repro.runtime.live_chaos import live_cluster
from repro.runtime.supervisor import RestartPolicy


def _run(capsys, *argv: str) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_cluster_without_faults(capsys):
    out = _run(capsys, "cluster")
    assert (
        "live chaos seed 0: OK (drop=0.00, dup=0.00, corrupt=0.00, partitions=0, crashes=0)"
        in out
    )
    assert "converged=True" in out


def test_cluster_with_loss_jitter_and_a_crash(capsys):
    out = _run(capsys, "cluster", "--drop", "0.05", "--jitter", "3",
               "--crash", "2")
    assert (
        "live chaos seed 0: OK (drop=0.05, dup=0.00, corrupt=0.00, partitions=0, crashes=1)"
        in out
    )
    assert "converged=True" in out


def test_cluster_jitter_alone_delays_frames(capsys):
    out = _run(capsys, "cluster", "--jitter", "3")
    assert "live chaos seed 0: OK" in out
    delayed = int(re.search(r"(\d+) delayed", out).group(1))
    assert delayed > 0


def test_cluster_with_corruption(capsys):
    out = _run(capsys, "cluster", "--corrupt", "0.05")
    assert (
        "live chaos seed 0: OK (drop=0.00, dup=0.00, corrupt=0.05, "
        "partitions=0, crashes=0)" in out
    )
    assert "converged=True" in out


def test_cluster_rejects_a_crash_of_a_server_it_does_not_have(capsys):
    assert main(["cluster", "--crash", "5"]) == 2
    assert "--crash must be in [0, 5)" in capsys.readouterr().err


def test_chaos(capsys):
    out = _run(capsys, "chaos", "--seeds", "1", "--ops", "4")
    assert "live chaos seed 1: OK" in out


@pytest.mark.parametrize("action", ["add", "remove", "replace"])
def test_reconfig(capsys, action):
    out = _run(capsys, "reconfig", action, "--ops", "8", "--heal", "0.3")
    assert "epoch 1: " in out
    assert f"reconfig {action}: OK" in out
    assert "0 violation(s)" in out


def test_scrub(capsys):
    out = _run(capsys, "scrub", "--seeds", "7", "--ops", "6")
    assert "chaos seed 7: OK" in out


class _Boom(Exception):
    pass


@pytest.mark.parametrize("exit_by", ["exception", "cancellation"])
def test_live_cluster_tears_everything_down(exit_by):
    """Whatever ends the body, no server, listener, auditor, supervisor
    task or checkpoint directory outlives the ``async with``."""
    seen = {}

    async def body():
        async with live_cluster(
            example1_code(), supervise=RestartPolicy()
        ) as (cluster, auditor, supervisor):
            seen.update(cluster=cluster, auditor=auditor,
                        task=supervisor._task, root=cluster.store.root)
            client = await cluster.add_client(0)
            assert not (await client.write(0, cluster.value(3))).failed
            if exit_by == "exception":
                raise _Boom
            await asyncio.Event().wait()

    async def run():
        task = asyncio.ensure_future(body())
        if exit_by == "cancellation":
            while "root" not in seen or not seen["cluster"].history.completed():
                await asyncio.sleep(0.01)
            task.cancel()
        with pytest.raises(
            _Boom if exit_by == "exception" else asyncio.CancelledError
        ):
            await asyncio.wait_for(task, 10.0)
        # checked on the loop: asyncio.run would cancel a leaked task
        cluster = seen["cluster"]
        assert all(s.halted and s._listener is None for s in cluster.servers)
        assert seen["auditor"]._listener is None
        assert seen["task"].done()
        assert not os.path.exists(seen["root"])

    asyncio.run(run())
