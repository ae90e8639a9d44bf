"""Tests for the CLI entry points and the metrics summaries."""

import math

import numpy as np
import pytest

from repro.analysis import LatencySummary, summarize, throughput
from repro.cli import main
from repro.consistency.history import History, Operation


# ---------------------------------------------------------------------------
# metrics


def op(kind, invoke, response, client=1, obj=0):
    return Operation(
        client_id=client, opid=(client, invoke), kind=kind, obj=obj,
        value=np.array([1]), invoke_time=invoke, response_time=response,
    )


def test_latency_summary_basic():
    s = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.p50 == pytest.approx(2.5)
    assert s.worst == 4.0
    assert len(s.row()) == 6


def test_latency_summary_empty():
    s = LatencySummary.of([])
    assert s.count == 0
    assert math.isnan(s.mean)
    assert s.row()[0] == "0"


def test_summarize_splits_reads_and_writes():
    h = History()
    h.record_invoke(op("read", 0, 5))
    h.record_invoke(op("read", 10, 12))
    h.record_invoke(op("write", 20, 21))
    s = summarize(h)
    assert s["read"].count == 2
    assert s["read"].mean == pytest.approx(3.5)
    assert s["write"].count == 1


def test_throughput():
    h = History()
    for i in range(10):
        h.record_invoke(op("write", i * 100.0, i * 100.0 + 1))
    # 10 ops over 901 ms
    assert throughput(h) == pytest.approx(10 / 0.901, rel=0.01)


def test_throughput_degenerate():
    h = History()
    assert throughput(h) == 0.0
    h.record_invoke(op("write", 0, 1))
    assert throughput(h) == 0.0


# ---------------------------------------------------------------------------
# CLI


def test_cli_demo(capsys):
    assert main(["demo", "--rtt", "4"]) == 0
    out = capsys.readouterr().out
    assert "write X1=42" in out
    assert "read X1 at server 5: 42" in out


def test_cli_fig2(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "Partial Replication" in out
    assert "Cross-Object Coding" in out
    assert "228" in out


def test_cli_ycsb(capsys):
    assert main(["ycsb"]) == 0
    out = capsys.readouterr().out
    assert "95.4%" in out


def test_cli_design(capsys):
    assert main(["design", "--restarts", "1", "--objects", "3"]) == 0
    out = capsys.readouterr().out
    assert "stores" in out
    assert "worst=" in out


def test_cli_bench(capsys):
    assert main(["bench", "--ops", "10"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_reshard(capsys):
    # the one user of ShardedOpenLoopDriver: a shard joins mid-traffic
    assert main(["reshard", "--shards", "1", "--keys", "6",
                 "--duration", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "adding shard 1 mid-traffic" in out
    assert "view v1:" in out
    assert "0 violation(s)" in out
