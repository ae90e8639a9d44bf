"""Macro throughput/latency baseline on the live asyncio cluster.

The first end-to-end perf trajectory point (ROADMAP item 2): an open-loop
Poisson workload (the paper's Sec. 4.2 arrival-rate model) drives a real
TCP cluster at fixed cluster-wide rates and records sustained ops/s,
p50/p99/p999 latency, and the wire-level frames-per-op / flushes-per-op
metrics into ``BENCH_macro.json``.

An unbatched comparison lane re-runs the first rate with the flush
coalescing disabled (one ``writer.write`` per frame); the batched path
must issue measurably fewer socket writes per completed operation.  Both
lanes sit behind the same commit barrier, which coalesces acks for both,
so their frame counts no longer differ.

The JSON lands at ``$MACRO_BENCH_JSON`` when set (CI uploads it as an
artifact), else ``benchmarks/.bench_out/BENCH_macro.json``; runs are
**appended** (stamped with git SHA + UTC timestamp) so the file
accumulates a history across runs; the ``repro bench-macro`` CLI runs
the same sweep standalone.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from bench_utils import fmt, print_table
from repro.workloads.live_open_loop import run_macro_sweep
from repro.workloads.records import RUNS_SCHEMA, append_bench_record

RATES = (60.0, 120.0)
DURATION = 1.2  # seconds of arrivals per lane


@pytest.fixture(scope="module")
def payload():
    return run_macro_sweep(
        rates=RATES, duration=DURATION, value_len=64, seed=7
    )


def test_sweep_covers_both_rates_with_finite_percentiles(payload):
    batched = [r for r in payload["results"] if r["batch"]]
    assert {r["rate"] for r in batched} == set(RATES)
    for r in batched:
        # open-loop arrivals at rate*duration; most must complete
        assert r["offered"] > 0.5 * r["rate"] * DURATION
        assert r["completed"] >= 0.8 * r["offered"]
        assert r["ops_per_s"] > 0
        for key in ("p50_ms", "p99_ms", "p999_ms"):
            assert r[key] is not None and math.isfinite(r[key])
        assert r["p50_ms"] <= r["p99_ms"] <= r["p999_ms"]


def test_batched_flush_issues_fewer_writes_per_op(payload):
    batched = next(
        r for r in payload["results"] if r["batch"] and r["rate"] == RATES[0]
    )
    unbatched = next(r for r in payload["results"] if not r["batch"])
    assert unbatched["rate"] == RATES[0]  # same workload, only batch differs
    # the coalesced flush path must measurably cut write syscalls (at this
    # rate the cluster is far from saturated, so a commit seldom holds
    # more than a frame or two per channel); acks are coalesced by the
    # commit barrier in both lanes, so frames match
    assert batched["flushes_per_op"] < 0.95 * unbatched["flushes_per_op"]
    assert batched["frames_per_op"] < 1.1 * unbatched["frames_per_op"]


def test_emit_bench_macro_json(payload, capsys):
    rows = [
        [
            f"{r['rate']:g}",
            "on" if r["batch"] else "off",
            r["offered"],
            r["completed"],
            fmt(r["ops_per_s"], 1),
            fmt(r["p50_ms"]),
            fmt(r["p99_ms"]),
            fmt(r["p999_ms"]),
            fmt(r["frames_per_op"], 1),
            fmt(r["flushes_per_op"], 1),
        ]
        for r in payload["results"]
    ]
    with capsys.disabled():
        print_table(
            "macro throughput (live cluster, open-loop Poisson)",
            ["rate", "batch", "offered", "done", "ops/s", "p50ms", "p99ms",
             "p999ms", "frames/op", "flushes/op"],
            rows,
        )
    target = os.environ.get("MACRO_BENCH_JSON")
    path = (
        Path(target)
        if target
        else Path(__file__).parent / ".bench_out" / "BENCH_macro.json"
    )
    append_bench_record(path, payload)
    doc = json.loads(path.read_text())
    assert doc["schema"] == RUNS_SCHEMA
    run = doc["runs"][-1]
    assert run["schema"] == "repro-macro-bench/v1"
    assert "git_sha" in run and "recorded_at" in run
