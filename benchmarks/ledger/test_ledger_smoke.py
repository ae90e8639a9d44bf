"""Smoke test of the benchmark itself (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Runs every workload for a few seconds, untraced and traced, each in a fresh
interpreter exactly as ``BENCHMARK.json``'s ``command`` does, and checks the
shape of what comes out -- not the numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, inputs_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("ec", "wire", "server_core", "snapshot", "durable_store")


def run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    w = WORKLOADS[name]
    assert inputs_digest(w, 1) == inputs_digest(w, 1)
    assert inputs_digest(w, 1) != inputs_digest(w, 2)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, seed):
    seconds = 3 if WORKLOADS[name].base_rate else 2
    for traced, group in ((0, "end_to_end"), (1, "per_layer")):
        out = run(name, seed, seconds, traced)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        value = {k: v["value"] for k, v in out["metrics"].items()}
        assert all(isinstance(v, (int, float)) for v in value.values())
        if not traced:
            assert all(v > 0 for v in value.values()), value
            continue
        shares = sum(value[f"{layer}.busy_share"] for layer in LAYERS)
        shares += value["asyncio_rt.other_share"] + value["asyncio_rt.idle_share"]
        assert shares == pytest.approx(1.0, abs=0.02)
        assert all(value[f"{layer}.busy_share"] >= 0 for layer in LAYERS)
        assert value["asyncio_rt.other_share"] >= 0
        # cpu + waits cover the window; short of 1 by what blocked elsewhere
        assert 0.8 <= value["trace.clock_closure"] <= 1.02
        assert value["trace.overhead_share"] <= 0.05
        assert value["server_core.replay_events_per_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark's own files there is nothing
    to measure: non-zero exit, no result line."""
    import shutil

    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", ".run"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "live_mixed_64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
