#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the ratio B/A *and
its base* (A's value, with its unit), and a verdict taken from the metric's
bound in ``BENCHMARK.json``:

``better`` / ``worse``
    B moved past the bound in the good / bad direction.
``same``
    B is within the bound of A.
``unresolved``
    either side has no number for the metric, or A's is 0.

A single pair of runs is one sample: a ``worse`` here says "measure again
the way the README's *Claiming a gain* section says", not "regression".
Per-layer metrics have no bound; they are listed with their ratio only.
Exits 1 when any end-to-end metric is ``worse`` or any run was not correct.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: float | None
    b: float | None
    bound: float | None
    verdict: str

    @property
    def ratio(self) -> float | None:
        if self.a is None or self.b is None or self.a == 0:
            return None
        return self.b / self.a


def verdict(a, b, better: str, bound: float) -> str:
    if a is None or b is None or a == 0:
        return "unresolved"
    change = (b - a) / abs(a)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(spec: dict, first: dict, second: dict) -> list[Row]:
    """Rows for every workload present on either side, bounded metrics first."""
    rows = []
    for workload in sorted(set(first) | set(second)):
        a = first.get(workload, {}).get("metrics", {})
        b = second.get(workload, {}).get("metrics", {})
        for m in spec["end_to_end"]:
            va, vb = a.get(m["name"]), b.get(m["name"])
            rows.append(Row(workload, m["name"], m["unit"], va, vb, m["bound"],
                            verdict(va, vb, m["better"], m["bound"])))
        for m in spec["per_layer"]:
            va, vb = a.get(m["name"]), b.get(m["name"])
            if va is not None or vb is not None:
                rows.append(Row(workload, m["name"], m["unit"], va, vb, None, ""))
    return rows


def print_rows(rows: list[Row]) -> None:
    def num(x):
        return "-" if x is None else f"{x:.4g}"

    print(f"{'workload':22s} {'metric':36s} {'A':>11s} {'B':>11s} "
          f"{'B/A':>7s}  {'base (A)':18s} {'bound':>6s}  verdict")
    for r in rows:
        ratio = "-" if r.ratio is None else f"{r.ratio:.3f}"
        bound = "" if r.bound is None else f"{r.bound:.0%}"
        print(f"{r.workload:22s} {r.metric:36s} {num(r.a):>11s} {num(r.b):>11s} "
              f"{ratio:>7s}  {num(r.a) + ' ' + r.unit:18s} {bound:>6s}  {r.verdict}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    sides = []
    for path in argv:
        with open(path) as fh:
            sides.append(json.load(fh))
    for label, side in zip("AB", sides):
        print(f"{label}: seed {side['seed']}, {side['seconds']:g} s, "
              f"git {side['git_sha'][:12]}, store_fs {side.get('store_fs')}")
    rows = compare(spec, sides[0]["workloads"], sides[1]["workloads"])
    print_rows(rows)
    bad = [r for r in rows if r.verdict == "worse"]
    incorrect = [
        name for side in sides for name, w in side["workloads"].items()
        if not w["correct"] or w["failed"]
    ]
    for name in incorrect:
        print(f"NOT CORRECT: {name}")
    return 1 if bad or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
