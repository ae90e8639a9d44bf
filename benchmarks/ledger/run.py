#!/usr/bin/env python3
"""The repo's benchmark.  See README.md next to this file.

One workload, one interpreter (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/ledger/run.py --workload live_mixed_64 --seed 1 \\
        --seconds 15 --trace 0

prints ``name value unit`` lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole set (every workload untraced and traced, each in a fresh
interpreter), with a table and an optional result file for ``compare.py``::

    python3 benchmarks/ledger/run.py [--seed N] [--workload W] [--out FILE]
    python3 benchmarks/ledger/run.py --selfcheck

Exits non-zero when a correctness check fails, an operation fails, or
(``--selfcheck``) two sets of runs of the same code disagree by more than a
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args, spec: dict) -> int:
    """Contract mode: this interpreter runs the one workload."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    from workloads import WORKLOADS

    traced = bool(args.trace)
    result = harness.execute(
        WORKLOADS[args.workload], args.seed, args.seconds, traced, args.trace_out
    )
    unit = units(spec)
    wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    measured = result["metrics"]
    if set(wanted) != set(measured):
        print(
            f"error: BENCHMARK.json and the harness disagree on metrics: "
            f"{sorted(set(wanted) ^ set(measured))}", file=sys.stderr,
        )
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} store_fs {result['store_fs']}")
    for why in result["reasons"]:
        print(f"  CHECK FAILED: {why}")
    for name in wanted:
        print(f"  {name:40s} {measured[name]:14.4f} {unit[name]}")
    ok = result["correct"] and result["failed"] == 0
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit[name]} for name in wanted
        },
    }))
    return 0 if ok else 1


def run_set(args, spec: dict) -> tuple[dict, bool]:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    results: dict = {}
    ok = True
    for name in names:
        for traced in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                ok = False
                print(proc.stderr, file=sys.stderr)
                print(f"FAILED: {name} --trace {traced} exited {proc.returncode}")
            if proc.returncode not in (0, 1):
                continue
            last = json.loads(lines[-1])
            entry = results.setdefault(name, {
                "metrics": {}, "attempted": 0, "failed": 0, "correct": True,
                "store_fs": next(
                    l for l in lines if l.startswith("workload ")
                ).split()[-1],
            })
            entry["metrics"].update(
                {k: v["value"] for k, v in last["metrics"].items()}
            )
            entry["attempted"] += last["attempted"]
            entry["failed"] += last["failed"]
            entry["correct"] &= last["correct"]
        m = results.get(name, {}).get("metrics", {})
        if "ops_per_s" in m and m.get("loadgen.max_rate_ok") == 0:
            # both runs were the same closed loop: the calibrated
            # trace.overhead_share, checked against two real runs
            print(f"  traced/untraced ops_per_s: "
                  f"{m['client.ops_per_s'] / m['ops_per_s']:.3f} "
                  f"(base {m['ops_per_s']:.2f} 1/s untraced)")
    return results, ok


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="run one workload in this interpreter")
    ap.add_argument("--trace-out", help="dump the traced run's spans (JSON)")
    ap.add_argument("--out", help="write the set's results for compare.py")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the set twice; fail if they disagree")
    args = ap.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return run_one(args, spec)

    sys.path.insert(0, str(HERE))
    import compare

    first, ok = run_set(args, spec)
    payload = {
        "seed": args.seed, "seconds": args.seconds, "git_sha": git_sha(),
        "store_fs": next(iter(first.values()), {}).get("store_fs"),
        "workloads": first,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.selfcheck:
        second, ok2 = run_set(args, spec)
        rows = compare.compare(spec, first, second)
        compare.print_rows(rows)
        # same code on both sides: "better" is as much a disagreement as "worse"
        moved = [r for r in rows if r.verdict not in ("same", "")]
        if moved:
            print(f"selfcheck: {len(moved)} metric(s) outside their bound "
                  f"between two runs of the same code")
        ok = ok and ok2 and not moved
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
