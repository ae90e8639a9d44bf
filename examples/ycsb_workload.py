#!/usr/bin/env python3
"""A YCSB-style workload on the grouped store (Sec. 4.2's deployment shape).

Runs a Zipfian-skewed read/write mix over 24 keys grouped into RS(5,3)
CausalEC groups, reports latency percentiles and throughput, and shows the
transient storage draining after the load stops -- the full Sec. 4.2 story
at simulation scale.

Run:  python examples/ycsb_workload.py
"""

import numpy as np

from repro import ServerConfig, UniformLatency
from repro.analysis import LatencySummary
from repro.kv import grouped_store
from repro.workloads import ZipfianGenerator


def main() -> None:
    keys = [f"user{i:04d}" for i in range(24)]
    store = grouped_store(
        keys,
        group_size=3,
        num_servers=5,
        latency=UniformLatency(0.5, 12.0),
        config=ServerConfig(gc_interval=40.0),
        seed=11,
    )
    print(f"{len(keys)} keys in {store.num_groups} groups of <= 3, "
          f"each an RS(5,3) CausalEC instance")

    rng = np.random.default_rng(3)
    zipf = ZipfianGenerator(len(keys), theta=0.99)
    sessions = [store.session(site) for site in range(5)]
    read_lat, write_lat = [], []

    for step in range(400):
        session = sessions[step % len(sessions)]
        key = keys[zipf.sample(rng)]
        t0 = store.scheduler.now
        if rng.random() < 0.5:
            session.get(key)
            read_lat.append(store.scheduler.now - t0)
        else:
            session.put(key, f"payload-{step}".encode())
            write_lat.append(store.scheduler.now - t0)

    ops = len(read_lat) + len(write_lat)
    elapsed_s = store.scheduler.now / 1000.0
    print(f"\n{ops} ops in {elapsed_s:.2f} simulated seconds "
          f"({ops / elapsed_s:.0f} ops/s, closed loop)")
    for name, lats in (("reads", read_lat), ("writes", write_lat)):
        s = LatencySummary.of(lats)
        print(f"  {name:<7} n={s.count:<4} mean={s.mean:6.2f} ms  "
              f"p50={s.p50:6.2f}  p95={s.p95:6.2f}  worst={s.worst:6.2f}")

    print("\ntransient storage after the load stops:")
    for _ in range(8):
        entries = store.total_transient_entries()
        print(f"  t={store.scheduler.now:8.0f} ms  entries={entries}")
        if entries == 0:
            break
        store.settle(for_time=150.0)
    print("\nsteady state: each server stores one RS(5,3) symbol per group "
          "-- 1/3 of the replicated footprint (Theorem 4.5).")


if __name__ == "__main__":
    main()
