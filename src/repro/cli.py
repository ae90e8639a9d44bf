"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    -- the quickstart scenario on the Example 1 code.
* ``fig2``    -- regenerate the Fig. 2 comparison table (analytic).
* ``ycsb``    -- the Sec. 4.2 YCSB storage analysis at paper scale.
* ``design``  -- run the cross-object code designer on the AWS topology.
* ``bench``   -- a quick throughput/latency run of CausalEC under load.
* ``reshard`` -- live resharding demo: add a shard under traffic with
  the online causal auditor attached.
* ``reconfig`` -- live dynamic-membership demo: add, remove, or
  (auto-)replace a server under traffic, epoch-fenced, audited.
* ``cluster`` -- boot a live asyncio TCP cluster on localhost sockets,
  inject faults from flags, and judge it like ``chaos`` does.
* ``chaos``   -- seeded chaos soaks against the live asyncio runtime.
* ``scrub``   -- seeded corruption chaos (frame damage, codeword rot,
  checkpoint rot) under the bit-rot scrubber, in the simulator.
* ``serve``   -- run one CausalEC server as a standalone TCP process.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _print_table(headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def cmd_demo(args: argparse.Namespace) -> int:
    """Quickstart demo on the Example 1 code."""
    from repro import (
        CausalECCluster,
        ConstantLatency,
        PrimeField,
        ServerConfig,
        example1_code,
    )

    cluster = CausalECCluster(
        example1_code(PrimeField(257)),
        latency=ConstantLatency(args.rtt / 2),
        config=ServerConfig(gc_interval=50.0),
    )
    alice, bob = cluster.add_client(0), cluster.add_client(4)
    w = cluster.execute(alice.write(0, cluster.value(42)))
    print(f"write X1=42 at server 1: {w.latency:.1f} ms (local)")
    cluster.run(for_time=1000)
    r = cluster.execute(bob.read(0))
    print(f"read X1 at server 5: {int(r.value[0])} in {r.latency:.1f} ms "
          f"(recovery-set decode)")
    cluster.run(for_time=2000)
    print("history entries after GC:",
          [s.history_size() for s in cluster.servers])
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    """Print the analytic Fig. 2 comparison table."""
    from repro.analysis import (
        Topology,
        cross_object_costs,
        cross_object_latency,
        intra_object_costs,
        intra_object_latency,
        partial_replication_costs,
        search_partial_replication,
    )
    from repro.ec import six_dc_code

    topo = Topology.aws_six_dc()
    pr = search_partial_replication(topo, 4)
    prc = partial_replication_costs(topo, pr.placement_sets(), 4)
    io = intra_object_latency(topo, 4)
    ioc = intra_object_costs(topo, 4)
    code = six_dc_code()
    co = cross_object_latency(topo, code)
    coc = cross_object_costs(topo, code)
    rows = [
        ["Partial Replication", f"{pr.profile.worst_case:.0f}",
         f"{pr.profile.average:.2f}", f"{prc.read_value_units:.2f}B",
         f"{prc.write_value_units:.1f}B"],
        ["Intra-Object Coding", f"{io.worst_case:.0f}", f"{io.average:.2f}",
         f"{ioc.read_value_units:.2f}B", f"{ioc.write_value_units:.1f}B"],
        ["Cross-Object Coding", f"{co.worst_case:.0f}", f"{co.average:.2f}",
         f"{coc.read_value_units:.2f}B", f"{coc.write_value_units:.1f}B"],
    ]
    _print_table(
        ["Scheme", "Worst(ms)", "Avg(ms)", "Read", "Write"], rows
    )
    return 0


def cmd_ycsb(args: argparse.Namespace) -> int:
    """Print the Sec. 4.2 YCSB storage analysis."""
    from repro.analysis import analyze_ycsb

    analysis = analyze_ycsb(t_gc=args.t_gc, k=args.k)
    print(analysis.summary())
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    """Run the cross-object code designer on the AWS topology."""
    from repro.analysis import Topology, design_cross_object_code

    topo = Topology.aws_six_dc()
    result = design_cross_object_code(
        topo, args.objects, objective=args.objective,
        restarts=args.restarts, seed=args.seed,
    )
    print(f"objective {args.objective}: worst={result.profile.worst_case:.0f} ms, "
          f"avg={result.profile.average:.2f} ms")
    for s, objs in enumerate(result.assignment):
        symbol = "+".join(f"X{k + 1}" for k in sorted(objs))
        print(f"  {topo.names[s]:<14} stores {symbol}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run a workload and print latency percentiles and throughput."""
    from repro import (
        CausalECCluster,
        PrimeField,
        ServerConfig,
        UniformLatency,
        example1_code,
    )
    from repro.analysis import summarize, throughput
    from repro.workloads import ClosedLoopDriver, WorkloadConfig

    cluster = CausalECCluster(
        example1_code(PrimeField(257)),
        latency=UniformLatency(0.5, args.max_latency),
        seed=args.seed,
        config=ServerConfig(gc_interval=30.0),
    )
    driver = ClosedLoopDriver(
        cluster, num_objects=3,
        config=WorkloadConfig(
            ops_per_client=args.ops, read_ratio=args.read_ratio,
            seed=args.seed,
        ),
    )
    driver.run()
    cluster.run(for_time=5000)
    cluster.assert_no_reencoding_errors()
    stats = summarize(cluster.history)
    rows = [[kind] + s.row() for kind, s in stats.items()]
    _print_table(["op", "count", "mean", "p50", "p95", "p99", "worst"], rows)
    print(f"throughput: {throughput(cluster.history):.0f} ops/s (simulated)")
    return 0


def _cli_code(name: str):
    from repro.ec.codes import example1_code, six_dc_code

    return six_dc_code() if name == "six-dc" else example1_code()


def cmd_reshard(args: argparse.Namespace) -> int:
    """Live resharding demo: add a shard under traffic, audit the history."""
    import asyncio

    from repro.core.server import ServerConfig
    from repro.protocol.client_core import RetryPolicy
    from repro.runtime.sharded_rt import ShardedAsyncioCluster
    from repro.workloads.sharded_open_loop import (
        LiveOpenLoopConfig,
        ShardedOpenLoopDriver,
    )

    keys = [f"key{i:03d}" for i in range(args.keys)]

    async def run() -> int:
        store = ShardedAsyncioCluster(
            keys,
            num_shards=args.shards,
            slots_per_shard=args.keys,  # capacity for any ring imbalance
            value_len=args.value_len,
            config=ServerConfig(gc_interval=args.gc_interval),
            retry=RetryPolicy(timeout=250.0, max_retries=6),
            audit=True,
        )
        await store.start()
        print(f"booted {args.shards} shards x {store.num_servers} servers; "
              f"{args.keys} keys on ring epoch {store.router.view_version}")
        driver = ShardedOpenLoopDriver(
            store,
            keys,
            LiveOpenLoopConfig(
                rate_per_site=args.rate / store.num_servers,
                duration=args.duration,
                seed=args.seed,
            ),
        )

        async def reshard_mid_run():
            await asyncio.sleep(args.duration / 3)
            print(f"adding shard {args.shards} mid-traffic ...")
            return await store.add_shard(args.shards)

        result, (change, stats) = await asyncio.gather(
            driver.run(), reshard_mid_run()
        )
        await store.quiesce()
        violations = store.finalize_audit()
        await store.shutdown()
        print(f"view v{stats['version']}: {stats['moves']} keys moved "
              f"({len(stats['migrated'])} migrated, "
              f"{len(stats['skipped'])} never written)")
        for mv in change.moves:
            print(f"  {mv.key}: shard {mv.src_shard} -> {mv.dst_shard} "
                  f"(gen {mv.gen})")
        print(f"traffic: {result['completed']}/{result['offered']} ops, "
              f"{result['failed']} failed, {result['dropped']} dropped")
        print(f"online auditor: "
              f"{store.auditor.checker.records_ingested} records, "
              f"{len(violations)} violation(s)")
        for v in violations:
            print(f"  auditor violation: {v.kind}: {v.detail}")
        return 1 if violations else 0

    return asyncio.run(run())


def cmd_reconfig(args: argparse.Namespace) -> int:
    """Live dynamic-membership demo: add/remove/replace under traffic."""
    import asyncio

    import numpy as np

    from repro.protocol.client_core import RetryPolicy
    from repro.protocol.failure_detector import FailureDetectorConfig
    from repro.protocol.repair_core import RepairConfig
    from repro.protocol.server_core import ServerConfig
    from repro.runtime.live_chaos import live_cluster, verdict

    code = _cli_code(args.code)
    if not 0 <= args.server < code.N:
        print(f"error: --server must be in [0, {code.N})", file=sys.stderr)
        return 2
    detector = None
    if args.action == "replace":
        # replace is driven end-to-end by the detector's confirmed-dead
        # escalation: kill the server forever, wait for auto-replace
        detector = FailureDetectorConfig(
            heartbeat_interval=25.0,
            suspect_after=60.0,
            confirm_after=args.confirm_after,
        )

    async def run() -> int:
        async with live_cluster(
            code,
            config=ServerConfig(gc_interval=args.gc_interval),
            retry=RetryPolicy(timeout=250.0, max_retries=6),
            detector=detector,
            repair=RepairConfig(digest_interval=60.0),
            auto_replace=args.action == "replace",
        ) as (cluster, auditor, _):
            print(f"booted {code.N} servers ({code.name}) at cfg epoch 0")
            clients = [
                await cluster.add_client(i, node_id=100 + i)
                for i in range(code.N)
            ]
            rng = np.random.default_rng(args.seed)
            failed = 0

            async def traffic(n: int) -> None:
                nonlocal failed
                for _ in range(n):
                    client = clients[int(rng.integers(code.N))]
                    home = client.core.server_id
                    if home < len(cluster.servers) and cluster.servers[home].halted:
                        continue  # its home server is down mid-change
                    obj = int(rng.integers(code.K))
                    if rng.random() < 0.5:
                        op = await client.write(
                            obj, cluster.value(int(rng.integers(100)))
                        )
                    else:
                        op = await client.read(obj)
                    failed += bool(op.failed)

            await traffic(args.ops // 2)
            if args.action == "add":
                if args.code == "six-dc":
                    from repro.analysis import Topology
                    from repro.analysis.happiness import rank_domains
                    from repro.ec.codes import extend_code

                    topo = Topology.aws_six_dc()
                    preview = extend_code(code, 0xCEC0DE)
                    ranked = rank_domains(preview, list(range(code.N)))
                    (div, hap), best = ranked[0]
                    print(f"happiness placement: joiner row lands best in "
                          f"{topo.names[best]} (diversity {div}, "
                          f"happiness {hap})")
                joiner = await cluster.add_server()
                print(f"epoch {cluster.cfg_epoch}: joined server "
                      f"{joiner.core.node_id} (code {joiner.core.code.name});"
                      f" anti-entropy is re-encoding its row ...")
            elif args.action == "remove":
                await cluster.remove_server(args.server)
                print(f"epoch {cluster.cfg_epoch}: removed server "
                      f"{args.server} (survivors cover every object)")
            else:
                print(f"killing server {args.server} forever ...")
                await cluster.kill_server(args.server, forever=True)
                deadline = asyncio.get_running_loop().time() + 30.0
                while cluster.cfg_epoch == 0 or cluster.servers[args.server].halted:
                    if asyncio.get_running_loop().time() > deadline:
                        print("error: auto-replace never fired", file=sys.stderr)
                        return 1
                    await asyncio.sleep(0.05)
                print(f"epoch {cluster.cfg_epoch}: detector confirmed server "
                      f"{args.server} dead; auto-replaced with a fresh "
                      f"machine on the same endpoint")
            await traffic(args.ops - args.ops // 2)
            await asyncio.sleep(args.heal)  # anti-entropy heals new incarnations
            await cluster.quiesce()
            rs = cluster.repair_stats()
            print(f"repair: {int(rs.get('rounds_completed', 0))} round(s), "
                  f"{int(rs.get('entries_installed', 0))} install(s), "
                  f"{int(rs.get('bits_shipped', 0)) // 8} bytes shipped")
            for note, epoch, members, joiner_id in cluster.reconfig_log:
                extra = f", joiner {joiner_id}" if joiner_id is not None else ""
                print(f"  epoch {epoch}: {note} -> members {list(members)}{extra}")
            fenced = sum(s.reconfig.stats.frames_fenced for s in cluster.servers)
            if fenced:
                print(f"fencing: {fenced} stale-epoch hello(s) rejected")
            violations = await verdict(cluster, auditor)
            completed = sum(op.done for op in cluster.history.operations)
            print(f"reconfig {args.action}: "
                  f"{'FAIL' if violations else 'OK'} ({completed} operations "
                  f"completed, {failed} failed fast; auditor ingested "
                  f"{auditor.checker.records_ingested} record(s), "
                  f"{len(violations)} violation(s))")
            for v in violations:
                print(f"  violation: {v}")
            return 1 if violations else 0

    return asyncio.run(run())


def cmd_cluster(args: argparse.Namespace) -> int:
    """Boot a live cluster, inject the faults the flags name, and judge it
    with :func:`~repro.runtime.live_chaos.run_live_chaos` on a schedule built
    from the flags; exit 1 unless it is causally consistent and converges."""
    from repro.protocol.repair_core import RepairConfig
    from repro.protocol.scrub_core import ScrubConfig
    from repro.runtime.live_chaos import run_live_chaos
    from repro.sim.chaos import ChaosConfig, ChaosSchedule

    code = _cli_code(args.code)
    crashes = args.crash or []
    if not all(0 <= victim < code.N for victim in crashes):
        print(f"error: --crash must be in [0, {code.N})", file=sys.stderr)
        return 2
    cfg = ChaosConfig(ops_per_client=args.ops, gc_interval=args.gc_interval)
    # crashes spread evenly over the first 60 % of the fault window, where
    # ChaosSchedule.generate draws its own; the supervisor restarts them
    reach = 0.6 * (cfg.fault_end - cfg.fault_start)
    schedule = ChaosSchedule(
        seed=args.seed,
        drop_prob=args.drop,
        dup_prob=args.dup,
        corrupt_prob=args.corrupt,
        crashes=[
            (cfg.fault_start + reach * (k + 1) / (len(crashes) + 1),
             cfg.fault_end, victim)
            for k, victim in enumerate(crashes)
        ],
    )
    result = run_live_chaos(
        code, args.seed, config=cfg,
        jitter_ms=args.jitter,
        repair=RepairConfig() if args.repair else None,
        scrub=(
            ScrubConfig(interval=args.scrub_interval)
            if args.scrub_interval else None
        ),
        schedule=schedule,
    )
    print(result.summary())
    return 0 if result.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded live chaos soaks and print one summary per seed."""
    from repro.protocol.repair_core import RepairConfig
    from repro.runtime.live_chaos import run_live_chaos
    from repro.sim.chaos import ChaosConfig

    code = _cli_code(args.code)
    cfg = ChaosConfig(ops_per_client=args.ops)
    failures = 0
    for seed in args.seeds:
        result = run_live_chaos(
            code, seed, config=cfg,
            time_scale=args.time_scale,
            artifact_dir=args.artifacts,
            repair=RepairConfig() if args.repair else None,
        )
        print(result.summary())
        if not result.ok:
            failures += 1
            for path in result.artifacts:
                print(f"  artifact: {path}")
    return 1 if failures else 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Seeded corruption chaos under the bit-rot scrubber (simulated)."""
    from repro.protocol.repair_core import RepairConfig
    from repro.sim.chaos import ChaosConfig, run_chaos

    code = _cli_code(args.code)
    cfg = ChaosConfig(
        ops_per_client=args.ops,
        corrupt_prob_max=args.corrupt,
        codeword_rots=args.codeword_rots,
        checkpoint_rots=args.checkpoint_rots,
        torn_writes=args.torn_writes,
        scrub_interval=args.scrub_interval,
    )
    failures = 0
    for seed in args.seeds:
        # checkpoint damage needs the repair overlay: the victim restarts
        # empty and only anti-entropy can re-derive its state from peers
        result = run_chaos(code, seed, cfg, repair=RepairConfig())
        print(result.summary())
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one standalone CausalEC server on a real TCP socket."""
    import asyncio
    import tempfile

    from repro.protocol.server_core import ServerConfig, ServerCore
    from repro.runtime.asyncio_rt import AsyncioServer, FileDurableStore

    code = _cli_code(args.code)
    addresses: dict[int, tuple[str, int]] = {}
    for i, hostport in enumerate(args.peers.split(",")):
        host, _, port = hostport.strip().rpartition(":")
        addresses[i] = (host or "127.0.0.1", int(port))
    if len(addresses) != code.N:
        print(f"error: --peers must list {code.N} host:port entries for "
              f"code {code.name}", file=sys.stderr)
        return 2
    if not 0 <= args.id < code.N:
        print(f"error: --id must be in [0, {code.N})", file=sys.stderr)
        return 2
    store_dir = args.store or tempfile.mkdtemp(prefix="causalec-serve-")

    async def run() -> int:
        host, port = addresses[args.id]
        store = FileDurableStore(store_dir)
        server = AsyncioServer(
            ServerCore(args.id, code, ServerConfig(gc_interval=args.gc_interval)),
            store, host=host, port=port,
        )
        server.set_peers(addresses)
        if store.load(args.id) is not None:
            await server.restart()  # resume from the on-disk checkpoint
            resumed = " (resumed from checkpoint)"
        else:
            await server.start()
            server.connect_peers()
            resumed = ""
        print(f"server {args.id}/{code.N} ({code.name}) listening on "
              f"{server.host}:{server.port}{resumed}; checkpoints in "
              f"{store_dir}")
        await asyncio.Event().wait()  # serve until interrupted
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CausalEC reproduction (PODC 2023) -- demos and analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="quickstart on the Example 1 code")
    p.add_argument("--rtt", type=float, default=10.0)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("fig2", help="regenerate the Fig. 2 table (analytic)")
    p.set_defaults(fn=cmd_fig2)

    p = sub.add_parser("ycsb", help="Sec. 4.2 YCSB storage analysis")
    p.add_argument("--t-gc", type=float, default=120.0)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_ycsb)

    p = sub.add_parser("design", help="cross-object code designer")
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--objective", default="worst_then_avg",
                   choices=["worst_then_avg", "avg_then_worst"])
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("bench", help="workload run with latency summary")
    p.add_argument("--ops", type=int, default=60)
    p.add_argument("--read-ratio", type=float, default=0.5)
    p.add_argument("--max-latency", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "reshard",
        help="live resharding demo: add a shard under open-loop traffic "
             "with the online causal auditor attached",
    )
    p.add_argument("--shards", type=int, default=2,
                   help="initial shard count (one more is added mid-run)")
    p.add_argument("--keys", type=int, default=10)
    p.add_argument("--rate", type=float, default=80.0,
                   help="cluster-wide arrival rate (ops/s)")
    p.add_argument("--duration", type=float, default=1.5,
                   help="seconds of arrivals (the view change fires at 1/3)")
    p.add_argument("--value-len", type=int, default=8)
    p.add_argument("--gc-interval", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_reshard)

    p = sub.add_parser(
        "reconfig",
        help="live dynamic-membership demo: add/remove/replace a server "
             "under open-loop traffic with the online auditor attached",
    )
    p.add_argument("action", choices=["add", "remove", "replace"],
                   help="add: join a redundancy server (extended code); "
                        "remove: retire a server; replace: kill a server "
                        "forever and let the detector auto-replace it")
    p.add_argument("--code", default="example1", choices=["example1", "six-dc"])
    p.add_argument("--server", type=int, default=2,
                   help="victim server for remove/replace")
    p.add_argument("--ops", type=int, default=24)
    p.add_argument("--gc-interval", type=float, default=50.0)
    p.add_argument("--confirm-after", type=float, default=150.0,
                   help="detector confirmed-dead threshold in ms (replace)")
    p.add_argument("--heal", type=float, default=1.5,
                   help="seconds to let anti-entropy heal new incarnations")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_reconfig)

    p = sub.add_parser(
        "cluster",
        help="boot a live asyncio TCP cluster on localhost, inject faults, "
             "and judge it (supervisor, detector and auditor attached)",
    )
    p.add_argument("--code", default="example1", choices=["example1", "six-dc"])
    p.add_argument("--ops", type=int, default=5,
                   help="operations per client")
    p.add_argument("--gc-interval", type=float, default=25.0)
    p.add_argument("--crash", type=int, action="append", metavar="SERVER",
                   help="crash this server mid-workload (repeatable); the "
                        "supervisor restarts it with exponential backoff")
    p.add_argument("--repair", action="store_true",
                   help="run the anti-entropy repair overlay (digest "
                        "gossip + background symbol re-encoding)")
    p.add_argument("--drop", type=float, default=0.0,
                   help="per-frame drop probability on server channels")
    p.add_argument("--dup", type=float, default=0.0,
                   help="per-frame duplication probability")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="max per-frame extra delay in ms (reordering)")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="per-frame in-flight bit-flip probability (the "
                        "frame CRC rejects damaged frames; ARQ retransmits)")
    p.add_argument("--scrub-interval", type=float, default=0.0,
                   help="run the bit-rot scrubber at this interval in ms "
                        "(0 = off); pairs well with --repair so "
                        "quarantined symbols heal")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "chaos", help="seeded chaos soak against the live asyncio runtime"
    )
    p.add_argument("--code", default="six-dc", choices=["example1", "six-dc"])
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                   default=[1, 2, 3],
                   help="comma-separated seeds, one soak each")
    p.add_argument("--ops", type=int, default=8,
                   help="operations per client")
    p.add_argument("--time-scale", type=float, default=4.0,
                   help="real ms per simulated schedule ms")
    p.add_argument("--repair", action="store_true",
                   help="run the anti-entropy repair overlay during the soak")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="write auditor/supervisor dumps here on failure")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "scrub",
        help="seeded corruption chaos under the bit-rot scrubber "
             "(simulated: frame damage, codeword rot, checkpoint rot)",
    )
    p.add_argument("--code", default="example1", choices=["example1", "six-dc"])
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                   default=[7, 11],
                   help="comma-separated seeds, one soak each")
    p.add_argument("--ops", type=int, default=12,
                   help="operations per client")
    p.add_argument("--corrupt", type=float, default=0.1,
                   help="in-flight frame corruption probability ceiling")
    p.add_argument("--codeword-rots", type=int, default=2,
                   help="seeded in-memory codeword bit flips")
    p.add_argument("--checkpoint-rots", type=int, default=1,
                   help="checkpoint files damaged inside crash windows")
    p.add_argument("--torn-writes", type=int, default=1,
                   help="checkpoint files truncated inside crash windows")
    p.add_argument("--scrub-interval", type=float, default=50.0,
                   help="scrub round interval in simulated ms")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser(
        "serve", help="run one CausalEC server as a standalone TCP process"
    )
    p.add_argument("--id", type=int, required=True,
                   help="this server's id in [0, N)")
    p.add_argument("--peers", required=True,
                   help="comma-separated host:port for servers 0..N-1")
    p.add_argument("--code", default="example1", choices=["example1", "six-dc"])
    p.add_argument("--store", default=None,
                   help="checkpoint directory (default: a fresh temp dir)")
    p.add_argument("--gc-interval", type=float, default=25.0)
    p.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
