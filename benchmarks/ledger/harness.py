"""Runs one workload against a live in-process cluster and measures it.

The system under test is fixed (see README): ``AsyncioCluster`` over the
(5,3) example code on GF(257), real loopback TCP, ``gc_interval=50`` ms,
``RetryPolicy(250 ms, 6 retries)``, batching and CRC on, nothing else
attached.  The load is generated from the cluster's own event loop.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.consistency.causal import (
    check_causal_consistency,
    check_eventual_visibility,
    check_returns_written_values,
    expected_final_value,
)
from repro.ec.codes import example1_code
from repro.ec.field import PrimeField
from repro.protocol.client_core import RetryPolicy
from repro.protocol.server_core import ServerConfig
from repro.runtime.asyncio_rt import AsyncioCluster

import lanes
import trace
from workloads import K, N, Workload, arrivals, client_ops, preload_values

HERE = Path(__file__).resolve().parent
#: every file the benchmark writes lives under here (ignored by git)
RUN_ROOT = HERE / ".run"

WARMUP_S = 2.0
#: set-ups timed per run; ``setup_s`` is their median
SETUPS = 5
#: open loop: total pooled clients; an arrival past the cap is a failure
POOL_CAP = 256
#: open loop pass rule: p90 from the due time, and no growing backlog
P90_LIMIT_MS = 500.0
BACKLOG_LIMIT_S = 1.0
RUNGS = 8
#: a rung that has not drained this long after its last arrival is abandoned
DRAIN_S = 10.0
HEARTBEAT_S = 0.010

_perf = time.perf_counter


def server_config() -> ServerConfig:
    return ServerConfig(gc_interval=50.0)


def store_fs(path: Path) -> str:
    """File-system type holding ``path`` (longest mount-point prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def pct(values, q: float) -> float:
    """Percentile, or 0.0 for an empty sample (metric not applicable)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class Run:
    """One benchmark process: recorder, op tally, checks, scratch directory."""

    def __init__(self, w: Workload, seed: int, traced: bool):
        self.w = w
        self.seed = seed
        self.traced = traced
        self.rec = trace.Recorder()
        self.code = example1_code(PrimeField(257), value_len=w.value_len)
        self.root = RUN_ROOT / f"{os.getpid()}"
        #: every client operation the benchmark issued / how many failed
        self.attempted = 0
        self.failed = 0
        #: why ``failed`` is not 0 / why ``correct`` is false
        self.failures: list[str] = []
        self.violations: list[str] = []
        self.setup_s: list[float] = []
        self.restart_ms: list[float] = []
        self.check_s = 0.0
        #: core events of the traced cluster, for the replay lane
        self.tape: list[tuple] = []
        self._dirs = 0

    def fail_ops(self, why: str, n: int = 1) -> None:
        self.failed += n
        self.failures.append(why)

    # -- cluster lifecycle --------------------------------------------------

    async def issue(self, client, is_read: bool, key: int, value):
        self.attempted += 1
        op = await (client.read(key) if is_read else client.write(key, value))
        if op.failed:
            self.fail_ops(f"op {op.opid} failed: {op.error!r}")
        return op

    async def boot(self, homes) -> tuple:
        """Set-up, timed: boot, connect clients, preload each object, quiesce."""
        self._dirs += 1
        store_dir = self.root / f"store{self._dirs}"
        store_dir.mkdir(parents=True)
        gc.collect()
        t0 = _perf()
        cluster = AsyncioCluster(
            self.code,
            config=server_config(),
            store_dir=store_dir,
            retry=RetryPolicy(timeout=250.0, max_retries=6),
        )
        await cluster.start()
        clients = [await cluster.add_client(server=h) for h in homes]
        for key, value in enumerate(preload_values(self.w, self.seed)):
            await self.issue(clients[key % len(clients)], False, key,
                             cluster.value(value))
        await cluster.quiesce()
        self.setup_s.append(_perf() - t0)
        return cluster, clients, store_dir

    async def extra_setups(self, homes) -> None:
        """Time set-up on throwaway clusters until ``SETUPS`` samples exist."""
        while len(self.setup_s) < SETUPS:
            cluster, _, store_dir = await self.boot(homes)
            await cluster.shutdown()
            shutil.rmtree(store_dir, ignore_errors=True)

    # -- correctness ----------------------------------------------------------

    async def verify(self, cluster, store_dir: Path) -> float:
        """Quiesce, check the history, then kill/restart every server.

        Returns the bytes at rest under ``store_dir`` after quiescence.
        """
        await cluster.quiesce()
        zero = self.code.zero_value()
        history = cluster.history
        final_reads: dict[int, list] = {k: [] for k in range(K)}
        for s in range(N):
            probe = await cluster.add_client(server=s)
            for k in range(K):
                op = await self.issue(probe, True, k, None)
                if op.done:
                    final_reads[k].append(op.value)
        t0 = _perf()
        self.violations += (
            check_causal_consistency(history, zero, raise_on_violation=False)
            + check_returns_written_values(history, zero, raise_on_violation=False)
            + check_eventual_visibility(
                history, final_reads, zero, raise_on_violation=False
            )
        )
        self.check_s += _perf() - t0
        at_rest = sum(f.stat().st_size for f in store_dir.iterdir())
        await self._restart_sweep(cluster, history, zero)
        return float(at_rest)

    async def _restart_sweep(self, cluster, history, zero) -> None:
        """``restart_ok``: each server in turn is killed, restarted from its
        checkpoint file alone, and must come back with the clock it had
        acknowledged and serve every object's last acknowledged value.

        The store fsyncs before every rename, so at this point there are no
        unflushed bytes a crash could lose; a store that buffers (ROADMAP
        item 2) must extend this check to discard them first.
        """
        expected = [expected_final_value(history, k, zero) for k in range(K)]
        for s in range(N):
            before = tuple(cluster.servers[s].core.vc.components)
            t0 = _perf()
            await cluster.kill_server(s)
            await cluster.restart_server(s)
            self.restart_ms.append((_perf() - t0) * 1000.0)
            after = tuple(cluster.servers[s].core.vc.components)
            if after != before:
                self.violations.append(
                    f"restart_ok: server {s} came back with clock {after}, "
                    f"had acknowledged {before}"
                )
            probe = await cluster.add_client(server=s)
            for k in range(K):
                op = await self.issue(probe, True, k, None)
                if not op.done or not np.array_equal(op.value, expected[k]):
                    self.violations.append(
                        f"restart_ok: server {s} restarted from disk does not "
                        f"serve object {k}'s last acknowledged value"
                    )
        if cluster.store.corruption_reports:
            self.violations.append(
                f"restart_ok: {len(cluster.store.corruption_reports)} corrupt "
                f"checkpoint(s) found on restart"
            )

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------------------
# counters sampled at window edges


@dataclass
class Edge:
    wall: float
    cpu: float
    frames: int
    flushes: int
    client_frames: int
    fsyncs: int
    stats: dict[str, int]


def edge(run: Run, cluster) -> Edge:
    fs = cluster.frame_stats()
    totals: dict[str, int] = {}
    for s in cluster.servers:
        for name, v in vars(s.core.stats).items():
            totals[name] = totals.get(name, 0) + v
    return Edge(
        wall=_perf(),
        cpu=time.process_time(),
        frames=fs["frames_sent"],
        flushes=fs["flushes"],
        client_frames=sum(c.frames_sent for c in cluster.clients),
        fsyncs=run.rec.fsync_calls,
        stats=totals,
    )


@dataclass
class Window:
    """What happened between two :class:`Edge` samples."""

    a: Edge
    b: Edge
    #: ``(latency_ms, is_read)`` per operation completed inside the window
    done: list[tuple[float, bool]]
    #: operations started inside the window
    started: int
    #: seconds the completed operations are a rate over
    seconds: float
    storage_bytes: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.done)

    def lat(self, reads: bool | None = None) -> list[float]:
        return [ms for ms, is_read in self.done if reads is None or is_read == reads]

    def delta(self, attr: str) -> float:
        return getattr(self.b, attr) - getattr(self.a, attr)

    def stat(self, name: str) -> int:
        return self.b.stats.get(name, 0) - self.a.stats.get(name, 0)


def end_to_end(run: Run, win: Window) -> dict[str, float]:
    ops = max(win.ops, 1)
    return {
        "ops_per_s": win.ops / win.seconds,
        "op_p50_ms": pct(win.lat(), 50),
        "frames_per_op": win.delta("frames") / ops,
        "fsyncs_per_op": win.delta("fsyncs") / ops,
        "storage_bytes_per_user_byte": win.storage_bytes / (K * run.w.value_len),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(run.setup_s),
    }


# ---------------------------------------------------------------------------
# closed loop


async def closed_loop(run: Run, cluster, clients, seconds: float) -> Window:
    """Every client issues its next operation as soon as the last returns;
    the window opens after ``WARMUP_S`` and lasts ``seconds``."""
    stop = False
    done: list[tuple[float, float, bool]] = []  # end, latency_ms, is_read
    starts: list[float] = []

    async def client_loop(i, client):
        for is_read, key, value in client_ops(run.w, run.seed, i):
            if stop:
                return
            if value is not None:
                value = cluster.value(value)
            t0 = _perf()
            starts.append(t0)
            op = await run.issue(client, is_read, key, value)
            t1 = _perf()
            if op.done:
                done.append((t1, (t1 - t0) * 1e3, is_read))

    tasks = [
        asyncio.ensure_future(client_loop(i, c)) for i, c in enumerate(clients)
    ]
    try:
        await asyncio.sleep(WARMUP_S)
        run.rec.enabled = run.traced
        a = edge(run, cluster)
        await asyncio.sleep(seconds)
        b = edge(run, cluster)
        run.rec.enabled = False
    finally:
        stop = True
        await asyncio.gather(*tasks)
    return Window(
        a, b,
        [d[1:] for d in done if a.wall <= d[0] <= b.wall],
        sum(1 for t in starts if a.wall <= t <= b.wall),
        b.wall - a.wall,
    )


# ---------------------------------------------------------------------------
# open loop


@dataclass
class Rung:
    rate: float
    window: Window
    in_flight_at_end: int
    late_ms: list[float]
    passed: bool
    #: every operation settled before the drain limit
    drained: bool

    def describe(self) -> str:
        return (
            f"{self.rate:g} ops/s: p90 {pct(self.window.lat(), 90):.0f} ms, "
            f"{self.in_flight_at_end} in flight at the end of arrivals, "
            f"{'drained' if self.drained else 'drain abandoned'}, "
            f"{'pass' if self.passed else 'fail'}"
        )


async def open_rung(run: Run, cluster, clients, rung: int,
                    duration: float) -> Rung:
    """One rung: arrivals on a precomputed schedule, whatever the cluster
    does; latency is timed from the due time, not from dispatch."""
    schedule = arrivals(run.w, run.seed, rung, duration)
    rate = run.w.base_rate * 2 ** rung
    free: dict[int, list] = {s: [] for s in range(N)}
    for c in clients:
        free[c.core.server_id].append(c)
    pool = len(clients)
    done: list[tuple[float, bool]] = []
    late_ms: list[float] = []
    failed_before = run.failed

    async def one(client, site, due, is_read, key, value):
        if client is None:
            client = await cluster.add_client(server=site)
        if value is not None:
            value = cluster.value(value)
        op = await run.issue(client, is_read, key, value)
        free[site].append(client)
        if op.done:
            done.append(((_perf() - due) * 1e3, is_read))

    run.rec.enabled = run.traced
    a = edge(run, cluster)
    start = _perf() + 0.05
    tasks = []
    for offset, site, is_read, key, value in schedule:
        due = start + offset
        delay = due - _perf()
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms.append((_perf() - due) * 1e3)
        if free[site]:
            client = free[site].pop()
        elif pool < POOL_CAP:
            pool += 1
            client = None  # connected inside the operation's own task
        else:
            run.attempted += 1
            run.fail_ops(f"rate {rate:g}: client pool exhausted")
            continue
        tasks.append(asyncio.ensure_future(
            one(client, site, due, is_read, key, value)
        ))
    tail = start + duration - _perf()
    if tail > 0:
        await asyncio.sleep(tail)
    in_flight = sum(1 for t in tasks if not t.done())
    pending = (await asyncio.wait(tasks, timeout=DRAIN_S))[1] if tasks else ()
    b = edge(run, cluster)
    run.rec.enabled = False
    if pending:
        run.fail_ops(
            f"rate {rate:g}: {len(pending)} ops abandoned after "
            f"{DRAIN_S:g} s of drain", len(pending),
        )
        for t in pending:
            t.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
    window = Window(a, b, done, len(schedule), b.wall - start)
    passed = (
        run.failed == failed_before
        and pct(window.lat(), 90) <= P90_LIMIT_MS
        and in_flight <= rate * BACKLOG_LIMIT_S
    )
    return Rung(rate, window, in_flight, late_ms, passed, not pending)


# ---------------------------------------------------------------------------
# traced-run extras


class Probes:
    """What a traced run adds around one cluster: loop-idle spans, the
    heartbeat and, optionally, the core-event tape.  The tape starts before
    boot so that fresh cores fed the tape go through the same states."""

    def __init__(self, run: Run, lags_ms: list[float], tape: bool):
        self.run = run
        self.lags_ms = lags_ms
        if tape:
            run.rec.tape = []

    def start(self) -> None:
        trace.watch_loop_idle(self.run.rec, asyncio.get_running_loop())
        self._stop = asyncio.Event()
        self._beat = asyncio.ensure_future(self._heartbeat())

    async def _heartbeat(self) -> None:
        """How late a 10 ms sleep wakes = how long work waited for the loop."""
        while not self._stop.is_set():
            t0 = _perf()
            await asyncio.sleep(HEARTBEAT_S)
            self.lags_ms.append((_perf() - t0 - HEARTBEAT_S) * 1e3)

    async def stop(self) -> None:
        """Called before ``verify``: its kill/restart sweep is not taped."""
        self._stop.set()
        await self._beat
        if self.run.rec.tape is not None:
            self.run.tape, self.run.rec.tape = self.run.rec.tape, None


def ladder_metrics(rungs: list[Rung]) -> dict[str, float]:
    """All 0.0 for a closed loop (``rungs`` empty): it has no schedule."""
    ok = [r for r in rungs if r.passed]
    bad = [r for r in rungs if not r.passed]
    top = ok[-1].window.lat() if ok else []
    return {
        "loadgen.max_rate_ok": ok[-1].rate if ok else 0.0,
        "loadgen.late_ms_p95": pct([x for r in rungs for x in r.late_ms], 95),
        "client.p50_ms_at_max_ok": pct(top, 50),
        "client.p90_ms_at_max_ok": pct(top, 90),
        "client.p90_ms_first_fail": pct(bad[0].window.lat(), 90) if bad else 0.0,
    }


def per_layer(run: Run, wins: list[Window], rungs: list[Rung],
              lags_ms: list[float]) -> dict[str, float]:
    """Layer metrics over the traced window(s); shares are of wall time."""
    rec = run.rec
    table = trace.SpanTable(rec)

    def delta(attr):
        return sum(w.delta(attr) for w in wins)

    def stat(name):
        return sum(w.stat(name) for w in wins)

    wall = delta("wall")
    ops = max(sum(w.ops for w in wins), 1)

    def ms_per_op(seconds):
        return seconds * 1e3 / ops

    busy = {layer: table.layer_self(layer) for layer in trace.LAYERS}
    fsync = table.name_total(trace.FSYNC)
    idle = table.name_total(trace.IDLE)
    # One thread, so the window's wall time splits exactly into the layers'
    # self times, the loop's wait in select, and the rest: asyncio itself,
    # sockets, client cores and this harness.
    other = wall - sum(busy.values()) - idle
    # Cross-check from a second clock: process cpu plus the time waited (not
    # computed) in select and fsync should also cover the window.  Below 1
    # when the thread blocked elsewhere (page cache, rename, a stolen cpu);
    # above 1 only if the spans are wrong.
    waited = fsync + idle - rec.wait_cpu[trace.FSYNC] - rec.wait_cpu[trace.IDLE]
    events = table.layer_calls("server_core")
    captures = table.name_calls("snapshot.capture_server_state")
    reads = [x for w in wins for x in w.lat(reads=True)]
    writes = [x for w in wins for x in w.lat(reads=False)]
    m = {
        "ec.busy_share": busy["ec"] / wall,
        "ec.ms_per_op": ms_per_op(busy["ec"]),
        "ec.calls_per_op": table.layer_calls("ec") / ops,
        "wire.busy_share": busy["wire"] / wall,
        "wire.frame_ms_per_op": ms_per_op(busy["wire"] - table.wire_under_persist),
        "wire.bytes_per_op": (
            rec.bytes["wire.encode_frame"] + rec.bytes["wire.encode_frames"]
        ) / ops,
        "server_core.busy_share": busy["server_core"] / wall,
        "server_core.ms_per_op": ms_per_op(busy["server_core"]),
        "server_core.events_per_op": events / ops,
        "server_core.timer_share": (
            table.name_calls("server_core.handle_timer") / max(events, 1)
        ),
        "server_core.parked_per_op": stat("parked_requests") / ops,
        "server_core.remote_read_share": (
            stat("remote_reads") / max(stat("reads"), 1)
        ),
        "server_core.gc_runs_per_op": stat("gc_runs") / ops,
        "snapshot.busy_share": busy["snapshot"] / wall,
        "snapshot.ms_per_op": ms_per_op(busy["snapshot"]),
        "snapshot.captures_per_op": captures / ops,
        "snapshot.us_per_capture": busy["snapshot"] * 1e6 / max(captures, 1),
        "durable_store.busy_share": busy["durable_store"] / wall,
        "durable_store.persist_ms_per_op": ms_per_op(
            table.name_total("durable_store.persist")
        ),
        "durable_store.wire_ms_per_op": ms_per_op(table.wire_under_persist),
        "durable_store.fsync_ms_per_op": ms_per_op(fsync),
        "durable_store.persists_per_op": (
            table.name_calls("durable_store.persist") / ops
        ),
        "durable_store.bytes_per_op": rec.fsync_bytes / ops,
        "durable_store.write_amp": (
            rec.fsync_bytes / (max(len(writes), 1) * run.w.value_len)
        ),
        "asyncio_rt.other_share": other / wall,
        "asyncio_rt.idle_share": idle / wall,
        "asyncio_rt.flushes_per_op": delta("flushes") / ops,
        "asyncio_rt.frames_per_flush": delta("frames") / max(delta("flushes"), 1),
        "asyncio_rt.loop_lag_ms_p50": pct(lags_ms, 50),
        "asyncio_rt.loop_lag_ms_p95": pct(lags_ms, 95),
        "asyncio_rt.restart_ms": (
            statistics.median(run.restart_ms) if run.restart_ms else 0.0
        ),
        "client_core.retries_per_op": (
            delta("client_frames") - sum(w.started for w in wins)
        ) / ops,
        "client.ops_per_s": ops / sum(w.seconds for w in wins),
        "client.read_p50_ms": pct(reads, 50),
        "client.write_p50_ms": pct(writes, 50),
        "client.read_p95_ms": pct(reads, 95),
        "client.write_p95_ms": pct(writes, 95),
        "consistency.check_s": run.check_s,
        "trace.overhead_share": table.spans * trace.span_cost_s() / wall,
        "trace.spans": float(table.spans),
        "trace.clock_closure": (delta("cpu") + waited) / wall,
    }
    m.update(ladder_metrics(rungs))
    m.update(lanes.run_all(run.root, run.tape, run.code, server_config()))
    return m


# ---------------------------------------------------------------------------
# one run


async def run_closed(run: Run, seconds: float) -> dict[str, float]:
    w = run.w
    lags: list[float] = []
    probes = Probes(run, lags, tape=True) if run.traced else None
    cluster, clients, store_dir = await run.boot(w.homes)
    try:
        if probes:
            probes.start()
        win = await closed_loop(run, cluster, clients, seconds)
        if probes:
            await probes.stop()
        win.storage_bytes = await run.verify(cluster, store_dir)
    finally:
        await cluster.shutdown()
    if run.traced:
        return per_layer(run, [win], [], lags)
    await run.extra_setups(w.homes)
    return end_to_end(run, win)


async def rung_on_fresh_cluster(run: Run, rung: int, duration: float,
                                probes: Probes) -> Rung:
    cluster, clients, store_dir = await run.boot(range(N))
    try:
        probes.start()
        result = await open_rung(run, cluster, clients, rung, duration)
        await probes.stop()
        # an abandoned rung left a backlog behind cancelled operations:
        # there is no quiescent state to check, and it has failed already
        if result.drained:
            result.window.storage_bytes = await run.verify(cluster, store_dir)
    finally:
        await cluster.shutdown()
    print(f"  rung {result.describe()}", flush=True)
    return result


async def run_ladder(run: Run, seconds: float) -> dict[str, float]:
    """Climb the open-loop ladder in steps of a third of the window, each
    rung on a fresh cluster, stopping at the first rung that fails."""
    rungs: list[Rung] = []
    lags: list[float] = []
    for k in range(RUNGS):
        tally = run.attempted, run.failed, len(run.failures)
        # the replay lane's tape is the base rung's
        rungs.append(await rung_on_fresh_cluster(
            run, k, seconds / 3.0, Probes(run, lags, tape=k == 0)
        ))
        if not rungs[-1].passed:
            if k > 0:
                # the climb is meant to end on a rung the cluster cannot
                # carry; that rung is the probe that found the limit, so its
                # operations are reported as client.p90_ms_first_fail and not
                # as operations the benchmark attempted and lost
                run.attempted, run.failed = tally[:2]
                del run.failures[tally[2]:]
            break
    return per_layer(run, [r.window for r in rungs], rungs, lags)


def execute(w: Workload, seed: int, seconds: float, traced: bool,
            trace_out: str | None = None) -> dict:
    """Run one workload in this process; returns the contract's result plus
    ``store_fs`` and the reasons for any failure."""
    run = Run(w, seed, traced)
    undo = trace.install(run.rec)
    try:
        metrics = asyncio.run(
            (run_ladder if traced and w.base_rate else run_closed)(run, seconds)
        )
        if trace_out:
            run.rec.dump(trace_out)
    finally:
        trace.uninstall(undo)
        run.cleanup()
    return {
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "store_fs": store_fs(HERE),
        "reasons": run.violations[:20] + run.failures[:20],
    }
