"""Seeded chaos soak against the live asyncio runtime.

:func:`run_live_chaos` is the live counterpart of
:func:`repro.sim.chaos.run_chaos`: it derives the *same* seeded
:class:`~repro.sim.chaos.ChaosSchedule` (lossy links, duplications, a
partition window, crash-restarts), but replays it against a real TCP
cluster through the chaos stack this package adds --

* :class:`~repro.runtime.chaos_rt.LiveFaultInjector` drops/duplicates/
  delays frames inside every peer channel, deterministically per seed;
* a :class:`~repro.sim.faults.FaultPlan` schedules the kills and
  connection resets on the event loop;
* a :class:`~repro.runtime.supervisor.Supervisor` notices the kills and
  restarts the victims with exponential backoff;
* every server's heartbeat :class:`~repro.protocol.failure_detector
  .FailureDetectorCore` suspects the dead, which triggers client
  failover for reads;
* an :class:`~repro.runtime.auditor.OnlineAuditor` tails every server's
  decision log over TCP and checks causal consistency *while the chaos
  runs*.

After the fault window the injector is disabled, the supervisor heals the
cluster, and the run must **converge**: every client reads every object
from its (possibly switched) server and all answers agree.  The verdict
combines the online auditor, the offline history checkers, and the
convergence check; ``artifact_dir`` captures auditor and supervisor
dumps for CI on failure.
"""

from __future__ import annotations

import asyncio
from contextlib import AsyncExitStack, asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..consistency.causal import (
    check_causal_consistency,
    check_returns_written_values,
)
from ..protocol.client_core import RetryPolicy
from ..protocol.failure_detector import FailureDetectorConfig
from ..protocol.repair_core import RepairConfig
from ..protocol.scrub_core import ScrubConfig
from ..protocol.server_core import ServerConfig
from ..sim.chaos import ChaosConfig, ChaosSchedule
from ..sim.faults import FaultPlan
from ..sim.network import LinkFaults, PartitionPlan
from .asyncio_rt import AsyncioCluster
from .auditor import OnlineAuditor
from .chaos_rt import LiveFaultInjector
from .supervisor import RestartPolicy, Supervisor

__all__ = ["LiveChaosResult", "live_cluster", "run_live_chaos", "verdict"]

#: extra rng stream salts (distinct from ChaosSchedule's 0xC4A05 and the
#: injector's lane salt, so live-only decisions never perturb the schedule)
_WORKLOAD_SALT = 0x11FE01
_RESET_SALT = 0x11FE02


@dataclass
class LiveChaosResult:
    """Verdict and observability counters for one live chaos run."""

    seed: int
    ok: bool
    violations: list[str]
    converged: bool
    completed: int
    failed: int
    dropped: int
    duplicated: int
    severed: int
    delayed: int
    audit_records: int
    detector_transitions: list[tuple[int, int, str]]
    client_switches: int
    supervisor_restarts: int
    schedule: ChaosSchedule
    artifacts: list[str] = field(default_factory=list)
    #: aggregated anti-entropy counters (empty dict when repair is off)
    repair: dict[str, float] = field(default_factory=dict)
    #: frames bit-flipped in flight by the injector
    corrupted: int = 0
    #: aggregated scrub/integrity counters (empty dict when scrub is off)
    scrub: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        suspects = sum(1 for _, _, k in self.detector_transitions if k == "suspect")
        lines = [
            f"live chaos seed {self.seed}: {verdict} "
            f"(drop={self.schedule.drop_prob:.2f}, "
            f"dup={self.schedule.dup_prob:.2f}, "
            f"corrupt={self.schedule.corrupt_prob:.2f}, "
            f"partitions={len(self.schedule.partitions)}, "
            f"crashes={len(self.schedule.crashes)})",
            f"  ops: {self.completed} completed, {self.failed} failed fast",
            f"  frames: {self.dropped} dropped, {self.duplicated} duplicated, "
            f"{self.severed} severed, {self.delayed} delayed",
            f"  detector: {suspects} suspicion(s); "
            f"clients switched home {self.client_switches} time(s)",
            f"  supervisor: {self.supervisor_restarts} restart(s); "
            f"auditor ingested {self.audit_records} record(s); "
            f"converged={self.converged}",
        ]
        if self.repair:
            lines.append(
                "  repair: %d round(s), %d install(s), %d decode(s), "
                "%d bytes shipped"
                % (
                    self.repair.get("rounds_completed", 0),
                    self.repair.get("entries_installed", 0),
                    self.repair.get("symbols_decoded", 0),
                    self.repair.get("bits_shipped", 0) // 8,
                )
            )
        if self.corrupted or self.scrub:
            lines.append(
                "  integrity: %d frame(s) bit-flipped (%d rejected by CRC), "
                "%d quarantine(s) (%d by scrub round), %d healed, "
                "%d checkpoint report(s)"
                % (
                    self.corrupted,
                    self.scrub.get("frames_corrupt", 0),
                    self.scrub.get("integrity_quarantines", 0),
                    self.scrub.get("corrupt_detected", 0),
                    self.scrub.get("healed", 0),
                    self.scrub.get("checkpoint_reports", 0),
                )
            )
        lines.extend(f"  violation: {v}" for v in self.violations)
        return "\n".join(lines)


async def _client_workload(client, cluster, cfg, seed, index, scale):
    """One client's seeded op stream; returns (completed, failed)."""
    rng = np.random.default_rng((seed, _WORKLOAD_SALT, index))
    completed = failed = 0
    for k in range(cfg.ops_per_client):
        await asyncio.sleep(
            float(rng.exponential(cfg.think_time_mean)) * scale / 1000.0
        )
        obj = int(rng.integers(0, cfg.num_objects))
        try:
            if rng.random() < cfg.read_ratio:
                op = await client.read(obj)
            else:
                op = await client.write(
                    obj, cluster.value(1000 * index + k + 1)
                )
            if op.failed:
                failed += 1
            else:
                completed += 1
        except Exception:  # noqa: BLE001 - chaos: count, keep soaking
            failed += 1
    return completed, failed


@asynccontextmanager
async def live_cluster(code, *, supervise=None, **cluster_kwargs):
    """Boot an auditor, ``AsyncioCluster(code, **cluster_kwargs)`` streaming
    to it, and a supervisor (``supervise``, a :class:`RestartPolicy`);
    yield ``(cluster, auditor, supervisor)``.

    On any exit -- return, exception or cancellation -- the supervisor is
    stopped, the cluster shut down and the auditor closed, in that order,
    each even if an earlier step raised.
    """
    async with AsyncExitStack() as stack:
        auditor = OnlineAuditor()
        await auditor.start()
        stack.push_async_callback(auditor.close)
        cluster = AsyncioCluster(
            code, audit_addr=auditor.address, **cluster_kwargs
        )
        stack.push_async_callback(cluster.shutdown)
        await cluster.start()
        supervisor = None
        if supervise is not None:
            supervisor = Supervisor(cluster, supervise)
            stack.push_async_callback(supervisor.stop)
            supervisor.start()
        yield cluster, auditor, supervisor


async def verdict(cluster, auditor) -> list[str]:
    """Once the auditor's record count has stopped moving, its violations,
    then the offline causal-consistency and returns-written-values checks;
    raises nothing."""
    stable, last = 0, -1
    while stable < 5:
        await asyncio.sleep(0.03)
        n = auditor.records_received
        stable = stable + 1 if n == last else 0
        last = n
    violations = [
        f"auditor: {v.kind}: {v.detail}" for v in auditor.finalize()
    ]
    zero = cluster.code.zero_value()
    violations += check_causal_consistency(
        cluster.history, zero, raise_on_violation=False
    )
    violations += check_returns_written_values(
        cluster.history, zero, raise_on_violation=False
    )
    return violations


async def _run(
    code, seed, cfg, time_scale, jitter_ms, artifact_dir, repair, scrub, schedule
):
    if schedule is None:
        schedule = ChaosSchedule.generate(seed, code.N, cfg)
    if scrub is None and cfg.scrub_interval is not None:
        scrub = ScrubConfig(interval=cfg.scrub_interval * time_scale)
    faults = LinkFaults(
        drop_prob=schedule.drop_prob,
        dup_prob=schedule.dup_prob,
        partitions=PartitionPlan(schedule.partitions),
        seed=(seed * 2 + 1),
        until=cfg.fault_end,
        corrupt_prob=schedule.corrupt_prob,
    )
    injector = LiveFaultInjector(
        faults, time_scale=time_scale, jitter_ms=jitter_ms
    )
    artifacts: list[str] = []
    async with live_cluster(
        code,
        supervise=RestartPolicy(initial_delay=0.1, max_delay=1.0),
        config=ServerConfig(gc_interval=cfg.gc_interval),
        retry=RetryPolicy(
            timeout=cfg.retry_timeout * time_scale,
            backoff=cfg.retry_backoff,
            max_retries=cfg.retry_max,
        ),
        chaos=injector,
        detector=FailureDetectorConfig(),
        repair=repair,
        scrub=scrub,
    ) as (cluster, auditor, supervisor):
        clients = [
            await cluster.add_client(i, failover=True) for i in range(code.N)
        ]

        # kills from the schedule; the supervisor (not the schedule's
        # restart time) brings victims back -- that's the layer under test.
        # One seeded connection reset in mid-window stresses ARQ replay.
        plan = FaultPlan(rot_seed=seed)
        for down, _up, victim in schedule.crashes:
            plan.halt(down, victim)
        plan.rots = list(schedule.rots)
        plan.disk_rots = list(schedule.disk_rots)
        plan.torn_writes = list(schedule.torn_writes)
        reset_rng = np.random.default_rng((seed, _RESET_SALT))
        plan.reset_connections(
            float(
                reset_rng.uniform(
                    cfg.fault_start,
                    cfg.fault_start + 0.5 * (cfg.fault_end - cfg.fault_start),
                )
            ),
            int(reset_rng.integers(0, code.N)),
        )
        cluster.apply_fault_plan(plan, time_scale=time_scale)

        results = await asyncio.gather(
            *(
                _client_workload(c, cluster, cfg, seed, i, time_scale)
                for i, c in enumerate(clients)
            )
        )
        completed = sum(r[0] for r in results)
        failed = sum(r[1] for r in results)

        # heal: no more injected faults; wait for the supervisor to revive
        # every victim, then let the protocol converge (Thm. 4.5 live).
        injector.disable()
        deadline = asyncio.get_running_loop().time() + 15.0
        while any(s.halted for s in cluster.servers):
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError("supervisor failed to heal the cluster")
            await asyncio.sleep(0.05)
        await cluster.quiesce(timeout=60.0)

        # convergence: every client reads every object; all must agree
        converged = True
        divergences: list[str] = []
        for x in range(code.K):
            vals: list[tuple[int, object, object]] = []
            for client in clients:
                r = await client.read(x)
                if r.failed:
                    converged = False
                    divergences.append(
                        f"obj {x}: client {client.core.node_id} final read "
                        f"failed ({r.error})"
                    )
                    continue
                vals.append((client.core.node_id, r.value, r.tag))
            if not vals:
                converged = False
            elif any(not np.array_equal(v, vals[0][1]) for _, v, _ in vals[1:]):
                converged = False
                divergences.append(
                    "obj %d: final reads disagree: %s"
                    % (
                        x,
                        "; ".join(
                            f"client {c} saw tag {t}" for c, _, t in vals
                        ),
                    )
                )
        await cluster.quiesce(timeout=60.0)

        violations = await verdict(cluster, auditor)
        if not converged:
            violations.append(
                "no convergence after faults ceased: "
                + ("; ".join(divergences) or "no final read completed")
            )
        scrub_totals = cluster.scrub_stats() if scrub is not None else {}
        if injector.corrupted >= 3 and scrub is not None:
            # bit-flipped frames must be getting rejected by the CRC.
            # Individual flipped frames can die with a torn connection
            # before any receiver sees them, so the check is "rejections
            # observed", not a per-frame ledger; >= 3 injections makes
            # zero rejections a real failure, not scheduling noise.
            if scrub_totals.get("frames_corrupt", 0) == 0:
                violations.append(
                    f"silent corruption: {injector.corrupted} frame(s) "
                    "bit-flipped in flight but no CRC rejection recorded"
                )
        if schedule.rots:
            expected = len({s for _, s in schedule.rots})
            detected = sum(
                s.core.stats.integrity_quarantines for s in cluster.servers
            )
            if detected < expected:
                violations.append(
                    f"silent corruption: {expected} codeword rot(s) "
                    f"injected but only {detected} quarantine(s) recorded"
                )

        ok = not violations
        if not ok and artifact_dir is not None:
            root = Path(artifact_dir)
            artifacts.append(
                str(auditor.dump(root / f"seed{seed}-auditor.json"))
            )
            artifacts.append(
                str(supervisor.dump(root / f"seed{seed}-supervisor.json"))
            )
        return LiveChaosResult(
            seed=seed,
            ok=ok,
            violations=violations,
            converged=converged,
            completed=completed,
            failed=failed,
            dropped=injector.dropped,
            duplicated=injector.duplicated,
            severed=injector.severed,
            delayed=injector.delayed,
            audit_records=auditor.checker.records_ingested,
            detector_transitions=list(cluster.detector_transitions),
            client_switches=sum(len(c.switch_log) for c in clients),
            supervisor_restarts=sum(supervisor.restarts.values()),
            schedule=schedule,
            artifacts=artifacts,
            repair=cluster.repair_stats(),
            corrupted=injector.corrupted,
            scrub=scrub_totals,
        )


def run_live_chaos(
    code,
    seed: int,
    config: ChaosConfig | None = None,
    time_scale: float = 4.0,
    jitter_ms: float = 6.0,
    artifact_dir: str | Path | None = None,
    repair: RepairConfig | None = None,
    scrub: ScrubConfig | None = None,
    schedule: ChaosSchedule | None = None,
) -> LiveChaosResult:
    """Run one seeded chaos schedule against a live asyncio cluster.

    ``config`` is the same :class:`~repro.sim.chaos.ChaosConfig` the
    simulator's harness takes (schedule times are simulated milliseconds);
    ``time_scale`` maps them onto the real clock.  ``repair`` attaches the
    anti-entropy overlay to every server; its counters land in
    ``result.repair``.  ``scrub`` attaches the bit-rot scrubber (defaulted
    from ``config.scrub_interval``, scaled, when set); with corruption in
    the schedule the verdict additionally requires every injected rot to
    have been *detected* (CRC rejections, quarantines).  Returns a
    :class:`LiveChaosResult`; ``result.ok`` means zero auditor violations,
    clean offline checks, detected corruption, and a converged cluster.

    ``schedule`` replaces the one ``seed`` generates (``repro cluster``
    builds one from its flags); ``seed`` still drives the workload, the
    link-fault lanes and the connection reset.
    """
    cfg = config or ChaosConfig()
    return asyncio.run(
        _run(
            code, seed, cfg, time_scale, jitter_ms, artifact_dir, repair,
            scrub, schedule,
        )
    )
