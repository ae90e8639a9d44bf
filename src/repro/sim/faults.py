"""Fault injection: scheduled crashes and latency degradation.

The paper's fault model is halting (crash) failures; channels stay reliable
and FIFO, but asynchrony puts no bound on delays.  This module provides

* :class:`FaultPlan` -- halt/restart specific servers at specific times,
  plus scheduled *connection resets* for runtimes with real connections,
* :class:`DegradedLatency` -- a latency-model wrapper that multiplies
  delays on selected channels during configured windows (a "slow but alive"
  adversary, legal under asynchrony).

Link-level faults (:class:`~repro.sim.network.LinkFaults` with drops,
duplications, and :class:`~repro.sim.network.PartitionPlan` partitions) are
defined in :mod:`~repro.sim.network` and re-exported here: together with
:class:`FaultPlan` they form the complete chaos vocabulary, and the *same*
schedule objects drive both the discrete-event simulator and the live
asyncio runtime's fault-injection shim
(:class:`~repro.runtime.chaos_rt.LiveFaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import LatencyModel, LinkFaults, PartitionPlan, PartitionWindow
from .scheduler import Scheduler

__all__ = [
    "FaultPlan",
    "DegradedLatency",
    "LatencySpike",
    "LinkFaults",
    "PartitionPlan",
    "PartitionWindow",
]


@dataclass
class FaultPlan:
    """A schedule of crash, recovery, and connection-reset faults.

    ``halts``/``restarts`` are (time, server-index) pairs and apply to every
    runtime.  ``resets`` schedules *connection resets*: at the given time
    the server abruptly closes its established peer connections (they
    redial and replay).  Resets only exist where connections do -- the live
    asyncio runtime; the simulator's channels are connectionless, so
    :meth:`apply` ignores them there (a reset is a no-op fault for a model
    whose transport never loses channel state).

    Silent-corruption faults (all seeded by ``rot_seed`` so schedules
    replay identically):

    * ``rots`` -- flip bits in the server's in-memory codeword symbol;
      detected by the integrity seal at the next guard or scrub round.
    * ``disk_rots`` -- flip bits in the server's durable checkpoint (live
      runtime: real bit flips in the file; simulator: the slot is marked
      rotted and fails verification, the same detection-level model).
    * ``torn_writes`` -- truncate the checkpoint mid-file, modelling a
      crash that cuts a checkpoint slot's in-place overwrite short.
    """

    halts: list[tuple[float, int]] = field(default_factory=list)
    #: permanent halts: the machine never comes back -- supervisors must
    #: not resurrect it, and dynamic-membership clusters may auto-replace
    kill_forevers: list[tuple[float, int]] = field(default_factory=list)
    restarts: list[tuple[float, int]] = field(default_factory=list)
    resets: list[tuple[float, int]] = field(default_factory=list)
    rots: list[tuple[float, int]] = field(default_factory=list)
    disk_rots: list[tuple[float, int]] = field(default_factory=list)
    torn_writes: list[tuple[float, int]] = field(default_factory=list)
    rot_seed: int = 0

    @staticmethod
    def _validate(at_time: float, server: int) -> tuple[float, int]:
        at_time = float(at_time)
        if not np.isfinite(at_time) or at_time < 0:
            raise ValueError(f"fault time must be finite and >= 0, got {at_time}")
        if not isinstance(server, (int, np.integer)) or isinstance(server, bool):
            raise ValueError(f"server must be an integer index, got {server!r}")
        if server < 0:
            raise ValueError(f"server index must be >= 0, got {server}")
        return at_time, int(server)

    def halt(self, at_time: float, server: int) -> "FaultPlan":
        self.halts.append(self._validate(at_time, server))
        return self

    def halt_forever(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule a *permanent* failure: the server halts and is marked
        never-coming-back (supervisors skip it; auto-replace may claim it)."""
        self.kill_forevers.append(self._validate(at_time, server))
        return self

    def restart(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule a crash-*recovery*: the server rejoins at ``at_time``."""
        self.restarts.append(self._validate(at_time, server))
        return self

    def reset_connections(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule an abrupt close of the server's peer connections."""
        self.resets.append(self._validate(at_time, server))
        return self

    def corrupt_codeword(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule in-memory bit rot of the server's codeword symbol."""
        self.rots.append(self._validate(at_time, server))
        return self

    def corrupt_checkpoint(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule bit rot of the server's durable checkpoint."""
        self.disk_rots.append(self._validate(at_time, server))
        return self

    def torn_write(self, at_time: float, server: int) -> "FaultPlan":
        """Schedule a torn write (truncation) of the durable checkpoint."""
        self.torn_writes.append(self._validate(at_time, server))
        return self

    def all_faults(self) -> list[tuple[float, int]]:
        return (
            self.halts + self.kill_forevers + self.restarts + self.resets
            + self.rots + self.disk_rots + self.torn_writes
        )

    def apply(self, cluster) -> None:
        """Arm all faults on a cluster's scheduler (resets are ignored:
        the simulator's channels have no connection state to reset)."""
        n = len(cluster.servers)
        for at_time, server in self.all_faults():
            if server >= n:
                raise ValueError(
                    f"server index {server} out of range for a "
                    f"{n}-server cluster"
                )
        for at_time, server in self.halts:
            node = cluster.servers[server]
            cluster.scheduler.at(at_time, node.halt)

        def _halt_forever(node) -> None:
            node.halt()
            # the marker is what supervisors/replacement logic key off;
            # simulated servers grow it dynamically
            node.permanently_failed = True

        for at_time, server in self.kill_forevers:
            node = cluster.servers[server]
            cluster.scheduler.at(at_time, lambda node=node: _halt_forever(node))
        for at_time, server in self.restarts:
            node = cluster.servers[server]
            cluster.scheduler.at(at_time, node.restart)
        for at_time, server in self.rots:
            node = cluster.servers[server]
            cluster.scheduler.at(
                at_time,
                lambda node=node: node.corrupt_codeword(seed=self.rot_seed),
            )
        durable = getattr(cluster, "durable", None)
        # torn writes and disk rot converge in the simulator: both damage
        # the slot so verification/load detects it (the live runtime's
        # file store distinguishes the two byte-level mechanisms)
        for at_time, server in self.disk_rots + self.torn_writes:
            if durable is None:
                raise ValueError(
                    "checkpoint-corruption faults need a durable cluster"
                )
            cluster.scheduler.at(
                at_time, lambda s=server: durable.corrupt(s)
            )


@dataclass(frozen=True)
class LatencySpike:
    """One degradation window: delays on matching channels multiply."""

    start: float
    end: float
    factor: float
    src: int | None = None  # None matches every source
    dst: int | None = None  # None matches every destination

    def matches(self, now: float, src: int, dst: int) -> bool:
        return (
            self.start <= now < self.end
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
        )


class DegradedLatency(LatencyModel):
    """Wraps a base model; active spikes multiply the drawn delay."""

    def __init__(
        self,
        base: LatencyModel,
        scheduler: Scheduler,
        spikes: list[LatencySpike] | None = None,
    ):
        self.base = base
        self.scheduler = scheduler
        self.spikes = list(spikes or [])

    def add_spike(self, spike: LatencySpike) -> "DegradedLatency":
        self.spikes.append(spike)
        return self

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        d = self.base.delay(src, dst, rng)
        now = self.scheduler.now
        for spike in self.spikes:
            if spike.matches(now, src, dst):
                d *= spike.factor
        return d
