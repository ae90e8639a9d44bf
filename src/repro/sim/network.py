"""Point-to-point channels (Sec. 2.1), optionally made unreliable.

The paper assumes every pair of servers is connected by a reliable,
asynchronous, FIFO channel; clients exchange messages only with their home
server.  By default :class:`Network` provides exactly that:

* **Reliable** -- every sent message is eventually delivered (unless the
  destination has halted, in which case delivery is suppressed, modelling a
  crashed node that takes no further steps).
* **FIFO** -- per-channel delivery times are clamped to be non-decreasing,
  so jittery latency models cannot reorder a channel.
* **Asynchronous** -- per-message delay comes from a pluggable
  :class:`LatencyModel` (constant RTT/2 matrix, uniform, exponential, ...).

Real deployments do not get that channel for free; they build it out of a
lossy substrate.  Attaching a :class:`LinkFaults` model turns the network
into that substrate: per-channel drop and duplication probabilities, timed
:class:`PartitionWindow` cuts between node groups, and crash-*restart*
(:meth:`Network.restart`) in addition to permanent halts.  The ARQ sublayer
in :mod:`repro.sim.transport` then re-establishes the paper's reliable FIFO
abstraction on top, so protocol code is unchanged either way.

Fault decisions draw from the fault model's *own* RNG: a network with
``faults=None`` consumes exactly the same random stream as before the fault
layer existed, keeping fault-free executions bit-for-bit reproducible.

The network also keeps per-message-type counters (count and payload bits) so
benchmarks can report the communication costs of Sec. 4.2 without touching
protocol code.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .liveness import LivenessRegistry
from .scheduler import Scheduler

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "MatrixLatency",
    "UniformLatency",
    "ExponentialLatency",
    "Network",
    "NetworkStats",
    "LinkFaults",
    "PartitionPlan",
    "PartitionWindow",
]


class LatencyModel:
    """One-way message delay between two nodes."""

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed one-way delay for every channel."""

    def __init__(self, delay: float = 1.0):
        self._delay = float(delay)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self._delay


class MatrixLatency(LatencyModel):
    """One-way delays from a round-trip-time matrix (Fig. 1 style).

    ``rtt[i][j]`` is the round-trip time between nodes i and j; one-way
    delay is rtt/2.  ``local`` is the delay for a node messaging itself or
    for any endpoint outside the matrix -- client node ids exceed the
    server count, and client<->home-server hops are modelled as local.
    """

    def __init__(self, rtt: np.ndarray, local: float = 0.1):
        self.rtt = np.asarray(rtt, dtype=float)
        self.local = float(local)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        n = self.rtt.shape[0]
        if src == dst or src >= n or dst >= n:
            return self.local
        return float(self.rtt[src, dst]) / 2.0


class UniformLatency(LatencyModel):
    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        self.low, self.high = float(low), float(high)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


class ExponentialLatency(LatencyModel):
    """Base delay plus exponential jitter (heavy-ish tail)."""

    def __init__(self, base: float, mean_jitter: float):
        self.base, self.mean_jitter = float(base), float(mean_jitter)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.base + float(rng.exponential(self.mean_jitter))


@dataclass
class NetworkStats:
    """Per-message-type communication accounting."""

    messages: dict[str, int] = field(default_factory=dict)
    bits: dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, size_bits: float) -> None:
        self.messages[kind] = self.messages.get(kind, 0) + 1
        self.bits[kind] = self.bits.get(kind, 0.0) + size_bits

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_bits(self) -> float:
        return sum(self.bits.values())


@dataclass(frozen=True)
class PartitionWindow:
    """One timed network cut: nodes in different groups cannot exchange
    messages while ``start <= now < end`` (start inclusive, end exclusive,
    matching :class:`~repro.sim.faults.LatencySpike`).

    Nodes that appear in no group are unaffected -- they keep talking to
    everyone.  Clients therefore ride out server partitions untouched unless
    a schedule explicitly lists their node ids.
    """

    start: float
    end: float
    groups: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError("need 0 <= start <= end")
        groups = tuple(frozenset(g) for g in self.groups)
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValueError("partition groups must be non-empty")
            if seen & g:
                raise ValueError("partition groups must be disjoint")
            seen |= g
        object.__setattr__(self, "groups", groups)

    @classmethod
    def isolate(
        cls, start: float, end: float, nodes: Iterable[int], others: Iterable[int]
    ) -> "PartitionWindow":
        """Cut ``nodes`` off from ``others`` during the window."""
        return cls(start, end, (frozenset(nodes), frozenset(others)))

    def _side(self, node: int) -> int | None:
        for i, g in enumerate(self.groups):
            if node in g:
                return i
        return None

    def severs(self, now: float, src: int, dst: int) -> bool:
        if not self.start <= now < self.end:
            return False
        a, b = self._side(src), self._side(dst)
        return a is not None and b is not None and a != b


class PartitionPlan:
    """A schedule of :class:`PartitionWindow` cuts."""

    def __init__(self, windows: Iterable[PartitionWindow] | None = None):
        self.windows: list[PartitionWindow] = list(windows or [])

    def cut(
        self,
        start: float,
        end: float,
        *groups: Iterable[int],
    ) -> "PartitionPlan":
        self.windows.append(PartitionWindow(start, end, tuple(groups)))
        return self

    def severs(self, now: float, src: int, dst: int) -> bool:
        return any(w.severs(now, src, dst) for w in self.windows)


class LinkFaults:
    """Unreliable-link model: drops, duplicates, and partitions.

    * ``drop_prob`` / ``dup_prob`` -- default per-message probabilities of
      silently losing a message and of delivering an extra copy.
    * ``corrupt_prob`` -- per-message probability of in-flight bit rot.
      The live runtime's frame CRC turns corruption into a *detected*
      drop at the receiver (the frame is discarded, the ARQ retransmits),
      so the simulator models it as exactly that: the message is lost and
      counted in ``corrupted`` -- never delivered damaged.
    * ``per_channel`` -- ``(src, dst) -> (drop_prob, dup_prob)`` overrides
      for individual directed channels.
    * ``partitions`` -- a :class:`PartitionPlan`; severed messages are
      dropped at send time (messages already in flight still land, like
      packets that left the interface before the cable was pulled).
    * ``until`` -- when set, probabilistic drops/dups cease at this time
      (partition windows carry their own end times); lets chaos schedules
      guarantee a fault-free convergence phase.

    Decisions draw from a dedicated RNG (``seed``), never from the
    network's latency RNG, so enabling faults does not perturb the latency
    stream and a fault-free network is bit-for-bit identical to the
    pre-fault-layer implementation.  Duplicate copies bypass the FIFO
    clamp: duplication may reorder a channel, which is exactly the hazard
    the ARQ sublayer has to mask.
    """

    def __init__(
        self,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        partitions: PartitionPlan | None = None,
        per_channel: dict[tuple[int, int], tuple[float, float]] | None = None,
        seed: int = 0,
        until: float | None = None,
        corrupt_prob: float = 0.0,
    ):
        for name, p in (
            ("drop_prob", drop_prob),
            ("dup_prob", dup_prob),
            ("corrupt_prob", corrupt_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        for chan, (dp, up) in (per_channel or {}).items():
            if not (0.0 <= dp <= 1.0 and 0.0 <= up <= 1.0):
                raise ValueError(f"per_channel[{chan}] must hold probabilities")
        self.drop_prob = float(drop_prob)
        self.dup_prob = float(dup_prob)
        self.corrupt_prob = float(corrupt_prob)
        self.partitions = partitions or PartitionPlan()
        self.per_channel = dict(per_channel or {})
        self.seed = seed  # kept so other runtimes can derive seeded decisions
        self.rng = np.random.default_rng(seed)
        self.until = until
        self.enabled = True
        # observability: how much damage the model actually did
        self.dropped = 0
        self.duplicated = 0
        self.severed = 0
        self.corrupted = 0
        self.dropped_by_kind: dict[str, int] = {}

    # ------------------------------------------------------------------

    def disable(self) -> None:
        """Cease all fault injection (partitions included) immediately."""
        self.enabled = False

    def _probs(self, src: int, dst: int) -> tuple[float, float]:
        return self.per_channel.get((src, dst), (self.drop_prob, self.dup_prob))

    def _probabilistic(self, now: float) -> bool:
        return self.enabled and (self.until is None or now < self.until)

    def severs(self, now: float, src: int, dst: int) -> bool:
        if not self.enabled:
            return False
        if self.partitions.severs(now, src, dst):
            self.severed += 1
            return True
        return False

    def drops(self, now: float, src: int, dst: int, kind: str) -> bool:
        if not self._probabilistic(now):
            return False
        p = self._probs(src, dst)[0]
        if p > 0.0 and self.rng.random() < p:
            self.dropped += 1
            self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1
            return True
        return False

    def corrupts(self, now: float, src: int, dst: int, kind: str) -> bool:
        """In-flight bit rot: the receiver's CRC detects it and the frame
        is discarded, so a corrupted message is a (counted) drop."""
        if not self._probabilistic(now):
            return False
        if self.corrupt_prob > 0.0 and self.rng.random() < self.corrupt_prob:
            self.corrupted += 1
            self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1
            return True
        return False

    def duplicates(self, now: float, src: int, dst: int) -> bool:
        if not self._probabilistic(now):
            return False
        p = self._probs(src, dst)[1]
        if p > 0.0 and self.rng.random() < p:
            self.duplicated += 1
            return True
        return False


class Network(LivenessRegistry):
    """FIFO message transport among registered handlers.

    Reliable by default; attach a :class:`LinkFaults` to model a lossy
    substrate (see the module docstring).  Handler registration and
    halt/restart bookkeeping come from :class:`LivenessRegistry`, shared
    with :class:`~repro.sim.manual.ManualNetwork` so crash semantics
    cannot drift between the two network implementations.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        fifo_epsilon: float = 1e-9,
        faults: LinkFaults | None = None,
    ):
        super().__init__()
        self.scheduler = scheduler
        self.latency = latency or ConstantLatency(1.0)
        self.rng = rng or np.random.default_rng(0)
        self.fifo_epsilon = fifo_epsilon
        self.faults = faults
        self.stats = NetworkStats()
        self._last_delivery: dict[tuple[int, int], float] = {}
        self.monitor: Callable[[int, int, object], None] | None = None

    def send(self, src: int, dst: int, msg: object) -> None:
        """Enqueue ``msg`` for FIFO delivery from ``src`` to ``dst``."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination node {dst}")
        if src in self._halted:
            # a halted node takes no steps: checked before any accounting so
            # crashed senders cannot inflate the Sec. 4.2 communication costs
            return
        kind = getattr(msg, "kind", type(msg).__name__)
        self.stats.record(kind, float(getattr(msg, "size_bits", 0.0)))
        if self.monitor is not None:
            self.monitor(src, dst, msg)
        f = self.faults
        if f is not None:
            now = self.scheduler.now
            if (
                f.severs(now, src, dst)
                or f.drops(now, src, dst, kind)
                or f.corrupts(now, src, dst, kind)
            ):
                return
        delay = self.latency.delay(src, dst, self.rng)
        deliver_at = self.scheduler.now + delay
        chan = (src, dst)
        floor = self._last_delivery.get(chan)
        if floor is not None and deliver_at <= floor:
            deliver_at = floor + self.fifo_epsilon
        self._last_delivery[chan] = deliver_at
        self.scheduler.at(deliver_at, lambda: self._deliver(src, dst, msg))
        if f is not None and f.duplicates(self.scheduler.now, src, dst):
            # the extra copy draws its delay from the fault RNG and skips
            # the FIFO clamp: duplicates may reorder the channel
            extra = self.latency.delay(src, dst, f.rng)
            self.scheduler.at(
                self.scheduler.now + extra, lambda: self._deliver(src, dst, msg)
            )

    def _deliver(self, src: int, dst: int, msg: object) -> None:
        if dst in self._halted:
            return
        self._handlers[dst](src, msg)
