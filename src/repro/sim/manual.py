"""A manually stepped network for adversarial schedule exploration.

:class:`ManualNetwork` implements the same interface protocol code uses
(``register`` / ``send`` / ``halt`` / ``stats``) but queues messages per
channel and delivers only when the *test* says so -- in any order across
channels, FIFO within each channel, exactly the adversary the asynchronous
model of Sec. 2.1 quantifies over.  Hypothesis drives the delivery order to
hunt for schedules that violate causal consistency.

Use with eagerly-triggered internal actions (``gc_interval=None``) so no
scheduler timers are needed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

import numpy as np

from .liveness import LivenessRegistry
from .network import NetworkStats

__all__ = ["ManualNetwork"]


class ManualNetwork(LivenessRegistry):
    """FIFO per-channel queues with test-controlled delivery.

    Registration and halt/restart bookkeeping come from
    :class:`~repro.sim.liveness.LivenessRegistry`, shared with the
    discrete-event :class:`~repro.sim.network.Network`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stats = NetworkStats()
        self._queues: dict[tuple[int, int], deque] = {}
        self.monitor: Callable[[int, int, object], None] | None = None
        self.delivered = 0

    # -- Network interface -------------------------------------------------

    def send(self, src: int, dst: int, msg: object) -> None:
        if dst not in self._handlers:
            raise KeyError(f"unknown destination node {dst}")
        if src in self._halted:
            return  # checked before accounting, as in Network.send
        kind = getattr(msg, "kind", type(msg).__name__)
        self.stats.record(kind, float(getattr(msg, "size_bits", 0.0)))
        if self.monitor is not None:
            self.monitor(src, dst, msg)
        self._queues.setdefault((src, dst), deque()).append(msg)

    # -- adversary controls --------------------------------------------------

    def channels(self) -> list[tuple[int, int]]:
        """Non-empty channels, sorted for determinism."""
        return sorted(c for c, q in self._queues.items() if q)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def deliver(self, src: int, dst: int, count: int = 1) -> int:
        """Deliver up to ``count`` messages on one channel (FIFO)."""
        q = self._queues.get((src, dst))
        delivered = 0
        while q and delivered < count:
            msg = q.popleft()
            delivered += 1
            if dst not in self._halted:
                self.delivered += 1
                self._handlers[dst](src, msg)
        return delivered

    def deliver_all(
        self,
        rng: np.random.Generator | None = None,
        max_messages: int = 1_000_000,
    ) -> int:
        """Drain every channel; random interleaving when ``rng`` given."""
        total = 0
        while total < max_messages:
            chans = self.channels()
            if not chans:
                return total
            if rng is None:
                src, dst = chans[0]
            else:
                src, dst = chans[int(rng.integers(0, len(chans)))]
            total += self.deliver(src, dst)
        raise RuntimeError("deliver_all exceeded max_messages; protocol loop?")

    def drop_channel(self, src: int, dst: int) -> int:
        """Discard everything queued on one channel (for halting tests)."""
        q = self._queues.get((src, dst))
        n = len(q) if q else 0
        if q:
            q.clear()
        return n
