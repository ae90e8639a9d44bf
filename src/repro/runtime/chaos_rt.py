"""Deterministic fault injection for the live asyncio runtime.

PR 1 gave the discrete-event simulator lossy links and partitions
(:class:`~repro.sim.network.LinkFaults`, :class:`~repro.sim.network
.PartitionPlan`) and scheduled crashes (:class:`~repro.sim.faults
.FaultPlan`).  This module lets the *same schedule objects* attack the live
TCP runtime: :class:`LiveFaultInjector` sits inside every peer channel of
:class:`~repro.runtime.asyncio_rt.AsyncioServer` and decides, per
transmitted frame, whether to drop it, deliver a duplicate copy, delay it,
or sever it entirely (partition windows).  Connection resets and
kill/restart faults are time-scheduled by the cluster from a
:class:`~repro.sim.faults.FaultPlan` (see
``AsyncioCluster.apply_fault_plan``).

Determinism on a real event loop
--------------------------------
The simulator gets reproducibility for free: one RNG, one deterministic
event order.  A live run has no deterministic event order -- socket
readiness and task scheduling interleave differently every run -- so a
single shared RNG would hand different faults to different frames on every
replay.  The injector instead gives every directed channel its own RNG
*lane*, seeded ``(seed, LANE_SALT, src, dst)``, and draws a **fixed number
of variates per fate query in a fixed order**.  The fate of the k-th query
on a channel is therefore a pure function of ``(seed, src, dst, k)`` --
independent of wall-clock timing, of other channels, and of how queries
interleave across channels.  Replaying a seeded schedule replays the exact
per-channel fault sequence, which is what makes live chaos failures
debuggable.  Time-gated faults (partition windows, the ``until`` horizon)
check the *scaled* clock but still consume their draws, so the lane stream
never shifts across runs.

Time scaling
------------
Chaos schedules are authored in simulated milliseconds (e.g. a fault
window of ``[20, 450]``).  A live cluster needs real milliseconds and some
slack for TCP handshakes, so the injector maps ``sim_now = (real_now -
t0) / time_scale``; with ``time_scale=4`` a 450 ms simulated schedule
plays out over 1.8 real seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.network import LinkFaults

__all__ = ["FrameFate", "LiveFaultInjector"]

#: salt mixed into every channel lane seed, so injector lanes cannot
#: collide with any other consumer of the schedule's seed
LANE_SALT = 0x11FE
#: salt for the per-frame bit-flip offsets of ``corrupt`` fates
CORRUPT_SALT = 0xC0DE
#: first byte of a CRC frame that the frame CRC covers (u32 length,
#: version, flags, u32 crc come first); flips land at or past this offset
#: so damage is always a *detectable* body corruption, never a framing
#: desync of the byte stream
_CRC_BODY_OFFSET = 10


@dataclass(frozen=True)
class FrameFate:
    """The injector's verdict for one transmitted frame.

    ``corrupt`` means the frame's encoded bytes are bit-flipped before the
    socket write: the frame *is* delivered, damaged, and the receiver's
    frame CRC is what must turn it into a drop.
    """

    drop: bool = False
    dup: bool = False
    delay_ms: float = 0.0
    corrupt: bool = False
    #: lane query index of this fate; keys the bit-flip offsets of
    #: :meth:`LiveFaultInjector.damage` so replays damage the same bytes
    k: int = -1

    @property
    def deliver(self) -> bool:
        return not self.drop


class LiveFaultInjector:
    """Per-frame fault decisions for the live runtime's peer channels.

    ``faults`` supplies the schedule -- drop/duplication probabilities
    (global and per-channel), partition windows, and the ``until`` horizon
    -- exactly as the simulator consumes it.  The ``LinkFaults`` object's
    own RNG is deliberately **not** touched (see the module docstring);
    decisions come from per-channel lanes derived from ``faults.seed``.

    ``jitter_ms > 0`` additionally delays each delivered frame by a random
    amount up to that bound, exercising reordering (the receiver's ARQ
    restores order).  The injector is inert until :meth:`arm` pins the
    schedule's time origin to the event loop's clock.
    """

    def __init__(
        self,
        faults: LinkFaults | None = None,
        time_scale: float = 1.0,
        jitter_ms: float = 0.0,
    ):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if jitter_ms < 0:
            raise ValueError("jitter_ms must be >= 0")
        self.faults = faults
        self.time_scale = float(time_scale)
        self.jitter_ms = float(jitter_ms)
        self.enabled = True
        self._t0: float | None = None
        self._loop = None
        self._lanes: dict[tuple[int, int], np.random.Generator] = {}
        self._lane_index: dict[tuple[int, int], int] = {}
        #: (src, dst, query index, verdict) -- the injected fault schedule;
        #: determinism tests compare this across replays
        self.trace: list[tuple[int, int, int, str]] = []
        # damage counters, mirroring LinkFaults observability
        self.dropped = 0
        self.duplicated = 0
        self.severed = 0
        self.delayed = 0
        self.delivered = 0
        self.corrupted = 0

    # ------------------------------------------------------------------

    def arm(self, loop) -> None:
        """Pin the schedule's t=0 to ``loop.time()`` (idempotent)."""
        if self._t0 is None:
            self._loop = loop
            self._t0 = loop.time() * 1000.0

    def disable(self) -> None:
        """Cease all injection immediately (the convergence phase)."""
        self.enabled = False

    def sim_now(self) -> float:
        """The schedule clock: scaled milliseconds since :meth:`arm`."""
        if self._t0 is None:
            return 0.0
        return (self._loop.time() * 1000.0 - self._t0) / self.time_scale

    # ------------------------------------------------------------------

    def _lane(self, src: int, dst: int) -> np.random.Generator:
        lane = self._lanes.get((src, dst))
        if lane is None:
            seed = self.faults.seed if self.faults is not None else 0
            lane = np.random.default_rng((seed, LANE_SALT, src, dst))
            self._lanes[(src, dst)] = lane
            self._lane_index[(src, dst)] = 0
        return lane

    def fate(self, src: int, dst: int) -> FrameFate:
        """Decide the fate of the next frame on channel ``src -> dst``.

        Exactly four variates are drawn per call (drop, dup, jitter,
        corrupt), in that order, whether or not each is used -- the lane
        stream position is the query index, nothing else.
        """
        f = self.faults
        if f is None or not self.enabled or not f.enabled or self._t0 is None:
            return FrameFate()
        lane = self._lane(src, dst)
        k = self._lane_index[(src, dst)]
        self._lane_index[(src, dst)] = k + 1
        r_drop = lane.random()
        r_dup = lane.random()
        r_jit = lane.random()
        r_rot = lane.random()

        now = self.sim_now()
        if f.partitions.severs(now, src, dst):
            self.severed += 1
            f.severed += 1
            self.trace.append((src, dst, k, "sever"))
            return FrameFate(drop=True)
        drop_p, dup_p = f._probs(src, dst)
        active = f.until is None or now < f.until
        if active and r_drop < drop_p:
            self.dropped += 1
            f.dropped += 1
            self.trace.append((src, dst, k, "drop"))
            return FrameFate(drop=True)
        dup = active and r_dup < dup_p
        delay = r_jit * self.jitter_ms if active and self.jitter_ms > 0 else 0.0
        rot = active and r_rot < getattr(f, "corrupt_prob", 0.0)
        if dup:
            self.duplicated += 1
            f.duplicated += 1
        if delay > 0:
            self.delayed += 1
        if rot:
            self.corrupted += 1
            f.corrupted += 1
        self.delivered += 1
        self.trace.append(
            (
                src,
                dst,
                k,
                "corrupt"
                if rot
                else ("dup" if dup else ("delay" if delay > 0 else "ok")),
            )
        )
        return FrameFate(dup=dup, delay_ms=delay, corrupt=rot, k=k)

    def damage(self, blob: bytes, src: int, dst: int, k: int) -> bytes:
        """Bit-flip an encoded frame for a ``corrupt`` fate.

        Flips land strictly inside the CRC-covered region (never the
        length prefix), so the receiver sees a well-framed but damaged
        frame -- exactly the failure the frame CRC exists to catch.  The
        flipped offsets are a pure function of ``(seed, src, dst, k,
        len(blob))``: replays damage the same bytes.
        """
        raw = bytearray(blob)
        if len(raw) <= _CRC_BODY_OFFSET:  # pragma: no cover - defensive
            return blob
        seed = self.faults.seed if self.faults is not None else 0
        rng = np.random.default_rng((seed, CORRUPT_SALT, src, dst, k, len(raw)))
        pos = int(rng.integers(_CRC_BODY_OFFSET, len(raw)))
        raw[pos] ^= 1 << int(rng.integers(0, 8))
        return bytes(raw)
