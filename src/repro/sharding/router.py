"""Sticky shard router: key -> (shard, slot, generation) with fences.

The :class:`~repro.sharding.ring.HashRing` decides *which shard* owns a
key; the router additionally pins the key to a concrete codeword slot
(an object index ``x`` inside that shard's CausalEC group) and keeps
that assignment **sticky**: a key's slot never changes except when a
view change moves the key to another shard.  Slots freed by migration
are not reused within a run, so a slot identifies one key for the whole
execution -- which is what lets the online auditor map per-shard object
indices back to global keys.

Migration fencing (the live coordinator drives this):

* :meth:`begin_move` marks a key as mid-migration.  New **writes** block
  on :meth:`wait_movable` until the move finishes; **reads** keep
  routing to the old owner (:meth:`location` still returns the old
  location until :meth:`finish_move`), per the epoch-fenced cutover
  rule "reads are served from the old owner until the new owner's
  migration watermark covers the key".
* Sessions bracket every operation with :meth:`op_started` /
  :meth:`op_finished`; :meth:`drain_writes` lets the coordinator wait
  until no write that was admitted before the fence is still in flight,
  so the migration read observes every acknowledged write.
* :meth:`finish_move` flips the routing table to the new location,
  bumps the key's generation, and records the **cutover floor** -- the
  destination shard's vector clock at the instant the migrated value
  was installed.  Sessions merge this floor into their destination-
  shard session timestamp for every later operation on the key, which
  parks those requests server-side until the migrated value is visible
  (the migration watermark).

The async helpers create their :class:`asyncio.Event` objects lazily,
so the same router drives the single-threaded simulator (which never
calls them) and the live asyncio runtime.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Iterable

from .ring import HashRing

__all__ = ["ShardLocation", "ShardRouter"]


@dataclass(frozen=True)
class ShardLocation:
    """Where a key lives: shard id, codeword slot, migration generation."""

    shard: int
    slot: int
    gen: int


class ShardRouter:
    """Sticky key placement over a consistent-hash ring."""

    def __init__(self, ring: HashRing, slots_per_shard: int):
        self.ring = ring
        self.slots_per_shard = slots_per_shard
        self.view_version = 0
        self._table: dict[Any, ShardLocation] = {}
        self._used: dict[int, set[int]] = {s: set() for s in ring.shards}
        self._floors: dict[Any, Any] = {}  # key -> cutover VectorClock
        self._moving: set[Any] = set()
        self._inflight_writes: dict[Any, int] = {}
        self._move_events: dict[Any, asyncio.Event] = {}
        self._drain_events: dict[Any, asyncio.Event] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls,
        keys: Iterable[Any],
        num_shards: int,
        slots_per_shard: int,
        vnodes: int = 64,
    ) -> "ShardRouter":
        """Epoch-0 placement: every key on its ring owner, slots in a
        deterministic (sorted-key) order."""
        ring = HashRing(range(num_shards), vnodes=vnodes)
        router = cls(ring, slots_per_shard)
        for key in sorted(keys, key=str):
            router._assign(key, ring.lookup(key), gen=0)
        return router

    @classmethod
    def from_placement(
        cls,
        placement: dict[Any, tuple[int, int]],
        vnodes: int = 64,
    ) -> "ShardRouter":
        """Wrap an explicit ``{key: (shard, slot)}`` placement (the
        fixed-group placements of :mod:`repro.kv.store`); ring points are
        created for the named shards so later view changes still work."""
        shards = sorted({shard for shard, _ in placement.values()})
        slots = 1 + max(
            (slot for _, slot in placement.values()), default=0
        )
        ring = HashRing(shards, vnodes=vnodes)
        router = cls(ring, slots)
        for key, (shard, slot) in placement.items():
            if slot in router._used[shard]:
                raise ValueError(f"slot {slot} of shard {shard} assigned twice")
            router._table[key] = ShardLocation(shard, slot, 0)
            router._used[shard].add(slot)
        return router

    def _assign(self, key, shard: int, gen: int) -> ShardLocation:
        slot = self._free_slot(shard)
        loc = ShardLocation(shard, slot, gen)
        self._table[key] = loc
        self._used[shard].add(slot)
        return loc

    def _free_slot(self, shard: int) -> int:
        used = self._used.setdefault(shard, set())
        for slot in range(self.slots_per_shard):
            if slot not in used:
                return slot
        raise ValueError(
            f"shard {shard} has no free slot "
            f"(capacity {self.slots_per_shard})"
        )

    # ------------------------------------------------------------------
    # lookup

    @property
    def keys(self) -> tuple:
        return tuple(self._table)

    def location(self, key) -> ShardLocation:
        """Current location; the *old* owner while a move is in flight."""
        return self._table[key]

    def locate(self, key) -> tuple[int, int]:
        """``(shard, slot)``: a key-value store's ``(group, object)``."""
        loc = self._table[key]
        return (loc.shard, loc.slot)

    def keys_on(self, shard: int) -> list:
        return [k for k, loc in self._table.items() if loc.shard == shard]

    def moving(self, key) -> bool:
        return key in self._moving

    def cutover_floor(self, key):
        """The destination vector clock recorded at cutover, or None."""
        return self._floors.get(key)

    # ------------------------------------------------------------------
    # migration fencing

    def begin_move(self, key) -> ShardLocation:
        """Fence ``key``: new writes block, reads stay on the old owner."""
        if key not in self._table:
            raise KeyError(key)
        self._moving.add(key)
        return self._table[key]

    def finish_move(
        self, key, shard: int, slot: int, gen: int, cutover_floor=None
    ) -> ShardLocation:
        """Cut over: flip the table, record the watermark, release writes."""
        loc = ShardLocation(shard, slot, gen)
        self._table[key] = loc
        self._used.setdefault(shard, set()).add(slot)
        if cutover_floor is not None:
            self._floors[key] = cutover_floor
        self._moving.discard(key)
        evt = self._move_events.pop(key, None)
        if evt is not None:
            evt.set()
        return loc

    def op_started(self, key, write: bool) -> None:
        if write:
            self._inflight_writes[key] = self._inflight_writes.get(key, 0) + 1

    def op_finished(self, key, write: bool) -> None:
        if write:
            n = self._inflight_writes.get(key, 0) - 1
            if n <= 0:
                self._inflight_writes.pop(key, None)
                evt = self._drain_events.pop(key, None)
                if evt is not None:
                    evt.set()
            else:
                self._inflight_writes[key] = n

    async def wait_movable(self, key) -> None:
        """Block (writes only) while ``key`` is mid-migration."""
        while key in self._moving:
            evt = self._move_events.setdefault(key, asyncio.Event())
            await evt.wait()

    async def drain_writes(self, key) -> None:
        """Coordinator: after :meth:`begin_move`, wait until every write
        admitted before the fence has settled."""
        while self._inflight_writes.get(key, 0) > 0:
            evt = self._drain_events.setdefault(key, asyncio.Event())
            await evt.wait()

    # ------------------------------------------------------------------
    # view bookkeeping

    def commit_view(self, change) -> None:
        """Apply a completed :class:`~repro.sharding.view.ViewChange`:
        mutate the ring membership and bump the epoch."""
        for s in change.added:
            if s not in self.ring:
                self.ring.add_shard(s)
            self._used.setdefault(s, set())
        for s in change.removed:
            if s in self.ring:
                self.ring.remove_shard(s)
        self.view_version = change.version
