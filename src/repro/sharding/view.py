"""View changes: plan a new ring epoch and the key moves it implies.

A view change adds and/or removes shards.  Because placement follows
consistent hashing, the set of keys that must move is exactly the set
whose ring owner differs between the old and new rings: ~K/S keys when
one of S+1 shards is added, and precisely the removed shard's keys on
removal.  Every other key keeps its shard, slot and generation -- the
sticky table guarantees zero churn for unmoved keys.

Planning is **pure**: it copies the ring, never mutates the router, and
produces a deterministic, seed-independent move list (keys visited in
sorted order, destination slots assigned first-free-first).  The live
coordinator (:mod:`repro.runtime.sharded_rt`) executes the plan move by
move and calls :meth:`~repro.sharding.router.ShardRouter.commit_view` at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .router import ShardRouter

__all__ = ["KeyMove", "ViewChange", "plan_view_change"]


@dataclass(frozen=True)
class KeyMove:
    """One key's migration: source and destination placement."""

    key: Any
    src_shard: int
    src_slot: int
    dst_shard: int
    dst_slot: int
    gen: int  # the key's generation *after* the move


@dataclass(frozen=True)
class ViewChange:
    """A planned ring epoch: membership delta plus the key moves."""

    version: int
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    moves: tuple[KeyMove, ...] = field(default_factory=tuple)


def plan_view_change(
    router: ShardRouter, add: tuple = (), remove: tuple = ()
) -> ViewChange:
    """Plan the epoch ``router.view_version + 1`` ring delta.

    Only keys whose consistent-hash owner changes between the current
    ring and the new ring are moved; their destination slots are the
    first free slots of the destination shard, claimed in sorted key
    order so the plan is deterministic.
    """
    add = tuple(add)
    remove = tuple(remove)
    if not add and not remove:
        raise ValueError("view change must add or remove at least one shard")
    new_ring = router.ring.copy()
    for s in add:
        new_ring.add_shard(s)
    for s in remove:
        new_ring.remove_shard(s)

    # Moved keys claim destination slots on top of the slots that will
    # still be occupied after the change; freed source slots are not
    # reused within a run (slot identity underpins the audit key maps).
    claimed = {s: set(router._used.get(s, ())) for s in new_ring.shards}
    moves = []
    for key in sorted(router.keys, key=str):
        old = router.location(key)
        dst = new_ring.lookup(key)
        if dst == old.shard:
            continue
        used = claimed.setdefault(dst, set())
        slot = next(
            (x for x in range(router.slots_per_shard) if x not in used),
            None,
        )
        if slot is None:
            raise ValueError(
                f"shard {dst} cannot absorb key {key!r}: all "
                f"{router.slots_per_shard} slots in use"
            )
        used.add(slot)
        moves.append(
            KeyMove(
                key=key,
                src_shard=old.shard,
                src_slot=old.slot,
                dst_shard=dst,
                dst_slot=slot,
                gen=old.gen + 1,
            )
        )
    return ViewChange(
        version=router.view_version + 1,
        added=add,
        removed=remove,
        moves=tuple(moves),
    )
