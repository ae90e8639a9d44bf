"""Horizontal sharding: consistent-hash routing over CausalEC groups.

CausalEC (Cadambe & Lyu, PODC 2023) is specified for a *single* coding
group over a fixed object set.  This package scales the reproduction out
horizontally: a :class:`~repro.sharding.ring.HashRing` (consistent
hashing with virtual nodes) maps keys to independent CausalEC coding
groups -- each shard runs its own servers, vector clock, codeword and GC
-- and a :class:`~repro.sharding.router.ShardRouter` pins every key to a
``(shard, slot, generation)`` location with sticky slots, per-key
migration fences and post-migration causal floors.

:mod:`repro.sharding.view` plans **view changes** (ring epochs): adding
or removing a shard moves only the ~K/S keys whose ring owner changed;
the live coordinator (:mod:`repro.runtime.sharded_rt`) migrates those
keys over the existing channels with an epoch-fenced cutover.
:mod:`repro.sharding.sim_store` runs a fixed ring on the discrete-event
simulator.
"""

from .ring import (
    DuplicateShardError,
    EmptyRingError,
    HashRing,
    LastShardError,
    RingError,
    UnknownShardError,
    ZeroVnodeError,
)
from .router import KeyMigrating, ShardLocation, ShardRouter
from .view import KeyMove, ViewChange, plan_view_change

__all__ = [
    "HashRing",
    "RingError",
    "EmptyRingError",
    "UnknownShardError",
    "DuplicateShardError",
    "LastShardError",
    "ZeroVnodeError",
    "ShardLocation",
    "ShardRouter",
    "KeyMigrating",
    "KeyMove",
    "ViewChange",
    "plan_view_change",
]
