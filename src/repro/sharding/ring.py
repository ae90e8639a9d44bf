"""Consistent-hash ring with virtual nodes.

Each shard contributes ``vnodes`` points on a 64-bit ring; a key is
owned by the shard whose point follows the key's hash clockwise.  Two
properties matter for the sharded store:

* **balance** -- with enough virtual nodes (>= 128) every shard owns a
  near-equal arc of the ring, so keys spread evenly;
* **minimal movement** -- adding a shard steals only the keys whose
  successor point now belongs to the new shard (~K/S of them), and
  removing a shard reassigns only that shard's keys.  No other key
  changes owner, which is what keeps view changes cheap.

Hashes come from :mod:`hashlib` (blake2b), **not** Python's ``hash()``,
so placements are stable across processes and immune to
``PYTHONHASHSEED``.

Structural mistakes raise *typed* errors (all subclasses of
:class:`RingError`, itself a ``ValueError`` so legacy ``except
ValueError`` callers keep working): adding a duplicate shard, removing an
unknown or the last shard, and -- the case that used to be silently
representable -- scaling a shard's virtual nodes down to zero.  A shard
with zero vnodes would remain registered but own no arc, so lookups
would quietly route its keys to stale neighbours; :meth:`set_vnodes`
refuses with :class:`ZeroVnodeError` instead.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

__all__ = [
    "HashRing",
    "RingError",
    "EmptyRingError",
    "UnknownShardError",
    "DuplicateShardError",
    "LastShardError",
    "ZeroVnodeError",
]


class RingError(ValueError):
    """Base class for consistent-hash-ring structural errors."""


class EmptyRingError(RingError):
    """Lookup on a ring with no shards."""


class UnknownShardError(RingError):
    """The named shard is not on the ring."""


class DuplicateShardError(RingError):
    """The named shard is already on the ring."""


class LastShardError(RingError):
    """Removing the final shard would orphan every key."""


class ZeroVnodeError(RingError):
    """A shard must keep at least one virtual node while registered."""


def _h64(data: bytes) -> int:
    """A stable 64-bit hash (blake2b), independent of PYTHONHASHSEED."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing over shard ids with ``vnodes`` virtual nodes."""

    def __init__(self, shards: Iterable[int] = (), vnodes: int = 128):
        if vnodes < 1:
            raise ZeroVnodeError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._shards: set[int] = set()
        self._vnode_count: dict[int, int] = {}
        self._points: list[tuple[int, int]] = []  # sorted (hash, shard)
        for s in shards:
            self.add_shard(s)

    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._shards))

    def __contains__(self, shard: int) -> bool:
        return shard in self._shards

    def shard_vnodes(self, shard: int) -> int:
        """The number of virtual nodes ``shard`` currently contributes."""
        if shard not in self._shards:
            raise UnknownShardError(f"shard {shard} not on the ring")
        return self._vnode_count[shard]

    def copy(self) -> "HashRing":
        """An independent ring with the same shards (for planning)."""
        clone = HashRing((), vnodes=self.vnodes)
        for s in sorted(self._shards):
            clone.add_shard(s, vnodes=self._vnode_count[s])
        return clone

    # ------------------------------------------------------------------

    def _shard_points(self, shard: int, count: int) -> list[tuple[int, int]]:
        return [
            (_h64(f"s:{shard}:{v}".encode()), shard) for v in range(count)
        ]

    def add_shard(self, shard: int, vnodes: int | None = None) -> None:
        """Register ``shard`` with ``vnodes`` points (default: ring-wide).

        Point hashes depend only on ``(shard, vnode-index)``, so removing
        a shard and re-adding it with the same vnode count restores its
        exact arc -- ownership of every key is byte-identical to before
        (the remove-then-readd stability the property tests pin down).
        """
        if shard in self._shards:
            raise DuplicateShardError(f"shard {shard} already on the ring")
        count = self.vnodes if vnodes is None else vnodes
        if count < 1:
            raise ZeroVnodeError(
                f"shard {shard} needs at least one virtual node, got {count}"
            )
        self._shards.add(shard)
        self._vnode_count[shard] = count
        self._points = sorted(self._points + self._shard_points(shard, count))

    def remove_shard(self, shard: int) -> None:
        if shard not in self._shards:
            raise UnknownShardError(f"shard {shard} not on the ring")
        if len(self._shards) == 1:
            raise LastShardError("cannot remove the last shard")
        self._shards.discard(shard)
        del self._vnode_count[shard]
        self._points = [p for p in self._points if p[1] != shard]

    def set_vnodes(self, shard: int, vnodes: int) -> None:
        """Rescale ``shard`` to exactly ``vnodes`` virtual nodes.

        Scaling to zero is refused with :class:`ZeroVnodeError`: a
        registered shard owning no arc would make every lookup of its
        former keys silently resolve to a stale neighbour.  Use
        :meth:`remove_shard` to take a shard off the ring.
        """
        if shard not in self._shards:
            raise UnknownShardError(f"shard {shard} not on the ring")
        if vnodes < 1:
            raise ZeroVnodeError(
                f"cannot scale shard {shard} to {vnodes} virtual nodes; "
                "remove_shard() is the way to retire a shard"
            )
        old = self._vnode_count[shard]
        if vnodes == old:
            return
        self._vnode_count[shard] = vnodes
        self._points = [p for p in self._points if p[1] != shard]
        self._points = sorted(self._points + self._shard_points(shard, vnodes))

    # ------------------------------------------------------------------

    def key_point(self, key) -> int:
        return _h64(f"k:{key}".encode())

    def lookup(self, key) -> int:
        """The shard owning ``key``: first point at/after its hash."""
        if not self._points:
            raise EmptyRingError("empty ring")
        i = bisect_right(self._points, (self.key_point(key), -1))
        if i == len(self._points):
            i = 0  # wrap around
        return self._points[i][1]
