"""Vector clocks and tags (Sec. 3, "State variables").

Each server maintains a vector clock ``vc`` with one component per server.
A *tag* is a pair ``(ts, id)`` of a vector-clock value and a client
identifier; writes are identified by tags (Lemma B.3: every write has a
unique tag).

Tag total order
---------------
The paper totally orders tags by ``t1 < t2 iff ts1 < ts2, or ts1 != ts2 and
id1 < id2``.  Taken literally over *arbitrary* tag pairs this relation is not
transitive (three pairwise-incomparable timestamps can form an id cycle), so
we implement the classic Lamport completion, which refines the same partial
order and is a genuine strict total order on every tag set:

    t1 < t2  iff  (lamport(ts1), id1, ts1) <_lex (lamport(ts2), id2, ts2)

where ``lamport(ts) = sum(ts)``.  If ``ts1 < ts2`` componentwise then
``lamport(ts1) < lamport(ts2)``, so the order refines causal arbitration
exactly as Definition 5(b) requires; among concurrent writes ties fall to the
client id, exactly as in the paper's low-cost variant (Sec. 4.2), which
replaces vector timestamps by Lamport timestamps outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VectorClock", "Tag", "zero_tag", "LOCALHOST"]

#: Sentinel client identifier for server-internal reads (the paper's
#: ``localhost``, which is not a member of the client set C).
LOCALHOST = -1


class VectorClock:
    """An immutable vector clock; comparisons follow the componentwise order."""

    __slots__ = ("components", "_lamport")

    def __init__(self, components: tuple[int, ...]):
        self.components = tuple(int(c) for c in components)
        self._lamport = sum(self.components)

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> int:
        return self.components[i]

    @property
    def lamport(self) -> int:
        """Sum of components: a Lamport-style scalar refinement."""
        return self._lamport

    def increment(self, i: int) -> "VectorClock":
        comps = list(self.components)
        comps[i] += 1
        return VectorClock(tuple(comps))

    def with_component(self, i: int, value: int) -> "VectorClock":
        comps = list(self.components)
        comps[i] = int(value)
        return VectorClock(tuple(comps))

    def merge(self, other: "VectorClock") -> "VectorClock":
        return VectorClock(
            tuple(max(a, b) for a, b in zip(self.components, other.components))
        )

    # partial order --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VectorClock) and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(self.components)

    def leq(self, other: "VectorClock") -> bool:
        """Componentwise <= (the vector-clock partial order)."""
        return all(a <= b for a, b in zip(self.components, other.components))

    def less(self, other: "VectorClock") -> bool:
        return self.leq(other) and self.components != other.components

    def concurrent(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC{self.components}"


@dataclass(frozen=True, slots=True)
class Tag:
    """A write identifier: (vector timestamp, client id).

    Slotted: histories and servers hold one per write ever made.

    Ordered by the key ``(ts.lamport, client_id, ts.components)`` (module
    docstring); the four comparators are spelled out rather than derived
    from ``__lt__``: ``max()`` over tags is on the servers' hot path.

    ``_wire`` is not part of the value: it is where
    :mod:`repro.runtime.wire` keeps the tag's encoded form once it has
    encoded it (a tag is frozen, so the bytes cannot go stale).  Not an
    ``__init__`` argument, not compared, hashed or printed; a tag built by
    ``dataclasses.replace`` starts without one.
    """

    ts: VectorClock
    client_id: int
    _wire: bytes | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __lt__(self, other: "Tag") -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        a, b = self.ts, other.ts
        return (a._lamport, self.client_id, a.components) < (
            b._lamport, other.client_id, b.components
        )

    def __le__(self, other: "Tag") -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        a, b = self.ts, other.ts
        return (a._lamport, self.client_id, a.components) <= (
            b._lamport, other.client_id, b.components
        )

    def __gt__(self, other: "Tag") -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        a, b = self.ts, other.ts
        return (a._lamport, self.client_id, a.components) > (
            b._lamport, other.client_id, b.components
        )

    def __ge__(self, other: "Tag") -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        a, b = self.ts, other.ts
        return (a._lamport, self.client_id, a.components) >= (
            b._lamport, other.client_id, b.components
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tag)
            and self.ts == other.ts
            and self.client_id == other.client_id
        )

    def __hash__(self) -> int:
        return hash((self.ts, self.client_id))

    @property
    def is_zero(self) -> bool:
        return self.ts.lamport == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tag(ts={self.ts.components}, id={self.client_id})"


def zero_tag(n: int) -> Tag:
    """The initial tag (all-zero timestamp, id 0); minimal in the total order."""
    return Tag(VectorClock.zero(n), 0)
