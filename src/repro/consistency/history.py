"""Execution histories: the raw material for consistency checking.

A :class:`History` records every client operation in an execution --
invocation and response times, arguments, return values, and the
*certificate metadata* CausalEC (and the baselines) stamp on responses: the
serving server's vector clock (Definition 6's ``ts``) and, for reads, the
tag of the returned write.  The checkers in :mod:`repro.consistency.causal`
verify Definition 5 against this record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Operation", "History", "compact_value"]


def compact_value(value):
    """An owned copy of ``value`` in the narrowest unsigned dtype holding it.

    A read's value arrives as a read-only view that pins the whole wire
    frame it was decoded from; a history that keeps every operation wants
    neither the frame nor, for byte-valued payloads over GF(257), the
    second byte per symbol of the field's uint16 storage dtype -- it only
    compares values, and ``np.array_equal`` is indifferent to dtype.
    Values come from the field unsigned, so only a signed array (a client
    that wrote its own int64) needs the scan for negatives.  Anything that
    is not a non-negative integer array is returned as it came.
    """
    if not isinstance(value, np.ndarray) or value.dtype.kind not in "iu":
        return value
    if value.dtype.kind == "i" and value.size and int(value.min()) < 0:
        return value
    top = int(value.max()) if value.size else 0
    return value.astype(np.min_scalar_type(top))


@dataclass(slots=True)
class Operation:
    """One client operation (read or write).

    Slotted: a history keeps every operation of an execution.
    """

    client_id: int
    opid: Any
    kind: str  # "read" | "write"
    obj: int
    value: np.ndarray | None = None  # written value / returned value
    invoke_time: float = 0.0
    response_time: float | None = None
    ts: Any = None  # server vector clock at response (Definition 6)
    tag: Any = None  # write tag / returned write's tag
    failed: bool = False  # gave up (home server unavailable)
    failed_time: float | None = None
    error: Any = None  # typed error when failed (HomeServerUnavailable)

    @property
    def done(self) -> bool:
        return self.response_time is not None

    @property
    def settled(self) -> bool:
        """Completed or failed -- either way the client moved on.

        A failed operation never completed at the client, but it *may*
        still take effect at the servers (the request can be delivered
        after the client gave up); checkers treat it as incomplete.
        """
        return self.done or self.failed

    @property
    def latency(self) -> float | None:
        if self.response_time is None:
            return None
        return self.response_time - self.invoke_time


class History:
    """Append-only record of operations across all clients."""

    def __init__(self) -> None:
        self.operations: list[Operation] = []
        #: completed writes by tag, so reads can share their objects
        self._writes_by_tag: dict[Any, Operation] = {}

    def record_invoke(self, op: Operation) -> Operation:
        self.operations.append(op)
        return op

    def record_response(self, op: Operation) -> None:
        """A client completed ``op``: let equal objects be one object.

        A write's response clock is its tag's clock (unless the server is
        broken, which stays visible: nothing is shared then).  A read that
        returned tag *t* shares the ``value`` and ``tag`` objects of the
        completed write *t* -- but only once ``np.array_equal`` has
        confirmed that it returned that write's value: a read that
        returned anything else keeps what it returned, for
        ``check_returns_written_values`` to flag.
        """
        if op.tag is None:
            return
        if op.kind == "write":
            if op.ts == op.tag.ts:
                op.ts = op.tag.ts
            self._writes_by_tag.setdefault(op.tag, op)
            return
        write = self._writes_by_tag.get(op.tag)
        if (
            write is not None
            and write.obj == op.obj
            and np.array_equal(write.value, op.value)
        ):
            op.value = write.value
            op.tag = write.tag

    # -- views --------------------------------------------------------

    def completed(self) -> list[Operation]:
        return [op for op in self.operations if op.done]

    def pending(self) -> list[Operation]:
        return [op for op in self.operations if not op.done]

    def failed(self) -> list[Operation]:
        return [op for op in self.operations if op.failed]

    def unsettled(self) -> list[Operation]:
        """Operations the client is still waiting on (not done, not failed)."""
        return [op for op in self.operations if not op.settled]

    def writes(self) -> list[Operation]:
        return [op for op in self.operations if op.kind == "write"]

    def reads(self) -> list[Operation]:
        return [op for op in self.operations if op.kind == "read"]

    def by_client(self) -> dict[int, list[Operation]]:
        """Per-client operation sequences in invocation order."""
        sessions: dict[int, list[Operation]] = {}
        for op in self.operations:
            sessions.setdefault(op.client_id, []).append(op)
        return sessions

    def read_latencies(self) -> list[float]:
        return [op.latency for op in self.reads() if op.done]

    def write_latencies(self) -> list[float]:
        return [op.latency for op in self.writes() if op.done]

    def __len__(self) -> int:
        return len(self.operations)
