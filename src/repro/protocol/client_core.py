"""The CausalEC client protocol (Sec. 3, "Client protocol"), sans I/O.

A client is attached to exactly one server (the partition C_s of Sec. 2.1)
and sends ``write``/``read`` messages to it, awaiting the matching
``write-return-ack``/``read-return``.  Well-formedness is enforced: a client
has at most one pending invocation at any point.

The same client core drives every protocol in this repository (CausalEC and
the baselines) since they share the client-facing message types, and every
runtime (discrete-event simulation and the live asyncio cluster) since it
performs no I/O: invocations and handlers return effect lists, and operation
completion is surfaced as an :class:`~repro.protocol.effects.OpSettledEffect`
for the runtime to deliver to the application layer.

**Fault tolerance.**  With a :class:`RetryPolicy` attached, a client that
hears nothing from its home server re-sends the request with exponential
backoff, and -- once the retry budget or deadline is exhausted -- *fails
fast*: the operation is marked failed with a typed
:class:`HomeServerUnavailable` error instead of hanging.  Servers
deduplicate retried requests (same opid), so retries are safe even when the
original request was delivered but its response was lost to a crash.  A
failed operation releases the well-formedness slot; the consistency checkers
treat it as incomplete (it *may* still take effect later, e.g. when a
crashed server recovers and the ARQ transport delivers the original request
after all).

**Failover.**  With a ``failover`` candidate list attached, a client whose
home server exhausts its per-server retry budget *fails over* instead of
failing the operation: it switches its home server (sticky -- subsequent
operations go to the new server too) and surfaces the switch as a
:class:`~repro.protocol.effects.HomeServerSwitchEffect` so a live runtime
can re-dial.  Only **reads** are retried across servers mid-operation:
read requests are idempotent everywhere, whereas write dedup is *per
server* (each server keeps its own client-session table), so re-sending an
in-flight write to a different server could apply the same write twice
under two different tags.  A pending write therefore fails fast with
:class:`HomeServerUnavailable` as before -- but the client still rotates to
a new home server for its *next* operation.  ``failover_writes=True``
lifts the restriction for callers that accept duplicate-apply risk.
:class:`HomeServerUnavailable` is raised only after every candidate has
been tried (for reads) and carries the list of servers tried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..consistency.history import History, Operation, compact_value
from ..core.messages import (
    MigrateInstall,
    ReadRequest,
    ReadReturn,
    WriteAck,
    WriteRequest,
)
from .effects import (
    CancelTimerEffect,
    HomeServerSwitchEffect,
    OpSettledEffect,
    ProtocolCore,
    SetTimerEffect,
)

__all__ = ["ClientCore", "RetryPolicy", "HomeServerUnavailable"]


class HomeServerUnavailable(RuntimeError):
    """A client operation gave up: no candidate server responded in time.

    ``servers_tried`` lists every server the operation was sent to (just the
    home server when no failover candidates are configured, or when the
    operation is a write -- see the module docstring).
    """

    def __init__(
        self,
        opid,
        server_id: int,
        attempts: int,
        waited: float,
        servers_tried: list[int] | None = None,
    ):
        self.opid = opid
        self.server_id = server_id
        self.attempts = attempts
        self.waited = waited
        self.servers_tried = (
            list(servers_tried) if servers_tried is not None else [server_id]
        )
        tried = ""
        if len(self.servers_tried) > 1:
            tried = f" (servers tried: {self.servers_tried})"
        super().__init__(
            f"operation {opid!r}: home server {server_id} unresponsive after "
            f"{attempts} attempt(s) over {waited:.1f} ms{tried}"
        )


@dataclass
class RetryPolicy:
    """Request timeout + retry with exponential backoff.

    ``timeout`` is the wait before the first retry; each subsequent wait
    multiplies by ``backoff``.  After ``max_retries`` re-sends -- or, if
    ``deadline`` is set, once that much total time has elapsed since the
    invocation -- the operation fails with :class:`HomeServerUnavailable`.
    """

    timeout: float = 50.0
    max_retries: int = 4
    backoff: float = 2.0
    deadline: float | None = None

    def __post_init__(self):
        if self.timeout <= 0 or self.backoff < 1.0 or self.max_retries < 0:
            raise ValueError(
                "need timeout > 0, backoff >= 1, max_retries >= 0"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")


class ClientCore(ProtocolCore):
    """A client state machine issuing read/write operations to its server.

    Retry timers are named ``("retry", opid, attempt)``; the attempt count
    in the id makes re-arming on retransmission a fresh timer rather than a
    replacement race.
    """

    def __init__(
        self,
        node_id: int,
        server_id: int,
        history: History | None = None,
        retry: RetryPolicy | None = None,
        failover: list[int] | None = None,
        failover_writes: bool = False,
        opid_counter=None,
    ):
        self.node_id = node_id
        self.server_id = server_id
        self.history = history
        self.retry = retry
        self.failover = list(failover or [])
        self.failover_writes = failover_writes
        self.now = 0.0
        #: session floor: merge of every response ``ts`` observed.  Sent
        #: with each request so a failed-over-to server can defer serving
        #: until its own clock covers everything this session has seen.
        self.session_ts = None
        #: ring epoch stamped on outgoing requests (sharded deployments);
        #: a ShardedSession keeps it at the router's current view.
        self.view_version: int | None = None
        # A ShardedSession spans several per-shard cores that together form
        # ONE logical session: they share a single opid counter (and node
        # id) so the audit trail sees one session with a global op order.
        self._op_counter = (
            opid_counter if opid_counter is not None else itertools.count()
        )
        self._migrate_gen: int | None = None
        self._pending: Operation | None = None
        self._attempts = 0
        self._retry_timer_id: tuple | None = None
        self._servers_tried: list[int] = [server_id]

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._pending is not None

    def start_write(self, obj: int, value: np.ndarray, now: float):
        """Invoke write(X, v); returns ``(op, effects)``."""
        self._begin(now)
        self._migrate_gen = None
        op = self._invoke("write", obj, value)
        self._transmit_request()
        return op, self._end()

    def start_read(self, obj: int, now: float):
        """Invoke read(X); returns ``(op, effects)``."""
        self._begin(now)
        self._migrate_gen = None
        op = self._invoke("read", obj, None)
        self._transmit_request()
        return op, self._end()

    def start_migrate(self, obj: int, value: np.ndarray, gen: int, now: float):
        """Invoke a migration install: a write that the destination logs
        with kind ``migrate`` and generation ``gen``.  Used only by view-
        change coordinators; retransmits rebuild the same message type."""
        self._begin(now)
        self._migrate_gen = gen
        op = self._invoke("write", obj, value)
        self._transmit_request()
        return op, self._end()

    def _invoke(self, kind: str, obj: int, value) -> Operation:
        if self._pending is not None:
            raise RuntimeError(
                f"client {self.node_id} already has a pending operation "
                f"(well-formedness, Sec. 2.1)"
            )
        op = Operation(
            client_id=self.node_id,
            opid=(self.node_id, next(self._op_counter)),
            kind=kind,
            obj=obj,
            value=None if value is None else np.asarray(value),
            invoke_time=self.now,
        )
        self._pending = op
        self._attempts = 0
        self._servers_tried = [self.server_id]
        if self.history is not None:
            self.history.record_invoke(op)
        return op

    def _request_message(self):
        op = self._pending
        if op.kind == "write":
            if self._migrate_gen is not None:
                msg = MigrateInstall(
                    op.opid, op.obj, op.value, gen=self._migrate_gen
                )
            else:
                msg = WriteRequest(op.opid, op.obj, op.value)
        else:
            msg = ReadRequest(op.opid, op.obj)
        msg.session_ts = self.session_ts
        msg.view = self.view_version
        msg.size_bits = 0.0
        return msg

    def _transmit_request(self) -> None:
        """(Re-)send the pending request and arm the retry timer."""
        op = self._pending
        if op is None:
            return
        self._attempts += 1
        self._emit_send(self.server_id, self._request_message())
        if self.retry is not None:
            wait = self.retry.timeout * (
                self.retry.backoff ** (self._attempts - 1)
            )
            timer_id = ("retry", op.opid, self._attempts)
            self._emit(SetTimerEffect(timer_id, wait))
            self._retry_timer_id = timer_id

    def handle_timer(self, timer_id: tuple, now: float) -> list:
        self._begin(now)
        if timer_id[0] == "retry":
            self._on_timeout(timer_id[1])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown timer {timer_id!r}")
        return self._end()

    def _on_timeout(self, opid) -> None:
        op = self._pending
        if op is None or op.opid != opid:
            return  # completed (or failed) meanwhile
        waited = self.now - op.invoke_time
        out_of_retries = self._attempts > self.retry.max_retries
        past_deadline = (
            self.retry.deadline is not None and waited >= self.retry.deadline
        )
        if past_deadline:
            # The deadline is a total budget across every candidate server.
            self._fail(op, waited)
        elif out_of_retries:
            nxt = self._next_candidate()
            if nxt is None:
                self._fail(op, waited)
            elif op.kind == "read" or self.failover_writes:
                self._switch(nxt, op.opid)
                self._attempts = 0
                self._transmit_request()
            else:
                # An in-flight write must not chase a new server: write dedup
                # is per-server, so a cross-server retry could apply twice.
                # Fail it fast, but rotate the sticky home server so the
                # client's *next* operation avoids the unresponsive one.
                self._fail(op, waited)
                self._switch(nxt, None)
        else:
            self._transmit_request()

    def suspect_home(self, now: float) -> list:
        """External suspicion hint (e.g. a failure detector): rotate early.

        An idle client just switches its sticky home server; a client with a
        pending read re-sends it to the new server immediately.  A pending
        write is left to the retry policy's fail-fast path -- the same
        per-server-dedup hazard as in :meth:`_on_timeout` applies.
        """
        self._begin(now)
        nxt = self._next_candidate()
        if nxt is not None:
            op = self._pending
            if op is None:
                self._switch(nxt, None)
            elif op.kind == "read" or self.failover_writes:
                self._cancel_retry()
                self._switch(nxt, op.opid)
                self._attempts = 0
                self._transmit_request()
        return self._end()

    def _next_candidate(self) -> int | None:
        """The first failover server not yet tried for the current op."""
        tried = (
            self._servers_tried
            if self._pending is not None
            else [self.server_id]
        )
        for s in self.failover:
            if s != self.server_id and s not in tried:
                return s
        return None

    def _switch(self, new: int, opid) -> None:
        old = self.server_id
        self.server_id = new
        if self._pending is not None:
            self._servers_tried.append(new)
        self._emit(HomeServerSwitchEffect(old, new, opid))

    def _fail(self, op: Operation, waited: float) -> None:
        """Give up: surface unavailability instead of hanging forever."""
        op.failed = True
        op.failed_time = self.now
        op.error = HomeServerUnavailable(
            op.opid,
            self.server_id,
            self._attempts,
            waited,
            servers_tried=self._servers_tried,
        )
        self._pending = None
        self._emit(OpSettledEffect(op, failed=True))

    def _cancel_retry(self) -> None:
        if self._retry_timer_id is not None:
            self._emit(CancelTimerEffect(self._retry_timer_id))
            self._retry_timer_id = None

    # ------------------------------------------------------------------

    def handle_message(self, src: int, msg: object, now: float) -> list:
        self._begin(now)
        op = self._pending
        if op is None:
            return self._end()
        if isinstance(msg, WriteAck) and msg.opid == op.opid:
            self._cancel_retry()
            op.response_time = self.now
            op.ts = msg.ts
            op.tag = msg.tag
            self._observe_ts(msg.ts)
            self._complete(op)
        elif isinstance(msg, ReadReturn) and msg.opid == op.opid:
            self._cancel_retry()
            op.response_time = self.now
            op.value = msg.value
            op.ts = msg.ts
            op.tag = msg.value_tag
            self._observe_ts(msg.ts)
            self._complete(op)
        return self._end()

    def _complete(self, op: Operation) -> None:
        self._pending = None
        # nobody re-sends a completed request: keep the value small, and
        # owned -- a read's value is a view that pins its whole wire frame
        op.value = compact_value(op.value)
        if self.history is not None:
            self.history.record_response(op)
        self._emit(OpSettledEffect(op))

    def _observe_ts(self, ts) -> None:
        if ts is None:
            return
        self.session_ts = (
            ts if self.session_ts is None else self.session_ts.merge(ts)
        )
