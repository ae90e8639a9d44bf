"""State snapshots: introspection and durable crash-recovery checkpoints.

Debugging a distributed protocol lives or dies on being able to *see* the
state.  :func:`snapshot_server` renders one server's full CausalEC state
(vector clock, codeword tags, history/deletion lists, pending reads,
watermarks) as plain dictionaries; :func:`snapshot_cluster` collects all
servers; :func:`format_snapshot` pretty-prints for humans.  Snapshots are
pure data (tags rendered as tuples) -- safe to diff, serialise, or assert
against in tests.

The second half of the module is *durable* snapshotting for crash-recovery:
:func:`capture_server_state` gathers everything a server needs to resume
(protocol state plus, when an ARQ transport is attached, its channel
state) *by reference*, a :class:`DurableStore` models each server's stable
storage, and :func:`restore_server_state` reinstalls a checkpoint into a
restarted server.  Copying is the job of whoever keeps the checkpoint: the
simulator's :class:`DurableStore` retains the object and deep-copies it in
``persist``; the live file store serialises it on the spot and copies
nothing.  Simulated servers persist eagerly -- after every handled message
and timer step; live servers persist once per event-loop iteration and
hold every reply, ack and frame until that checkpoint is durable -- so
either way anything a server ever acknowledged (transport-level acks
included) is on disk, and recovery never regresses the causal past the
rest of the system may have observed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any

from .server import CausalECServer
from .tags import Tag

__all__ = [
    "snapshot_server",
    "snapshot_cluster",
    "format_snapshot",
    "ServerCheckpoint",
    "CorruptCheckpoint",
    "DurableStore",
    "capture_server_state",
    "restore_server_state",
]


def _tag(t: Tag) -> tuple:
    return (t.ts.components, t.client_id)


def snapshot_server(server: CausalECServer) -> dict[str, Any]:
    """A plain-data snapshot of one server's protocol state."""
    code = server.code
    return {
        "server": server.node_id,
        "halted": server.halted,
        "vc": server.vc.components,
        "objects_stored": sorted(server.objects),
        "codeword_tagvec": {
            x: _tag(server.M.tagvec[x]) for x in range(code.K)
        },
        "codeword_value": server.M.value.tolist(),
        "history": {
            x: sorted(_tag(t) for t in server.L[x].tags())
            for x in range(code.K)
            if len(server.L[x])
        },
        "tmax": {x: _tag(server.tmax[x]) for x in range(code.K)},
        "inqueue_len": len(server.inqueue),
        "pending_reads": [
            {
                "opid": e.opid,
                "client": e.client_id,
                "obj": e.obj,
                "symbols_from": sorted(e.symbols),
            }
            for e in server.readl.entries()
        ],
        "deletion_list_entries": {
            x: server.DelL[x].total_entries() for x in range(code.K)
        },
        "stats": vars(server.stats).copy(),
    }


def snapshot_cluster(cluster) -> dict[str, Any]:
    """Snapshots of every server plus cluster-level aggregates."""
    return {
        "time": cluster.now,
        "servers": [snapshot_server(s) for s in cluster.servers],
        "messages": dict(cluster.network.stats.messages),
        "operations": len(cluster.history),
        "pending_operations": len(cluster.history.pending()),
    }


def format_snapshot(snap: dict[str, Any]) -> str:
    """Human-readable rendering of a server or cluster snapshot."""
    if "servers" in snap:
        lines = [f"cluster @ t={snap['time']:.1f} ms, "
                 f"{snap['operations']} ops ({snap['pending_operations']} pending)"]
        for s in snap["servers"]:
            lines.append(format_snapshot(s))
        return "\n".join(lines)
    lines = [
        f"server {snap['server']}"
        + (" [HALTED]" if snap["halted"] else "")
        + f"  vc={snap['vc']}"
    ]
    lines.append(f"  codeword tags: { {x: t[0] for x, t in snap['codeword_tagvec'].items()} }")
    if snap["history"]:
        for x, tags in snap["history"].items():
            lines.append(f"  L[X{x + 1}]: {len(tags)} version(s)")
    if snap["pending_reads"]:
        lines.append(f"  pending reads: {len(snap['pending_reads'])}")
    if snap["inqueue_len"]:
        lines.append(f"  inqueue: {snap['inqueue_len']} waiting")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Durable checkpoints (crash-recovery)

#: CausalECServer attributes that constitute recoverable protocol state.
#: Volatile machinery (timers, stats counters, the visibility log) is
#: deliberately excluded: timers belong to an incarnation, and stats/logs
#: are measurement artefacts of the simulation, not protocol state.
_DURABLE_ATTRS = (
    "vc",
    "inqueue",
    "L",
    "DelL",
    "readl",
    "tmax",
    "M",
    "_opid_seq",
    "_del_sent_storing",
    "_del_sent_all",
    "_client_sessions",
    "view",
    # dynamic membership: the epoch a server acknowledged and the ids it
    # knows to be retired must survive a crash-restart, or a recovered
    # server would rejoin fenced out of (or fencing) its own group
    "cfg_epoch",
    "cfg_retired",
)


@dataclass
class ServerCheckpoint:
    """One durable snapshot of a server (plus optional transport state)."""

    server_id: int
    time: float
    state: dict[str, Any]
    transport: dict[str, Any] | None = None


@dataclass
class CorruptCheckpoint:
    """Typed report of a checkpoint that failed integrity verification.

    Stores surface this instead of raising: a corrupt or truncated
    checkpoint is treated as *no* checkpoint (the server restarts empty
    and anti-entropy repair re-derives its state from peers), and the
    report preserves what was detected for operators, scrub stats, and
    chaos-soak assertions.
    """

    server_id: int
    path: str | None
    reason: str


def capture_server_state(server, transport=None) -> ServerCheckpoint:
    """Gather a server's recoverable state into a checkpoint, by reference.

    The checkpoint aliases the live objects: serialise it (or deep-copy
    it, as :meth:`DurableStore.persist` does) before the server handles
    its next event.  ``server`` may be a simulated :class:`CausalECServer`
    or a bare :class:`~repro.protocol.server_core.ServerCore` driven by a
    live runtime; the checkpoint time comes from the scheduler when there
    is one, else from the core's last-event clock.
    """
    state = {name: getattr(server, name) for name in _DURABLE_ATTRS}
    tstate = None if transport is None else transport.snapshot_node(server.node_id)
    sched = getattr(server, "scheduler", None)
    return ServerCheckpoint(
        server_id=server.node_id,
        time=sched.now if sched is not None else server.now,
        state=state,
        transport=tstate,
    )


def restore_server_state(
    server, checkpoint: ServerCheckpoint, transport=None
) -> None:
    """Reinstall a checkpoint into ``server`` (same id/code required)."""
    if checkpoint.server_id != server.node_id:
        raise ValueError(
            f"checkpoint belongs to server {checkpoint.server_id}, "
            f"not {server.node_id}"
        )
    for name in _DURABLE_ATTRS:
        if name not in checkpoint.state:
            continue  # checkpoint from an older attr set: keep the default
        setattr(server, name, copy.deepcopy(checkpoint.state[name]))
    # read-timeout timers died with the old incarnation
    server._read_timeouts = {}
    # membership-derived caches (peer fanout) follow the restored
    # retirement set; older cores without the hook need no refresh
    refresh = getattr(server, "_refresh_membership", None)
    if refresh is not None:
        server.cfg_retired = tuple(getattr(server, "cfg_retired", ()))
        refresh()
    # a checkpoint written before field symbols were kept in the field's
    # storage dtype holds int64 arrays: narrow them (no copy when already
    # right) *before* sealing -- the seal is over the symbol's raw bytes
    _to_storage_dtype(server)
    # the integrity seal covers the *restored* codeword, not the boot-time one
    server.reseal_codeword()
    if transport is not None and checkpoint.transport is not None:
        transport.restore_node(
            server.node_id, copy.deepcopy(checkpoint.transport)
        )


def _to_storage_dtype(server) -> None:
    """Cast every field-element array of the restored state to the code's
    storage dtype: the symbol, history-list values, queued ``app`` values
    and the symbols pending reads have collected."""
    narrow = server._stored
    server.M.value = narrow(server.M.value)
    for hist in server.L.values():
        for tag, value in hist.items():
            hist.add(tag, narrow(value))
    for queued in server.inqueue._entries:
        queued.value = narrow(queued.value)
    for entry in server.readl.entries():
        entry.symbols = {s: narrow(w) for s, w in entry.symbols.items()}


@dataclass
class DurableStore:
    """Stable storage for server checkpoints (one slot per server).

    Models each server's local disk: :meth:`persist` atomically replaces
    the server's checkpoint, :meth:`load` returns the latest one (or
    ``None`` before the first persist).  ``persist_counts`` supports tests
    and benchmarks that reason about persistence frequency.

    Bit rot is modelled at *detection* level: :meth:`corrupt` marks a
    slot's checkpoint as damaged, and a subsequent :meth:`load` then
    behaves exactly like the live :class:`~repro.runtime.asyncio_rt
    .FileDurableStore` facing a digest mismatch -- it records a typed
    :class:`CorruptCheckpoint` and returns ``None`` (a fresh persist
    replaces the damaged slot and clears the mark).
    """

    _checkpoints: dict[int, ServerCheckpoint] = field(default_factory=dict)
    persist_counts: dict[int, int] = field(default_factory=dict)
    _corrupt: set[int] = field(default_factory=set)
    #: every corruption detected by :meth:`load`, oldest first
    corruption_reports: list[CorruptCheckpoint] = field(default_factory=list)

    def persist(self, checkpoint: ServerCheckpoint) -> None:
        # the slot outlives the event that produced the checkpoint, whose
        # state and transport halves both alias the live server and its
        # channels: keep a private copy of each
        self._checkpoints[checkpoint.server_id] = replace(
            checkpoint,
            state=copy.deepcopy(checkpoint.state),
            transport=copy.deepcopy(checkpoint.transport),
        )
        self._corrupt.discard(checkpoint.server_id)
        self.persist_counts[checkpoint.server_id] = (
            self.persist_counts.get(checkpoint.server_id, 0) + 1
        )

    def load(self, server_id: int) -> ServerCheckpoint | None:
        if server_id in self._corrupt:
            self.corruption_reports.append(
                CorruptCheckpoint(server_id, None, "simulated bit rot")
            )
            return None
        return self._checkpoints.get(server_id)

    def verify(self, server_id: int) -> bool | None:
        """Disk-scrub hook: re-check a slot without surfacing its data.

        Returns ``None`` when the slot is empty, ``True`` when intact,
        ``False`` (recording a typed report) when marked rotted -- the
        same contract as the live store's ``verify_file``.
        """
        if server_id not in self._checkpoints:
            return None
        if server_id in self._corrupt:
            self.corruption_reports.append(
                CorruptCheckpoint(server_id, None, "simulated bit rot")
            )
            return False
        return True

    def corrupt(self, server_id: int) -> bool:
        """Damage server ``server_id``'s checkpoint (detected on load).

        Returns whether there was a checkpoint to damage.
        """
        if server_id not in self._checkpoints:
            return False
        self._corrupt.add(server_id)
        return True

    def is_corrupt(self, server_id: int) -> bool:
        return server_id in self._corrupt

    def corrupt_detected(self, server_id: int | None = None) -> int:
        """How many corrupt checkpoints :meth:`load` has reported."""
        if server_id is None:
            return len(self.corruption_reports)
        return sum(
            1 for r in self.corruption_reports if r.server_id == server_id
        )

    def wipe(self, server_id: int) -> None:
        """Simulate disk loss for one server (tests)."""
        self._checkpoints.pop(server_id, None)
        self._corrupt.discard(server_id)
