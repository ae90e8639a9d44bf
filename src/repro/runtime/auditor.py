"""Online causal-consistency auditor: a TCP sink for decision-log streams.

Every :class:`~repro.runtime.asyncio_rt.AsyncioServer` (when given an
``audit_addr``) streams its decision log over the wire codec as
:class:`~repro.consistency.online.AuditOp` frames.  The auditor listens,
feeds every record into an
:class:`~repro.consistency.online.IncrementalCausalChecker`, and flags
violations *while the cluster runs* -- the live counterpart of running the
offline bad-pattern checker after the fact.

Wire format: a server dials the auditor, sends a hello frame
``("ha", server_id)``, then any number of ``("r", AuditOp)`` frames, each
pushed when the commit that makes it durable lands.  Servers replay their
**entire** log after every (re)connect -- the simple strategy that needs
no resume negotiation -- and the checker deduplicates by ``(server,
seq)``, so replays are free.  The stream has no ARQ, so a record failing
its frame CRC closes the connection rather than being skipped: the
reconnect replays it.  A hello or record of the wrong shape closes the
connection too.  A server killed mid-stream reconnects after restart and
replays; nothing is lost as long as the server eventually comes back, and
reads referencing a never-returning server's writes are reported by
``finalize()`` as thin-air reads.

The auditor is an observer: it never sends anything back, and the cluster
functions identically without one.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from pathlib import Path

from ..consistency.online import (
    AuditOp,
    AuditViolation,
    IncrementalCausalChecker,
)
from .asyncio_rt import _Framed, _kind

__all__ = ["OnlineAuditor"]


class _AuditSink(_Framed):
    """One server's audit stream: a hello, then records."""

    def __init__(self, auditor: "OnlineAuditor"):
        super().__init__(auditor)
        self.auditor = auditor
        self.greeted = False

    def frame_received(self, frame) -> None:
        a, kind = self.auditor, _kind(frame)
        if not self.greeted:
            if kind == "ha" and len(frame) == 2 and type(frame[1]) is int:
                self.greeted = True
                a.connections += 1
                return
        elif kind == "r" and len(frame) == 2 and isinstance(frame[1], AuditOp):
            a.records_received += 1
            a.checker.ingest(frame[1])
            return
        self.transport.close()

    def frame_corrupt(self) -> None:
        # skipping would lose the record for good; the replay after the
        # reconnect delivers it again
        self.transport.close()


class OnlineAuditor:
    """Listens for decision-log streams and checks them incrementally."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_interval: int = 64,
    ):
        self.host = host
        self.port = port
        self.checker = IncrementalCausalChecker(sweep_interval=sweep_interval)
        self.records_received = 0
        self.connections = 0
        self._listener: asyncio.Server | None = None
        self._finalized = False

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> None:
        self._listener = await asyncio.get_running_loop().create_server(
            partial(_AuditSink, self), self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]

    def finalize(self) -> list[AuditViolation]:
        """End-of-run verdict: full sweep plus thin-air-read detection."""
        self._finalized = True
        return self.checker.finalize()

    async def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    def dump(self, path: str | Path) -> Path:
        """Write a JSON violation trace (CI failure artifact)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "finalized": self._finalized,
            "records_received": self.records_received,
            "records_ingested": self.checker.records_ingested,
            "connections": self.connections,
            "violations": [
                {"kind": v.kind, "detail": v.detail, "ops": [repr(o) for o in v.ops]}
                for v in self.checker.violations
            ],
        }
        path.write_text(json.dumps(payload, indent=2))
        return path
