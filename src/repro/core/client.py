"""Simulated client: the sans-I/O client core on the discrete-event runtime.

The client protocol (invocation well-formedness, retry with exponential
backoff, fail-fast unavailability) lives in
:class:`~repro.protocol.client_core.ClientCore`; this module supplies
:class:`Client`, the simulated node every cluster and workload driver uses.
``write``/``read`` feed invocations into the core and interpret the
returned effects; completion surfaces through the ``on_complete`` /
``on_failure`` hooks exactly as before the sans-I/O refactor.

``RetryPolicy`` and ``HomeServerUnavailable`` are re-exported from the
protocol package for backward compatibility.
"""

from __future__ import annotations

import numpy as np

from ..consistency.history import History, Operation
from ..protocol.client_core import ClientCore, HomeServerUnavailable, RetryPolicy
from ..runtime.sim import EffectNode
from ..sim.network import Network
from ..sim.node import Node
from ..sim.scheduler import Scheduler

__all__ = ["Client", "RetryPolicy", "HomeServerUnavailable"]


class Client(EffectNode, ClientCore):
    """A client node issuing read/write operations to its home server."""

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        network: Network,
        server_id: int,
        history: History | None = None,
        retry: RetryPolicy | None = None,
        failover: list[int] | None = None,
        failover_writes: bool = False,
        opid_counter=None,
    ):
        Node.__init__(self, node_id, scheduler, network)
        ClientCore.__init__(
            self,
            node_id,
            server_id,
            history,
            retry,
            failover=failover,
            failover_writes=failover_writes,
            opid_counter=opid_counter,
        )
        self._timers: dict[tuple, object] = {}

    def write(self, obj: int, value: np.ndarray) -> Operation:
        """Invoke write(X, v); returns the operation record (async)."""
        op, effects = self.start_write(obj, value, self.scheduler.now)
        self.interpret(effects)
        return op

    def read(self, obj: int) -> Operation:
        """Invoke read(X); returns the operation record (async)."""
        op, effects = self.start_read(obj, self.scheduler.now)
        self.interpret(effects)
        return op
