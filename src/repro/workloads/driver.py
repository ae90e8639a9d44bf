"""Closed-loop workload driver for simulated clusters.

Attaches one closed-loop client per configured site: each client repeatedly
issues a read or write (per ``read_ratio``) to a key drawn from the key
generator, waits for the response, thinks for an exponential think time, and
repeats -- until its operation budget is exhausted.  This is the YCSB-style
load pattern the paper's Sec. 4.2 analysis assumes.

Values are generated unique-per-write (a counter embedded in the value
vector) so consistency checkers can match reads to writes black-box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..consistency.history import Operation
from ..core.client import Client
from ..core.cluster import Cluster
from .generators import KeyGenerator, UniformGenerator

__all__ = ["WorkloadConfig", "ClosedLoopDriver", "encode_unique_value"]


def encode_unique_value(cluster, counter: int) -> np.ndarray:
    """Encode ``counter`` injectively into the cluster's value space.

    Consistency checking attributes reads to writes by value, so written
    values must be unique; raises when the value space is too small for the
    number of writes issued (increase ``value_len`` or write fewer values).
    """
    code = getattr(cluster, "code", None)
    if code is not None:
        vlen, order = code.value_len, code.field.order
        out = code.field.zeros(vlen)
    else:
        # baselines without a code hold opaque integers, not field elements
        vlen, order = getattr(cluster, "value_len", 1), 1 << 31
        out = np.zeros(vlen, dtype=np.int64)
    c = counter
    for i in range(vlen):
        out[i] = c % order
        c //= order
    if c:
        raise ValueError(
            f"value space of {order}^{vlen} cannot hold {counter} distinct "
            f"write values; use a larger value_len"
        )
    return out


@dataclass
class WorkloadConfig:
    ops_per_client: int = 50
    read_ratio: float = 0.5
    think_time_mean: float = 1.0  # ms between an op's response and the next op
    seed: int = 0


class _DrivenClient(Client):
    """A client that issues its next op from the driver when one completes."""

    driver: "ClosedLoopDriver | None" = None

    def on_complete(self, op: Operation) -> None:
        if self.driver is not None:
            self.driver._op_finished(self)

    def on_failure(self, op: Operation) -> None:
        # unavailability is not the end of the session: move on to the
        # next operation (the failed one stays recorded in the history)
        if self.driver is not None:
            self.driver._op_failed(self)


class ClosedLoopDriver:
    """Runs a closed-loop workload against a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        num_objects: int,
        client_sites: list[int] | None = None,
        keygen: KeyGenerator | None = None,
        config: WorkloadConfig | None = None,
        make_value=None,
        preset=None,
        retry=None,
    ):
        """``preset`` may be a :class:`~repro.workloads.ycsb.YcsbPreset`:
        it supplies the key generator and read ratio, and enables
        read-modify-write pairs (workload F) and insert-driven recency
        (workload D)."""
        self.cluster = cluster
        self.config = config or WorkloadConfig()
        self.preset = preset
        if preset is not None:
            keygen = keygen or preset.make_keygen(num_objects)
            self.config.read_ratio = preset.read_ratio
        self.keygen = keygen or UniformGenerator(num_objects)
        self._rmw_pending: dict[int, int] = {}  # client node id -> key
        self.rng = np.random.default_rng(self.config.seed)
        self._value_counter = itertools.count(1)
        self._make_value = make_value or self._default_value
        sites = client_sites if client_sites is not None else list(
            range(cluster.num_servers)
        )
        self.clients: list[_DrivenClient] = []
        self._remaining: dict[int, int] = {}
        for site in sites:
            client = _DrivenClient(
                cluster._next_node_id,
                cluster.scheduler,
                cluster.network,
                server_id=site,
                history=cluster.history,
                retry=retry if retry is not None else getattr(
                    cluster, "retry", None
                ),
            )
            cluster._next_node_id += 1
            cluster.clients.append(client)
            client.driver = self
            self.clients.append(client)
            self._remaining[client.node_id] = self.config.ops_per_client

    # ------------------------------------------------------------------

    def _default_value(self, counter: int) -> np.ndarray:
        """A unique value per write: the counter spread across the vector."""
        return encode_unique_value(self.cluster, counter)

    def start(self) -> None:
        """Schedule the first operation of every client."""
        for client in self.clients:
            self._schedule_next(client, initial=True)

    def run(self, max_events: int = 5_000_000) -> None:
        """start() + run the simulation until all budgets are spent."""
        self.start()
        self.cluster.scheduler.run(
            max_events=max_events, stop_when=self._all_done
        )

    def _all_done(self) -> bool:
        return all(v <= 0 for v in self._remaining.values()) and not any(
            c.busy for c in self.clients
        )

    def done(self) -> bool:
        return self._all_done()

    # ------------------------------------------------------------------

    def _schedule_next(self, client: _DrivenClient, initial: bool = False) -> None:
        if self._remaining[client.node_id] <= 0:
            return
        delay = float(self.rng.exponential(self.config.think_time_mean))
        if initial:
            # desynchronise client start times
            delay = float(self.rng.uniform(0, self.config.think_time_mean + 1e-6))
        client.set_timer(delay, lambda: self._issue(client))

    def _issue(self, client: _DrivenClient) -> None:
        if client.busy or self._remaining[client.node_id] <= 0:
            return
        self._remaining[client.node_id] -= 1
        obj = self.keygen.sample(self.rng)
        if self.rng.random() < self.config.read_ratio:
            client.read(obj)
        else:
            if self.preset is not None and self.preset.read_modify_write:
                # workload F: a read that will be followed by a write-back
                self._rmw_pending[client.node_id] = obj
                client.read(obj)
                return
            if self.preset is not None and self.preset.insert_on_write:
                # workload D: the write is an insert; it becomes the newest
                obj = self.keygen.advance()
            client.write(obj, self._make_value(next(self._value_counter)))

    def _op_finished(self, client: _DrivenClient) -> None:
        obj = self._rmw_pending.pop(client.node_id, None)
        if obj is not None:
            # complete the read-modify-write pair immediately
            client.write(obj, self._make_value(next(self._value_counter)))
            return
        self._schedule_next(client)

    def _op_failed(self, client: _DrivenClient) -> None:
        """Home server unavailable: drop the op and continue the session."""
        self._rmw_pending.pop(client.node_id, None)
        self._schedule_next(client)
