"""Cluster harness: the top-level public API of the reproduction.

A :class:`CausalECCluster` wires together a linear code, N CausalEC servers,
a simulated asynchronous FIFO network, and any number of clients; it records
every operation into a :class:`~repro.consistency.history.History` ready for
consistency checking.

Quickstart::

    from repro import CausalECCluster, example1_code

    cluster = CausalECCluster(example1_code(), seed=1)
    c1 = cluster.add_client(server=0)   # a client near server 1
    c2 = cluster.add_client(server=4)   # a client near server 5
    cluster.execute(c1.write(0, [3]))   # write X1 := 3  (local, fast)
    op = cluster.execute(c2.read(0))    # read X1 via a recovery set
    assert op.value.tolist() == [3]

The generic :class:`Cluster` base also hosts the baseline protocols, which
share the client/network machinery.
"""

from __future__ import annotations

import numpy as np

from ..consistency.history import History, Operation
from ..ec.code import LinearCode
from ..sim.network import LatencyModel, LinkFaults, Network
from ..sim.node import Node
from ..sim.scheduler import Scheduler
from ..sim.transport import ReliableTransport, TransportConfig
from .client import Client, RetryPolicy
from .server import CausalECServer, ServerConfig

__all__ = ["Cluster", "CausalECCluster"]


class Cluster:
    """A simulated deployment: servers + clients + network + history.

    By default the network is the paper's reliable FIFO channel.  Pass
    ``link_faults`` (a :class:`~repro.sim.network.LinkFaults`) to run over
    a lossy substrate instead; an ARQ :class:`~repro.sim.transport
    .ReliableTransport` is then interposed automatically so protocol code
    still sees reliable FIFO channels.  ``transport`` can also be supplied
    explicitly (a :class:`~repro.sim.transport.TransportConfig`) to tune
    or force the ARQ sublayer.  ``self.network`` is the facade nodes send
    through (logical message stats); ``self.wire`` is the underlying
    physical network (wire-level stats, including retransmissions/acks).
    """

    def __init__(
        self,
        num_servers: int,
        latency: LatencyModel | None = None,
        seed: int = 0,
        scheduler: Scheduler | None = None,
        link_faults: LinkFaults | None = None,
        transport: TransportConfig | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.num_servers = num_servers
        self.scheduler = scheduler or Scheduler()
        self.rng = np.random.default_rng(seed)
        self.wire = Network(
            self.scheduler, latency=latency, rng=self.rng, faults=link_faults
        )
        if transport is None and link_faults is not None:
            transport = TransportConfig()
        if transport is not None:
            self.transport: ReliableTransport | None = ReliableTransport(
                self.wire, transport
            )
            self.network = self.transport
        else:
            self.transport = None
            self.network = self.wire
        self.retry = retry
        self.history = History()
        self.servers: list[Node] = []
        self.clients: list[Client] = []
        self._next_node_id = num_servers

    # ------------------------------------------------------------------
    # topology

    def add_client(
        self,
        server: int = 0,
        retry: RetryPolicy | None = None,
        failover: bool = False,
        failover_writes: bool = False,
        node_id: int | None = None,
        opid_counter=None,
    ) -> Client:
        """Create a client attached to ``server`` (a member of C_server).

        ``failover=True`` gives the client every other server (ring order
        after its home) as failover candidates.  ``node_id`` /
        ``opid_counter`` let a session that spans coding groups give its
        per-group clients one shared identity (see
        :class:`repro.kv.Session`); ids must be unique within this
        cluster's network and >= the server count.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no such server {server}")
        if node_id is None:
            node_id = self._next_node_id
            self._next_node_id += 1
        elif node_id < self.num_servers:
            raise ValueError(f"client id {node_id} collides with a server id")
        else:
            self._next_node_id = max(self._next_node_id, node_id + 1)
        candidates = None
        if failover:
            candidates = [
                (server + k) % self.num_servers
                for k in range(1, self.num_servers)
            ]
        client = Client(
            node_id,
            self.scheduler,
            self.network,
            server_id=server,
            history=self.history,
            retry=retry if retry is not None else self.retry,
            failover=candidates,
            failover_writes=failover_writes,
            opid_counter=opid_counter,
        )
        self.clients.append(client)
        return client

    def halt_server(self, server: int) -> None:
        """Crash a server (it takes no further steps)."""
        self.servers[server].halt()

    def restart_server(self, server: int) -> None:
        """Recover a crashed server (reloads its durable snapshot, if any)."""
        self.servers[server].restart()

    # ------------------------------------------------------------------
    # execution control

    def run(self, for_time: float | None = None, max_events: int | None = None):
        """Advance the simulation (by ``for_time`` ms, or to quiescence)."""
        until = None if for_time is None else self.scheduler.now + for_time
        self.scheduler.run(until=until, max_events=max_events)
        return self

    def execute(self, op: Operation, max_events: int = 1_000_000) -> Operation:
        """Run the simulation until ``op`` settles (or events exhaust).

        An op settles by completing *or* by failing fast with
        :class:`~repro.core.client.HomeServerUnavailable` (retry policy);
        either way the simulation does not hang on a dead home server.
        """
        self.scheduler.run(max_events=max_events, stop_when=lambda: op.settled)
        return op

    def write_sync(self, client: Client, obj: int, value) -> Operation:
        return self.execute(client.write(obj, value))

    def read_sync(self, client: Client, obj: int) -> Operation:
        return self.execute(client.read(obj))

    def settle(self, rounds: int = 50, max_events: int = 2_000_000) -> None:
        """Run until no more network/protocol events remain.

        With periodic GC timers the scheduler never empties, so this runs in
        bounded slices and stops when only timer events remain and the
        protocol state has stabilised.
        """
        last = None
        for _ in range(rounds):
            self.scheduler.run(
                until=self.scheduler.now + 10_000.0, max_events=max_events
            )
            snapshot = self.state_fingerprint()
            if snapshot == last:
                return
            last = snapshot

    def state_fingerprint(self):
        """Cheap digest of protocol state, for settle()'s fixpoint check."""
        return tuple(
            getattr(s, "transient_state_size", lambda: 0)() for s in self.servers
        )

    # ------------------------------------------------------------------
    # observability

    @property
    def now(self) -> float:
        return self.scheduler.now

    @property
    def stats(self):
        return self.network.stats


class CausalECCluster(Cluster):
    """A cluster of CausalEC servers parametrised by a linear code.

    ``durable=True`` attaches a :class:`~repro.core.snapshot.DurableStore`
    (or pass one explicitly) so servers persist eagerly and survive
    crash-*restart* via :meth:`restart_server`.
    """

    def __init__(
        self,
        code: LinearCode,
        latency: LatencyModel | None = None,
        seed: int = 0,
        config: ServerConfig | None = None,
        scheduler: Scheduler | None = None,
        link_faults: LinkFaults | None = None,
        transport: TransportConfig | None = None,
        retry: RetryPolicy | None = None,
        durable=False,
        repair=None,
        scrub=None,
    ):
        super().__init__(
            code.N,
            latency=latency,
            seed=seed,
            scheduler=scheduler,
            link_faults=link_faults,
            transport=transport,
            retry=retry,
        )
        self.code = code
        self.config = config or ServerConfig()
        self.repair = repair
        self.scrub = scrub
        self.servers = [
            CausalECServer(
                i,
                self.scheduler,
                self.network,
                code,
                self.config,
                repair=repair,
                scrub=scrub,
            )
            for i in range(code.N)
        ]
        self.durable = None
        if durable:
            from .snapshot import DurableStore  # avoid import cycle

            self.durable = durable if isinstance(durable, DurableStore) else (
                DurableStore()
            )
            for s in self.servers:
                s.attach_durability(self.durable, self.transport)

    # ------------------------------------------------------------------

    def server(self, i: int) -> CausalECServer:
        return self.servers[i]

    def replace_server(self, i: int) -> CausalECServer:
        """Permanently retire server ``i``'s machine and boot an *empty*
        replacement into the same slot at a higher configuration epoch.

        The simulator's channels are connectionless, so the live runtime's
        wire-level epoch fencing has nothing to fence here; replacement is
        modelled as: halt the old incarnation, wipe its durable slot (the
        replacement machine has a fresh disk), bump every live server's
        ``cfg_epoch``, and restart the slot empty.  State transfer is the
        same path the live runtime uses -- the anti-entropy repair overlay
        re-derives the slot's codeword row from any recovery set -- so the
        cluster must be constructed with ``repair`` enabled and run for a
        few digest intervals afterwards to heal.
        """
        old = self.servers[i]
        if old.repair is None:
            raise ValueError(
                "replace_server needs the repair overlay: an empty "
                "replacement can only re-derive its row via anti-entropy"
            )
        epoch = max(s.cfg_epoch for s in self.servers) + 1
        if not old.halted:
            old.halt()
        if self.durable is not None:
            self.durable.wipe(i)  # the replacement machine's disk is fresh
        old.wipe_volatile()
        old.permanently_failed = False  # same slot, new machine
        old.cfg_epoch = epoch
        for s in self.servers:
            if s is not old and not s.halted:
                s.cfg_epoch = epoch
        old.restart()
        return old

    def total_transient_entries(self) -> int:
        """Sum over servers of |L| + |InQueue| + |ReadL| (Theorem 4.5)."""
        return sum(
            s.transient_state_size() for s in self.servers if not s.halted
        )

    def total_history_entries(self) -> int:
        return sum(s.history_size() for s in self.servers if not s.halted)

    def repair_stats(self) -> dict[str, float]:
        """Aggregate anti-entropy counters across servers (zeros if off)."""
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.repair is None:
                continue
            for k, v in vars(s.repair.stats).items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def scrub_stats(self) -> dict[str, float]:
        """Aggregate scrub counters across servers (zeros if off), plus
        ``corrupt_dropped`` (link-level frames the network dropped as
        detected-corrupt) and ``checkpoint_reports`` (durable-store
        detections)."""
        totals: dict[str, float] = {}
        for s in self.servers:
            if s.scrub is None:
                continue
            for k, v in vars(s.scrub.stats).items():
                totals[k] = totals.get(k, 0) + v
        lf = self.network.faults
        totals["corrupt_dropped"] = 0 if lf is None else lf.corrupted
        # guard-path detections (read/val-inq/encoding) are on the core's
        # stats, not the scrub overlay's -- surface both
        totals["integrity_quarantines"] = sum(
            s.stats.integrity_quarantines for s in self.servers
        )
        if self.durable is not None:
            totals["checkpoint_reports"] = self.durable.corrupt_detected()
        return totals

    def assert_no_reencoding_errors(self) -> None:
        """Lemmas D.1/D.2: Error1/Error2 never fire in any execution."""
        for s in self.servers:
            if s.stats.error1_events or s.stats.error2_events:
                raise AssertionError(
                    f"server {s.node_id} hit re-encoding errors: "
                    f"Error1={s.stats.error1_events} Error2={s.stats.error2_events}"
                )

    def value(self, raw) -> np.ndarray:
        """Coerce a python scalar/list into an object value for this code."""
        field = self.code.field
        arr = np.asarray(raw)
        if arr.ndim == 0:
            arr = np.full(self.code.value_len, int(arr))
        return field.validate(arr)
