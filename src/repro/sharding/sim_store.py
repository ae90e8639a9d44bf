"""Sharded CausalEC store on the discrete-event simulator.

S independent :class:`~repro.core.cluster.CausalECCluster` coding groups
share one :class:`~repro.sim.scheduler.Scheduler` (the same pattern as
:class:`~repro.kv.grouped.GroupedCausalKVStore`, which this generalizes),
routed by a :class:`~repro.sharding.router.ShardRouter`.  A
:class:`ShardedSimSession` spans shards while remaining ONE logical
session: its per-shard clients share a node id and an opid counter, and
the cross-shard causal floor is the per-shard map of session timestamps
each client core already maintains (clocks never mix across shards --
they have different dimensions and unrelated origins), topped up with the
router's cutover floors for migrated keys.

View changes (key migration under a new ring) run only in the live
runtime, :class:`~repro.runtime.sharded_rt.ShardedAsyncioCluster`.
"""

from __future__ import annotations

import itertools

from ..core.cluster import CausalECCluster
from ..core.server import ServerConfig
from ..protocol.client_core import RetryPolicy
from ..sim.network import LatencyModel
from ..sim.scheduler import Scheduler
from .codes import default_shard_code
from .router import KeyMigrating, ShardRouter

__all__ = ["ShardedSimStore", "ShardedSimSession"]


class ShardedSimStore:
    """S CausalEC coding groups on one scheduler, behind a shard router."""

    def __init__(
        self,
        keys,
        num_shards: int = 2,
        slots_per_shard: int = 4,
        num_servers: int = 5,
        value_len: int = 1,
        code_factory=None,
        config: ServerConfig | None = None,
        latency: LatencyModel | None = None,
        seed: int = 0,
        vnodes: int = 64,
    ):
        self.scheduler = Scheduler()
        self.num_servers = num_servers
        self.value_len = value_len
        self.seed = seed
        self.latency = latency
        self.config = config or ServerConfig(gc_interval=50.0)
        self.code_factory = code_factory or default_shard_code
        self.router = ShardRouter.build(
            keys, num_shards, slots_per_shard, vnodes=vnodes
        )
        self.shards: dict[int, CausalECCluster] = {}
        for s in range(num_shards):
            self._boot_shard(s)
        # session client ids: one global space, far above any shard's
        # server ids, so a session keeps one identity everywhere
        self._next_client_id = num_servers + 100

    def _boot_shard(self, shard: int) -> CausalECCluster:
        code = self.code_factory(
            self.num_servers, self.router.slots_per_shard, self.value_len
        )
        cluster = CausalECCluster(
            code,
            latency=self.latency,
            seed=self.seed + 101 * shard,
            config=self.config,
            scheduler=self.scheduler,
        )
        self.shards[shard] = cluster
        return cluster

    def _alloc_client_id(self) -> int:
        cid = self._next_client_id
        self._next_client_id += 1
        return cid

    # ------------------------------------------------------------------

    def session(
        self,
        site: int = 0,
        failover: bool = False,
        retry: RetryPolicy | None = None,
    ) -> "ShardedSimSession":
        return ShardedSimSession(self, site, failover=failover, retry=retry)

    def halt_site(self, site: int) -> None:
        """Crash server ``site`` in every shard (a data-center outage)."""
        for cluster in self.shards.values():
            cluster.halt_server(site)


class ShardedSimSession:
    """One logical session spanning shards (shared id + opid counter)."""

    def __init__(
        self,
        store: ShardedSimStore,
        site: int,
        failover: bool = False,
        retry: RetryPolicy | None = None,
    ):
        self._store = store
        self._site = site
        self._failover = failover
        self._retry = retry
        self.session_id = store._alloc_client_id()
        self._counter = itertools.count()
        self._clients: dict[int, object] = {}

    def _client(self, shard: int):
        client = self._clients.get(shard)
        if client is None:
            client = self._store.shards[shard].add_client(
                server=self._site,
                retry=self._retry,
                failover=self._failover,
                node_id=self.session_id,
                opid_counter=self._counter,
            )
            self._clients[shard] = client
        return client

    def _prepare(self, client, key) -> None:
        router = self._store.router
        client.view_version = router.view_version
        floor = router.cutover_floor(key)
        if floor is not None:
            # migration watermark: park at the new owner until the
            # migrated value is visible there
            client.session_ts = (
                floor
                if client.session_ts is None
                else client.session_ts.merge(floor)
            )

    def put(self, key, raw):
        router = self._store.router
        if router.moving(key):
            raise KeyMigrating(key)
        loc = router.location(key)
        cluster = self._store.shards[loc.shard]
        client = self._client(loc.shard)
        self._prepare(client, key)
        op = cluster.execute(client.write(loc.slot, cluster.value(raw)))
        if op.failed:
            raise op.error
        return op

    def get(self, key):
        loc = self._store.router.location(key)
        cluster = self._store.shards[loc.shard]
        client = self._client(loc.shard)
        self._prepare(client, key)
        op = cluster.execute(client.read(loc.slot))
        if op.failed:
            raise op.error
        return op
