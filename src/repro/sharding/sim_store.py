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

View changes run synchronously (the simulator is single-threaded, so
there are no in-flight operations to fence): the coordinator broadcasts
``ViewInstall`` through a real migration client, then per moved key reads
the latest value from the source shard under a floor that dominates every
acknowledged write, installs it at the destination with ``MigrateInstall``
(a tagged write carrying the bumped generation), and records the
destination ack clock as the key's cutover floor.  The asyncio
coordinator in :mod:`repro.runtime.sharded_rt` runs the same protocol
with live fencing.
"""

from __future__ import annotations

import itertools
from functools import reduce

from ..core.cluster import CausalECCluster
from ..core.messages import ViewInstall
from ..core.server import ServerConfig
from ..protocol.client_core import RetryPolicy
from ..sim.network import LatencyModel
from ..sim.scheduler import Scheduler
from .codes import default_shard_code
from .router import KeyMigrating, ShardRouter
from .view import ViewChange, plan_view_change

__all__ = ["ShardedSimStore", "ShardedSimSession"]


def _is_zero_tag(tag) -> bool:
    return tag is None or sum(tag.ts.components) == 0


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
        # session/migration client ids: one global space, far above any
        # shard's server ids, so a session keeps one identity everywhere
        self._next_client_id = num_servers + 100
        self._migration_clients: dict[int, object] = {}
        self._migration_id: int | None = None
        self._migration_counter = None

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

    def settle(self) -> None:
        for cluster in self.shards.values():
            cluster.settle()

    def halt_site(self, site: int) -> None:
        """Crash server ``site`` in every shard (a data-center outage)."""
        for cluster in self.shards.values():
            cluster.halt_server(site)

    # ------------------------------------------------------------------
    # view changes

    def _migration_client(self, shard: int):
        if self._migration_id is None:
            self._migration_id = self._alloc_client_id()
            self._migration_counter = itertools.count()
        if shard not in self._migration_clients:
            self._migration_clients[shard] = self.shards[shard].add_client(
                server=0,
                retry=RetryPolicy(timeout=200.0, max_retries=8),
                node_id=self._migration_id,
                opid_counter=self._migration_counter,
            )
        return self._migration_clients[shard]

    def add_shard(self, shard: int) -> ViewChange:
        """Boot a new coding group and migrate its keys to it."""
        self._boot_shard(shard)
        change = plan_view_change(self.router, add=(shard,))
        self.apply_view_change(change)
        return change

    def remove_shard(self, shard: int) -> ViewChange:
        """Drain a shard's keys to the survivors (the group keeps running
        so stragglers still resolve, but owns no keys afterwards)."""
        change = plan_view_change(self.router, remove=(shard,))
        self.apply_view_change(change)
        return change

    def apply_view_change(self, change: ViewChange) -> dict:
        """Execute a planned view change synchronously; returns stats."""
        # 1. epoch broadcast through a real client on each shard's network
        for shard, cluster in self.shards.items():
            mc = self._migration_client(shard)
            for srv in cluster.servers:
                mc.send(srv.node_id, ViewInstall(change.version))
        self.scheduler.run(until=self.scheduler.now + 100.0)
        migrated, skipped = [], []
        for mv in change.moves:
            self.router.begin_move(mv.key)
            src = self.shards[mv.src_shard]
            mc_src = self._migration_client(mv.src_shard)
            # floor = join of live source clocks: dominates every acked
            # write, so the migration read returns the latest version
            clocks = [s.vc for s in src.servers if not s.halted]
            if clocks:
                floor = reduce(lambda a, b: a.merge(b), clocks)
                mc_src.session_ts = (
                    floor
                    if mc_src.session_ts is None
                    else mc_src.session_ts.merge(floor)
                )
            op = src.execute(mc_src.read(mv.src_slot))
            if op.failed:
                raise op.error
            cutover = None
            if _is_zero_tag(op.tag):
                # never written: nothing to copy, and installing the
                # initial value would fabricate a write record
                skipped.append(mv.key)
            else:
                dst = self.shards[mv.dst_shard]
                mc_dst = self._migration_client(mv.dst_shard)
                # the value re-enters the protocol through the destination
                # shard's field (a range check; it already has its storage dtype)
                mop = dst.execute(
                    mc_dst.migrate(mv.dst_slot, dst.value(op.value), mv.gen)
                )
                if mop.failed:
                    raise mop.error
                cutover = mop.ts
                migrated.append(mv.key)
            self.router.finish_move(
                mv.key, mv.dst_shard, mv.dst_slot, mv.gen, cutover_floor=cutover
            )
        self.router.commit_view(change)
        return {
            "version": change.version,
            "moves": len(change.moves),
            "migrated": migrated,
            "skipped": skipped,
        }


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
            raise KeyMigrating(key)  # sim view changes are atomic
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
