"""Live sharded runtime: S asyncio CausalEC clusters behind a shard router.

The asyncio counterpart of :class:`~repro.sharding.sim_store
.ShardedSimStore`, and the one runtime that changes views: each shard is
an independent :class:`~repro.runtime.asyncio_rt.AsyncioCluster` coding
group (its own servers, vector-clock dimension, and GC), and a
:class:`~repro.sharding.router.ShardRouter` maps keys to (shard, slot)
locations.  A :class:`ShardedSession` is ONE logical session across
shards: its per-shard clients share a node id and an opid counter, so the
online auditor sees a single session order, and the cross-shard causal
floor is the per-shard session timestamps plus the router's cutover
floors for migrated keys.

Live view changes (:meth:`ShardedAsyncioCluster.apply_view_change`) run
the migration protocol under real concurrency:

1. ``ViewInstall`` is broadcast to every server over short-lived control
   connections (best effort -- the epoch also gossips on every request's
   ``view`` field, so a missed server catches up on first contact);
2. per moved key: writes are fenced (:meth:`~repro.sharding.router
   .ShardRouter.begin_move`) and in-flight writes drained, while reads
   keep routing to the old owner;
3. the latest version is read at the source under a floor that is the
   join of the live source servers' clocks (it dominates every
   acknowledged write);
4. a never-written key is skipped (installing the initial value would
   fabricate a write record); otherwise the value is installed at the
   destination with ``MigrateInstall`` carrying the bumped generation,
   and the destination's ack clock becomes the key's **cutover floor**:
   every later operation on the key merges it into the session floor, so
   reads at the new owner park until the migrated value is visible there.

Audit identity: each server is given a globally unique ``audit_node``
(``shard * 1000 + server id``), its ``audit_shard``, and shared per-shard
``audit_key_map``/``audit_gen`` tables translating codeword slots into
global keys and migration generations, so one auditor checks the whole
cross-shard history (see :mod:`repro.consistency.online`).
"""

from __future__ import annotations

import asyncio
import itertools
from functools import reduce

from ..core.messages import ViewInstall, ViewInstallAck
from ..core.server import ServerConfig
from ..protocol.client_core import RetryPolicy
from ..sharding.codes import default_shard_code
from ..sharding.router import ShardRouter
from ..sharding.view import ViewChange, plan_view_change
from .asyncio_rt import AsyncioCluster, _control_rpc
from .auditor import OnlineAuditor

__all__ = ["ShardedAsyncioCluster", "ShardedSession"]

#: audit node ids are ``shard * _AUDIT_STRIDE + server id`` -- unique as
#: long as every shard has fewer servers than this
_AUDIT_STRIDE = 1000


def _is_zero_tag(tag) -> bool:
    return tag is None or sum(tag.ts.components) == 0


def _merge_floor(core, floor) -> None:
    core.session_ts = (
        floor if core.session_ts is None else core.session_ts.merge(floor)
    )


class ShardedAsyncioCluster:
    """S live CausalEC coding groups on localhost TCP, behind one router.

    Quickstart::

        store = ShardedAsyncioCluster(keys, num_shards=2, audit=True)
        await store.start()
        session = store.session(site=0)
        await session.put("alpha", 7)
        op = await session.get("alpha")
        change, stats = await store.add_shard(2)   # live resharding
        await store.shutdown()
    """

    def __init__(
        self,
        keys,
        num_shards: int = 2,
        slots_per_shard: int = 4,
        num_servers: int = 5,
        value_len: int = 1,
        code_factory=None,
        config: ServerConfig | None = None,
        retry: RetryPolicy | None = None,
        host: str = "127.0.0.1",
        audit: bool = False,
        vnodes: int = 64,
        repair=None,
    ):
        self.num_servers = num_servers
        self.value_len = value_len
        self.host = host
        self.config = config or ServerConfig(gc_interval=50.0)
        self.retry = retry
        #: per-shard anti-entropy config -- required for reconfig_replace
        #: and reconfig_add to re-derive new incarnations' codeword rows
        self.repair = repair
        self.code_factory = code_factory or default_shard_code
        self.router = ShardRouter.build(
            keys, num_shards, slots_per_shard, vnodes=vnodes
        )
        self.auditor: OnlineAuditor | None = OnlineAuditor(host) if audit else None
        self.shards: dict[int, AsyncioCluster] = {}
        self._audit_maps: dict[int, tuple[dict, dict]] = {}
        self._started = False
        # one global client-id space, far above any shard's server ids,
        # so a session keeps one identity on every shard's network
        self._next_client_id = num_servers + 100
        self._next_ctrl_id = num_servers + 10_000
        self._migration_clients: dict[int, object] = {}
        self._migration_id: int | None = None
        self._migration_counter = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        if self.auditor is not None:
            await self.auditor.start()
        for shard in self.router.ring.shards:
            await self._boot_shard(shard)
        self._started = True

    async def _boot_shard(self, shard: int) -> AsyncioCluster:
        code = self.code_factory(
            self.num_servers, self.router.slots_per_shard, self.value_len
        )
        cluster = AsyncioCluster(
            code,
            config=self.config,
            retry=self.retry,
            host=self.host,
            audit_addr=self.auditor.address if self.auditor else None,
            repair=self.repair,
        )
        key_map: dict[int, object] = {}
        gen_map: dict[int, int] = {}
        for key in self.router.keys_on(shard):
            loc = self.router.location(key)
            key_map[loc.slot] = key
            gen_map[loc.slot] = loc.gen

        def _wire_audit(srv, shard=shard, key_map=key_map, gen_map=gen_map):
            srv.audit_node = shard * _AUDIT_STRIDE + srv.node_id
            srv.audit_shard = shard
            srv.audit_key_map = key_map
            srv.audit_gen = gen_map

        # every incarnation this shard ever boots -- founding servers,
        # replacements, joiners -- gets the shard's audit identity before
        # it streams a single record
        cluster.on_server_created = _wire_audit
        for srv in cluster.servers:
            _wire_audit(srv)
        await cluster.start()
        self.shards[shard] = cluster
        self._audit_maps[shard] = (key_map, gen_map)
        return cluster

    def _alloc_client_id(self) -> int:
        cid = self._next_client_id
        self._next_client_id += 1
        return cid

    def session(
        self,
        site: int = 0,
        failover: bool = False,
        retry: RetryPolicy | None = None,
    ) -> "ShardedSession":
        return ShardedSession(self, site, failover=failover, retry=retry)

    async def quiesce(self, **kw) -> None:
        for cluster in self.shards.values():
            await cluster.quiesce(**kw)
        # quiescing the last shard gave the first time to start a commit
        for cluster in self.shards.values():
            await cluster.committed()

    async def shutdown(self) -> None:
        for cluster in self.shards.values():
            await cluster.shutdown()
        if self.auditor is not None:
            await self.auditor.close()

    def finalize_audit(self):
        """End-of-run auditor verdict (empty list when auditing is off)."""
        return self.auditor.finalize() if self.auditor else []

    # ------------------------------------------------------------------
    # fault injection (per shard, or a whole "site" across shards)

    async def kill_server(self, shard: int, i: int, forever: bool = False) -> None:
        await self.shards[shard].kill_server(i, forever=forever)

    async def restart_server(self, shard: int, i: int) -> None:
        await self.shards[shard].restart_server(i)

    async def kill_site(self, site: int) -> None:
        """Crash server ``site`` in every shard (a data-center outage)."""
        for cluster in self.shards.values():
            await cluster.kill_server(site)

    # ------------------------------------------------------------------
    # per-shard dynamic membership

    async def reconfig_replace(self, shard: int, server: int):
        """Replace a permanently failed server inside one shard's group.

        Each shard reconfigures independently: its coding group has its
        own membership epoch, and the router is untouched (keys stay
        where they are -- only the group serving them changes shape).
        The replacement inherits the shard's audit identity via the
        ``on_server_created`` hook, so the auditor's ``(server, epoch,
        seq)`` dedup separates it from the dead incarnation's records.
        """
        return await self.shards[shard].replace_server(server)

    async def reconfig_add(self, shard: int, row_seed: int | None = None):
        """Join a redundancy server to one shard's coding group."""
        return await self.shards[shard].add_server(row_seed)

    async def reconfig_remove(self, shard: int, server: int) -> None:
        """Retire a server from one shard's coding group."""
        await self.shards[shard].remove_server(server)

    # ------------------------------------------------------------------
    # view changes

    async def _migration_client(self, shard: int):
        if self._migration_id is None:
            self._migration_id = self._alloc_client_id()
            self._migration_counter = itertools.count()
        if shard not in self._migration_clients:
            # no failover (a retried install must hit the same dedup
            # table), but a retry budget generous enough to ride out a
            # restart of the home server
            self._migration_clients[shard] = await self.shards[shard].add_client(
                server=0,
                retry=RetryPolicy(timeout=150.0, max_retries=10),
                node_id=self._migration_id,
                opid_counter=self._migration_counter,
            )
        return self._migration_clients[shard]

    async def add_shard(self, shard: int) -> tuple[ViewChange, dict]:
        """Boot a new coding group and migrate its keys to it, live."""
        await self._boot_shard(shard)
        change = plan_view_change(self.router, add=(shard,))
        stats = await self.apply_view_change(change)
        return change, stats

    async def apply_view_change(self, change: ViewChange) -> dict:
        """Execute a planned view change while serving traffic."""
        await self._install_view_everywhere(change.version)
        migrated, skipped = [], []
        for mv in change.moves:
            self.router.begin_move(mv.key)
            await self.router.drain_writes(mv.key)
            src = self.shards[mv.src_shard]
            mc_src = await self._migration_client(mv.src_shard)
            mc_src.core.view_version = change.version
            # floor = join of live source clocks: dominates every acked
            # write, so the migration read returns the latest version
            clocks = [s.core.vc for s in src.servers if not s.halted]
            if clocks:
                _merge_floor(
                    mc_src.core, reduce(lambda a, b: a.merge(b), clocks)
                )
            op = await mc_src.read(mv.src_slot)
            if op.failed:
                raise op.error
            # destination audit identity *before* the install, so every
            # audit record for the slot already carries the global key
            # and the bumped generation
            key_map, gen_map = self._audit_maps[mv.dst_shard]
            key_map[mv.dst_slot] = mv.key
            gen_map[mv.dst_slot] = mv.gen
            cutover = None
            if _is_zero_tag(op.tag):
                # never written: nothing to copy, and installing the
                # initial value would fabricate a write record
                skipped.append(mv.key)
            else:
                mc_dst = await self._migration_client(mv.dst_shard)
                mc_dst.core.view_version = change.version
                # the value re-enters the protocol through the destination
                # shard's field (a range check; it already has its storage dtype)
                mop = await mc_dst.migrate(
                    mv.dst_slot, self.shards[mv.dst_shard].value(op.value), mv.gen
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

    async def _install_view_everywhere(self, version: int) -> None:
        """Broadcast ``ViewInstall`` to every live server, best effort."""
        sends = [
            self._send_view_install(srv, version)
            for cluster in self.shards.values()
            for srv in cluster.servers
            if not srv.halted
        ]
        await asyncio.gather(*sends, return_exceptions=True)

    async def _send_view_install(self, srv, version: int) -> bool:
        for _ in range(3):
            ctrl_id = self._next_ctrl_id
            self._next_ctrl_id += 1
            try:
                reply = await _control_rpc(
                    srv.host, srv.port, ctrl_id, ViewInstall(version), 2.0
                )
                if isinstance(reply, ViewInstallAck):
                    return True
            except (OSError, asyncio.TimeoutError):
                pass
            await asyncio.sleep(0.05)
        return False  # the epoch still gossips on every request's view field


class ShardedSession:
    """One logical session spanning shards (shared id + opid counter)."""

    def __init__(
        self,
        store: ShardedAsyncioCluster,
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

    async def _client(self, shard: int):
        client = self._clients.get(shard)
        if client is None:
            client = await self._store.shards[shard].add_client(
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
        client.core.view_version = router.view_version
        floor = router.cutover_floor(key)
        if floor is not None:
            # migration watermark: park at the new owner until the
            # migrated value is visible there
            _merge_floor(client.core, floor)

    async def put(self, key, raw):
        router = self._store.router
        # fence: block while the key is mid-migration, then register as
        # in-flight *before* any await so drain_writes counts this write
        await router.wait_movable(key)
        loc = router.location(key)
        router.op_started(key, write=True)
        try:
            cluster = self._store.shards[loc.shard]
            client = await self._client(loc.shard)
            self._prepare(client, key)
            op = await client.write(loc.slot, cluster.value(raw))
        finally:
            router.op_finished(key, write=True)
        if op.failed:
            raise op.error
        return op

    async def get(self, key):
        # reads are not fenced: mid-migration they route to the old
        # owner, whose latest acked version is what migration copies
        loc = self._store.router.location(key)
        client = await self._client(loc.shard)
        self._prepare(client, key)
        op = await client.read(loc.slot)
        if op.failed:
            raise op.error
        return op
