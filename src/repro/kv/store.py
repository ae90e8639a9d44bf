"""A string-keyed, bytes-valued causal KV store on top of CausalEC.

:class:`CausalKVStore` is the adoption-grade facade: named keys, byte-string
values, synchronous ``put``/``get`` from per-site sessions.  Keys are split
into groups with one linear code each (Sec. 4.2: "objects are grouped into
K/k groups of k objects each and an (N*alpha, k) code ... is used for each
group"); every group is a :class:`~repro.core.cluster.CausalECCluster` on
one shared clock, a :class:`~repro.sharding.router.ShardRouter` maps each
key to its ``(group, object)``, and :class:`~repro.kv.codec.ValueCodec`
maps bytes into each group's values.  Four placements build a store:
:func:`single_store`, :func:`grouped_store`, :func:`hybrid_store` and
:func:`ring_store`.

Causal consistency is provided *per session*: a session's operations on
every group run through the same site, and each group is itself causally
consistent.  Cross-group ordering beyond that is out of scope, as in the
paper's grouping argument.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from ..core.cluster import CausalECCluster
from ..core.server import ServerConfig
from ..ec.code import LinearCode
from ..ec.codes import reed_solomon_code, replication_code
from ..protocol.client_core import RetryPolicy
from ..sharding.codes import default_shard_code
from ..sharding.router import ShardRouter
from ..sim.network import LatencyModel
from ..sim.scheduler import Scheduler
from .codec import ValueCodec

__all__ = [
    "CausalKVStore",
    "Session",
    "single_store",
    "grouped_store",
    "hybrid_store",
    "ring_store",
]


class Session:
    """One logical session at a site, spanning every group.

    Its per-group clients share one node id and one opid counter, so the
    history sees one session with one operation order; each client keeps
    its own group's session floor (clocks of different groups never mix).
    ``failover`` / ``retry`` are those of
    :meth:`~repro.core.cluster.Cluster.add_client`.
    """

    def __init__(
        self,
        store: "CausalKVStore",
        site: int,
        failover: bool = False,
        retry: RetryPolicy | None = None,
    ):
        self._store = store
        self.site = site
        self._failover = failover
        self._retry = retry
        self.session_id = next(store._session_ids)
        self._counter = itertools.count()
        self._clients: dict[int, object] = {}
        # the error of an operation that never settled: its client keeps
        # the pending slot, so every later call fails the same way
        self._stalled: Exception | None = None

    def put(self, key: str, value: bytes) -> None:
        """Write ``value`` under ``key``; returns when the home server acks
        (one local round trip -- Property I)."""
        group, obj = self._store.locate(key)
        encoded = self._store.codecs[group].encode(value)
        self._execute(key, group, lambda c: c.write(obj, encoded))

    def get(self, key: str, max_events: int = 1_000_000) -> bytes:
        """Read ``key``'s causally consistent value at this session."""
        group, obj = self._store.locate(key)
        op = self._execute(key, group, lambda c: c.read(obj), max_events)
        return self._store.codecs[group].decode(op.value)

    def _client(self, group: int):
        client = self._clients.get(group)
        if client is None:
            client = self._store.clusters[group].add_client(
                server=self.site,
                retry=self._retry,
                failover=self._failover,
                node_id=self.session_id,
                opid_counter=self._counter,
            )
            self._clients[group] = client
        return client

    def _execute(self, key, group, invoke, max_events=1_000_000):
        if self._stalled is not None:
            raise self._stalled
        cluster = self._store.clusters[group]
        client = self._client(group)
        home = cluster.servers[client.server_id]
        halted = RuntimeError(
            f"site {home.node_id}, this session's home, is halted; use "
            f"store.session({self.site}, failover=True, "
            f"retry=RetryPolicy(...)) to reach the other sites"
        )
        if self._retry is None and home.halted:
            raise halted  # nothing would ever time out: it waits for good
        op = cluster.execute(invoke(client), max_events=max_events)
        if op.failed:
            raise op.error
        if not op.done:
            self._stalled = halted if home.halted else TimeoutError(
                f"{op.kind} of {key!r} did not terminate -- is a recovery "
                f"set for it still alive? (Theorem 4.3)"
            )
            raise self._stalled
        return op


class CausalKVStore:
    """String keys over per-group codes, all groups on one clock.

    ``router`` places every key at a ``(group, object)``; ``codes[g]`` is
    group ``g``'s code.  Every code spans the same N servers: site ``i``
    is server ``i`` of every group.
    """

    def __init__(
        self,
        router: ShardRouter,
        codes: Sequence[LinearCode],
        latency: LatencyModel | None = None,
        config: ServerConfig | None = None,
        seed: int = 0,
    ):
        self.num_servers = codes[0].N
        if any(code.N != self.num_servers for code in codes):
            raise ValueError("every group's code must span the same servers")
        for key in router.keys:
            group, obj = router.locate(key)
            if obj >= codes[group].K:
                raise ValueError(
                    f"key {key!r} is object {obj} of group {group}, whose "
                    f"code stores {codes[group].K} objects"
                )
        self.router = router
        self.scheduler = Scheduler()
        config = config or ServerConfig(gc_interval=50.0)
        self.clusters = [
            CausalECCluster(
                code,
                latency=latency,
                seed=seed + g,
                config=config,
                scheduler=self.scheduler,
            )
            for g, code in enumerate(codes)
        ]
        self.codecs = [ValueCodec(code.field, code.value_len) for code in codes]
        # one id space for sessions, above every server id, so a session
        # keeps one identity in every group
        self._session_ids = itertools.count(self.num_servers)

    # ------------------------------------------------------------------

    @property
    def keys(self) -> list[str]:
        return list(self.router.keys)

    @property
    def num_groups(self) -> int:
        return len(self.clusters)

    def locate(self, key: str) -> tuple[int, int]:
        """``(group, object)`` of ``key``."""
        try:
            return self.router.locate(key)
        except KeyError:
            raise KeyError(f"unknown key {key!r}; keys are fixed at creation")

    def session(
        self,
        site: int = 0,
        failover: bool = False,
        retry: RetryPolicy | None = None,
    ) -> Session:
        """Open a session at ``site`` (a member of C_site in every group)."""
        return Session(self, site, failover=failover, retry=retry)

    def crash_site(self, site: int) -> None:
        """Crash server ``site`` in every group (it is one machine)."""
        for cluster in self.clusters:
            cluster.halt_server(site)

    def settle(self, for_time: float = 5_000.0) -> None:
        """Let propagation, re-encoding, and garbage collection run."""
        self.scheduler.run(until=self.scheduler.now + for_time)

    def total_transient_entries(self) -> int:
        return sum(c.total_transient_entries() for c in self.clusters)

    def total_messages(self) -> int:
        return sum(c.network.stats.total_messages for c in self.clusters)


# ----------------------------------------------------------------------
# placements


def _distinct(keys: Sequence[str]) -> list[str]:
    keys = list(keys)
    if not keys:
        raise ValueError("need at least one key")
    if len(set(keys)) != len(keys):
        raise ValueError("keys must be distinct")
    return keys


def _chunks(keys: list[str], size: int) -> list[list[str]]:
    if size < 1:
        raise ValueError("group_size must be positive")
    return [keys[i : i + size] for i in range(0, len(keys), size)]


def _in_groups(groups: list[list[str]]) -> ShardRouter:
    """Group ``g`` holds ``groups[g]``, key ``j`` of it at object ``j``."""
    return ShardRouter.from_placement(
        {
            key: (g, obj)
            for g, group in enumerate(groups)
            for obj, key in enumerate(group)
        }
    )


def single_store(
    keys: Sequence[str],
    code: LinearCode | None = None,
    num_servers: int = 5,
    value_capacity: int = 64,
    **options,
) -> CausalKVStore:
    """Every key in one group; ``code`` (default RS(N, K), full
    replication when K > N) spans them all.  ``options`` (``latency``,
    ``config``, ``seed``) go to :class:`CausalKVStore`, here and in every
    placement."""
    keys = _distinct(keys)
    if code is None:
        code = default_shard_code(num_servers, len(keys), value_capacity + 2)
    if code.K != len(keys):
        raise ValueError(
            f"code stores {code.K} objects but {len(keys)} keys given"
        )
    return CausalKVStore(_in_groups([keys]), [code], **options)


def grouped_store(
    keys: Sequence[str],
    group_size: int = 3,
    num_servers: int = 5,
    value_capacity: int = 32,
    code_factory=default_shard_code,
    **options,
) -> CausalKVStore:
    """Keys in order, in groups of at most ``group_size``; group ``g``'s
    code is ``code_factory(num_servers, len(group), value_len)``."""
    groups = _chunks(_distinct(keys), group_size)
    codes = [
        code_factory(num_servers, len(group), value_capacity + 2)
        for group in groups
    ]
    return CausalKVStore(_in_groups(groups), codes, **options)


def hybrid_store(
    hot_keys: Sequence[str],
    cold_keys: Sequence[str],
    group_size: int = 3,
    num_servers: int = 5,
    value_capacity: int = 32,
    **options,
) -> CausalKVStore:
    """The Sec. 4.2 / footnote-15 hybrid: replicate the hot set, erasure
    code the cold set.

    Data stores "detect arrival rates and adapt"; the paper suggests
    replication for the few very-hot objects (avoiding history-list churn)
    and dimension-k erasure coding for the cold majority (storage savings).
    Hot keys go to fully replicated groups, cold keys to RS(N, k) groups --
    all running CausalEC, so every guarantee is uniform.
    """
    hot, cold = list(hot_keys), list(cold_keys)
    if set(hot) & set(cold):
        raise ValueError("hot and cold key sets must be disjoint")
    _distinct(hot + cold)
    value_len = value_capacity + 2
    hot_groups, cold_groups = _chunks(hot, group_size), _chunks(cold, group_size)
    codes = [
        replication_code(None, num_servers, len(g), value_len=value_len)
        for g in hot_groups
    ] + [
        reed_solomon_code(None, num_servers, len(g), value_len=value_len)
        for g in cold_groups
    ]
    return CausalKVStore(_in_groups(hot_groups + cold_groups), codes, **options)


def ring_store(
    keys: Sequence[str],
    num_shards: int = 2,
    slots_per_shard: int = 4,
    num_servers: int = 5,
    value_capacity: int = 32,
    code_factory=default_shard_code,
    vnodes: int = 64,
    **options,
) -> CausalKVStore:
    """Keys on a consistent-hash ring of ``num_shards`` groups, each with
    ``slots_per_shard`` objects (see :meth:`ShardRouter.build`): the
    simulated counterpart of
    :class:`~repro.runtime.sharded_rt.ShardedAsyncioCluster`, whose view
    changes run only live."""
    router = ShardRouter.build(
        _distinct(keys), num_shards, slots_per_shard, vnodes=vnodes
    )
    codes = [
        code_factory(num_servers, slots_per_shard, value_capacity + 2)
        for _ in range(num_shards)
    ]
    return CausalKVStore(router, codes, **options)
