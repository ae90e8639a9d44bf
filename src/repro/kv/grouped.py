"""A grouped store: many keys over per-group erasure codes (Sec. 4.2).

CausalEC's tag vectors and deletion lists scale with K, the number of
objects a single code spans, so the paper's cost analysis assumes "objects
are grouped into K/k groups of k objects each and an (N*alpha, k) code ...
is used for each group".  :class:`GroupedCausalKVStore` realises exactly
that: keys are partitioned into groups of at most ``group_size``, each group
runs its own CausalEC instance (its own code and protocol state), and all
groups share one simulated clock so cross-group time is coherent.

Groups are fully independent in the paper too -- causal consistency is
still provided *per session* here because a session's operations on every
group run through the same per-site servers and the per-group certificates
compose (each group is itself causally consistent, and sessions are
single-threaded).  Cross-group causal ordering guarantees beyond this are
out of scope, exactly as in the paper's grouping argument.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..core.cluster import CausalECCluster
from ..core.server import ServerConfig
from ..ec.code import LinearCode
from ..ec.codes import reed_solomon_code
from ..ec.field import PrimeField
from ..sharding.router import ShardRouter
from ..sim.network import LatencyModel
from ..sim.scheduler import Scheduler
from .codec import ValueCodec

__all__ = ["GroupedCausalKVStore", "GroupedSession", "hybrid_store"]


class GroupedSession:
    """A site-pinned session spanning all groups (one client per group)."""

    def __init__(self, store: "GroupedCausalKVStore", site: int):
        self._store = store
        self.site = site
        self._clients: dict[int, object] = {}

    def _client(self, group: int):
        if group not in self._clients:
            self._clients[group] = self._store.clusters[group].add_client(
                server=self.site
            )
        return self._clients[group]

    def put(self, key: str, value: bytes) -> None:
        group, obj = self._store.locate(key)
        cluster = self._store.clusters[group]
        encoded = self._store.codecs[group].encode(value)
        op = cluster.execute(self._client(group).write(obj, encoded))
        if not op.done:
            raise RuntimeError("write did not complete")

    def get(self, key: str, max_events: int = 1_000_000) -> bytes:
        group, obj = self._store.locate(key)
        cluster = self._store.clusters[group]
        op = cluster.execute(self._client(group).read(obj), max_events=max_events)
        if not op.done:
            raise TimeoutError(f"read of {key!r} did not terminate")
        return self._store.codecs[group].decode(op.value)


class GroupedCausalKVStore:
    """Many keys, one CausalEC instance per group of ``group_size`` keys."""

    def __init__(
        self,
        keys: Sequence[str],
        group_size: int = 3,
        num_servers: int = 5,
        value_capacity: int = 32,
        code_factory: Callable[[int, int, int], LinearCode] | None = None,
        latency: LatencyModel | None = None,
        config: ServerConfig | None = None,
        seed: int = 0,
    ):
        keys = list(keys)
        if not keys:
            raise ValueError("need at least one key")
        if len(set(keys)) != len(keys):
            raise ValueError("keys must be distinct")
        if group_size < 1:
            raise ValueError("group_size must be positive")
        self.scheduler = Scheduler()
        self.num_servers = num_servers
        value_len = value_capacity + 2
        if code_factory is None:
            def code_factory(n: int, k: int, vlen: int) -> LinearCode:
                return reed_solomon_code(PrimeField(257), n, k, value_len=vlen)

        self._locator: dict[str, tuple[int, int]] = {}
        self.clusters: list[CausalECCluster] = []
        self.codecs: list[ValueCodec] = []
        self.group_keys: list[list[str]] = []
        for g, start in enumerate(range(0, len(keys), group_size)):
            group = keys[start : start + group_size]
            code = code_factory(num_servers, len(group), value_len)
            if code.N != num_servers or code.K != len(group):
                raise ValueError("code_factory returned mismatched code")
            cluster = CausalECCluster(
                code,
                latency=latency,
                seed=seed + g,
                config=config or ServerConfig(gc_interval=50.0),
                scheduler=self.scheduler,
            )
            self.clusters.append(cluster)
            self.codecs.append(ValueCodec(code.field, code.value_len))
            self.group_keys.append(group)
            for obj, key in enumerate(group):
                self._locator[key] = (g, obj)
        self.keys = keys
        self.group_size = group_size
        self.router = ShardRouter.from_placement(self._locator)

    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        return len(self.clusters)

    def locate(self, key: str) -> tuple[int, int]:
        """``(group, object)`` for a key, via the shard router.

        Static grouping is now just an epoch-0 router placement (see
        :class:`~repro.sharding.router.ShardRouter.from_placement`), so a
        grouped store can be promoted to a resharding one.
        """
        try:
            return self.router.locate(key)
        except KeyError:
            raise KeyError(f"unknown key {key!r}")

    def session(self, site: int = 0) -> GroupedSession:
        return GroupedSession(self, site)

    def crash_site(self, site: int) -> None:
        """Crash a server at every group (it is one physical node)."""
        for cluster in self.clusters:
            cluster.halt_server(site)

    def settle(self, for_time: float = 5_000.0) -> None:
        self.scheduler.run(until=self.scheduler.now + for_time)

    def total_transient_entries(self) -> int:
        return sum(c.total_transient_entries() for c in self.clusters)

    def total_messages(self) -> int:
        return sum(c.network.stats.total_messages for c in self.clusters)


def hybrid_store(
    hot_keys: Sequence[str],
    cold_keys: Sequence[str],
    num_servers: int = 5,
    k: int = 3,
    value_capacity: int = 32,
    latency=None,
    config: ServerConfig | None = None,
    seed: int = 0,
) -> GroupedCausalKVStore:
    """The Sec. 4.2 / footnote-15 hybrid: replicate the hot set, erasure
    code the cold set.

    Data stores "detect arrival rates and adapt"; the paper suggests
    replication for the few very-hot objects (avoiding history-list churn)
    and dimension-k erasure coding for the cold majority (storage savings).
    Hot keys are placed in fully replicated groups; cold keys in RS(N, k)
    groups -- all running CausalEC, so every guarantee is uniform.
    """
    from ..ec.codes import replication_code

    hot_keys, cold_keys = list(hot_keys), list(cold_keys)
    if set(hot_keys) & set(cold_keys):
        raise ValueError("hot and cold key sets must be disjoint")
    value_len = value_capacity + 2

    store = GroupedCausalKVStore.__new__(GroupedCausalKVStore)
    # build manually to allow per-group code choice
    store.scheduler = Scheduler()
    store.num_servers = num_servers
    store._locator = {}
    store.clusters = []
    store.codecs = []
    store.group_keys = []

    def add_group(group: list[str], code, g_index: int) -> None:
        cluster = CausalECCluster(
            code,
            latency=latency,
            seed=seed + g_index,
            config=config or ServerConfig(gc_interval=50.0),
            scheduler=store.scheduler,
        )
        store.clusters.append(cluster)
        store.codecs.append(ValueCodec(code.field, code.value_len))
        store.group_keys.append(group)
        for obj, key in enumerate(group):
            store._locator[key] = (g_index, obj)

    g = 0
    for start in range(0, len(hot_keys), k):
        group = hot_keys[start : start + k]
        code = replication_code(
            PrimeField(257), num_servers, len(group), value_len=value_len
        )
        add_group(group, code, g)
        g += 1
    for start in range(0, len(cold_keys), k):
        group = cold_keys[start : start + k]
        code = reed_solomon_code(
            PrimeField(257), num_servers, len(group), value_len=value_len
        )
        add_group(group, code, g)
        g += 1
    store.keys = hot_keys + cold_keys
    store.group_size = k
    store.router = ShardRouter.from_placement(store._locator)
    return store
