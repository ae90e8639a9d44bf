"""The key-value store's guarantees, on every placement.

One :class:`~repro.kv.store.CausalKVStore` class serves four placements
(one group, fixed groups, hot/cold hybrid, consistent-hash ring); every
check here runs on each.  A :class:`~repro.kv.store.Session` is ONE
logical session whose operations land on different coding groups: the
per-group session floors (plus shared client identity) make
read-your-writes and monotone reads hold across the group boundary --
including when the session's home site crashes and its per-group clients
fail over to other servers carrying the accumulated floors.  The live
runtime's counterpart is ``tests/test_sharded_session.py``.

Placement-specific checks stay with their placement: ``test_kv.py``
(custom code, no recovery set), ``test_grouped_store.py`` (layout, code
factory), ``test_hybrid_store.py`` (hot/cold code split).  Those files,
and ``test_sharded_session.py``, keep their earlier names for these
checks as one-line calls of a case here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConstantLatency, ServerConfig, UniformLatency
from repro.kv import grouped_store, hybrid_store, ring_store, single_store
from repro.protocol.client_core import HomeServerUnavailable, RetryPolicy

BUILDERS = {
    "single": single_store,  # RS(5,3)
    "grouped": grouped_store,  # RS(5,3) x 2 + RS(5,1)
    "hybrid": lambda keys, **kw: hybrid_store(keys[:2], keys[2:], **kw),
    "ring": lambda keys, **kw: ring_store(
        keys, num_shards=2, slots_per_shard=len(keys), **kw
    ),  # two replicated shards
}
KEYS = {
    "single": ["users", "orders", "carts"],
    "grouped": [f"key{i:03d}" for i in range(7)],
    "hybrid": ["h1", "h2", "c1", "c2", "c3", "c4"],
    "ring": [f"key{i}" for i in range(10)],
}

placements = pytest.mark.parametrize("placement", list(BUILDERS))


def make(placement, **kwargs):
    kwargs.setdefault("latency", ConstantLatency(1.0))
    return BUILDERS[placement](KEYS[placement], **kwargs)


def two_groups(store):
    """A key of the first group and one of another group (the same group
    when there is only one)."""
    first = store.keys[0]
    other = [k for k in store.keys if store.locate(k)[0] != store.locate(first)[0]]
    return first, (other or store.keys[1:])[0]


@placements
def test_duplicate_keys_rejected(placement):
    with pytest.raises(ValueError, match="distinct"):
        BUILDERS[placement](["a", "a"])


@placements
def test_empty_keys_rejected(placement):
    with pytest.raises(ValueError, match="at least one"):
        BUILDERS[placement]([])


@placements
def test_cross_site_put_get(placement):
    store = make(placement)
    s = store.session(0)
    for i, key in enumerate(store.keys):
        s.put(key, f"value-{i}".encode())
    store.settle()
    for site in (3, 4):
        remote = store.session(site)
        for i, key in enumerate(store.keys):
            assert remote.get(key) == f"value-{i}".encode()


@placements
def test_survives_two_crashed_sites(placement):
    """Every group tolerates N - k >= 2 crashes; a crash hits every group."""
    store = make(placement)
    s = store.session(0)
    for key in store.keys:
        s.put(key, key.encode())
    store.settle()
    store.crash_site(0)
    store.crash_site(1)
    for site in (3, 4):
        r = store.session(site)
        for key in store.keys:
            assert r.get(key) == key.encode()


@placements
def test_drains_to_zero_transient_entries(placement):
    store = make(placement, config=ServerConfig(gc_interval=20.0))
    s = store.session(1)
    for i, key in enumerate(store.keys):
        s.put(key, bytes([i]))
    store.settle(for_time=10_000)
    assert store.total_transient_entries() == 0


@placements
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_reads_its_writes_across_groups(placement, seed):
    """Read-your-writes on the key just written, monotone reads on the
    other group's key, alternating between the two groups."""
    store = make(placement, latency=UniformLatency(0.5, 20.0), seed=seed)
    session = store.session(site=3)
    ka, kb = two_groups(store)
    rng = np.random.default_rng(seed)
    last: dict[str, bytes] = {}
    for i in range(12):
        key, other = (ka, kb) if i % 2 == 0 else (kb, ka)
        last[key] = f"v{int(rng.integers(1, 90))}".encode()
        session.put(key, last[key])
        assert session.get(key) == last[key]
        if other in last:
            assert session.get(other) == last[other]
    for i, key in enumerate(store.keys):
        session.put(key, f"w{i}".encode())
        assert session.get(key) == f"w{i}".encode()


@placements
@pytest.mark.parametrize("seed", [1, 2])
def test_session_ryw_survives_site_failover(placement, seed):
    store = make(placement, latency=None, seed=seed)
    session = store.session(
        site=0,
        failover=True,
        retry=RetryPolicy(timeout=50.0, backoff=1.5, max_retries=4),
    )
    ka, kb = two_groups(store)
    session.put(ka, b"41")
    session.put(kb, b"42")
    # crash the session's home site in EVERY group; reads fail over and
    # the carried per-group floors force the fallback servers to serve
    # nothing older than the session's own writes
    store.crash_site(0)
    assert session.get(ka) == b"41"
    assert session.get(kb) == b"42"
    switched = [
        c for c in session._clients.values() if getattr(c, "switch_log", [])
    ]
    assert switched, "expected at least one client failover"


@placements
def test_halted_home_site_is_named_not_stalled(placement):
    store = make(placement)
    key = store.keys[0]
    store.crash_site(0)
    pinned = store.session(0)
    # every call says why, none hits the well-formedness check
    for call in (lambda: pinned.put(key, b"y"), lambda: pinned.get(key)) * 2:
        with pytest.raises(RuntimeError, match=r"site 0.*halted.*failover=True"):
            call()
    # a session that may retry fails with its operation's own error
    retrying = store.session(0, retry=RetryPolicy(timeout=20.0, max_retries=2))
    with pytest.raises(HomeServerUnavailable):
        retrying.put(key, b"y")
    # one that may fail over, on the same store, completes
    moving = store.session(
        0,
        failover=True,
        retry=RetryPolicy(timeout=20.0, backoff=1.5, max_retries=4),
    )
    assert moving.get(key) == b""
    moving.put(key, b"y")
    assert moving.get(key) == b"y"
