"""Tests for the hot/cold hybrid placement (Sec. 4.2 / footnote 15).

What every placement shares is in ``test_kv_store.py``.
"""

import pytest

from repro import ConstantLatency, ServerConfig
from repro.kv import hybrid_store
from tests import test_kv_store as shared


def make(hot=("h1", "h2"), cold=("c1", "c2", "c3", "c4")):
    return hybrid_store(
        list(hot), list(cold), latency=ConstantLatency(1.0),
        config=ServerConfig(gc_interval=25.0),
    )


def test_hot_groups_replicated_cold_groups_coded():
    store = make()
    hot_group, _ = store.locate("h1")
    cold_group, _ = store.locate("c1")
    assert store.clusters[hot_group].code.name.startswith("replication")
    assert store.clusters[cold_group].code.name.startswith("reed-solomon")


def test_hot_reads_local_everywhere():
    """Replicated groups serve reads with zero server-to-server traffic."""
    store = make()
    store.session(0).put("h1", b"x")
    store.settle()
    hot_group, _ = store.locate("h1")
    cluster = store.clusters[hot_group]
    before = cluster.network.stats.messages.get("val_inq", 0)
    for site in range(5):
        assert store.session(site).get("h1") == b"x"
    assert cluster.network.stats.messages.get("val_inq", 0) == before


def test_storage_split():
    """Cold groups store one symbol per server; hot groups store the whole
    group at every server."""
    store = make()
    hot_group, _ = store.locate("h1")
    cold_group, _ = store.locate("c1")
    hot_code = store.clusters[hot_group].code
    cold_code = store.clusters[cold_group].code
    assert hot_code.symbols_at(0) == hot_code.K
    assert cold_code.symbols_at(0) == 1


def test_disjointness_enforced():
    with pytest.raises(ValueError, match="disjoint"):
        hybrid_store(["a"], ["a", "b"])


# ---------------------------------------------------------------------------
# the shared checks of ``test_kv_store.py``, under this file's earlier names


def test_put_get_both_tiers():
    shared.test_cross_site_put_get("hybrid")


def test_crash_tolerance_spans_tiers():
    shared.test_survives_two_crashed_sites("hybrid")


def test_drains_after_quiescence():
    shared.test_drains_to_zero_transient_entries("hybrid")
