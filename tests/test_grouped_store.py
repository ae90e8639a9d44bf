"""Tests for the grouped placement (Sec. 4.2's per-group codes).

What every placement shares is in ``test_kv_store.py``.
"""

import pytest

from repro import ConstantLatency, PrimeField
from repro.ec import example1_code
from repro.kv import grouped_store
from tests import test_kv_store as shared


def make_store(num_keys=7, **kwargs):
    keys = [f"key{i:03d}" for i in range(num_keys)]
    kwargs.setdefault("latency", ConstantLatency(1.0))
    return grouped_store(keys, **kwargs)


def test_grouping_layout():
    store = make_store(num_keys=7, group_size=3)
    assert store.num_groups == 3
    assert [len(store.router.keys_on(g)) for g in range(3)] == [3, 3, 1]
    assert store.locate("key000") == (0, 0)
    assert store.locate("key004") == (1, 1)
    assert store.locate("key006") == (2, 0)


def test_unwritten_keys_empty():
    store = make_store()
    assert store.session(2).get("key005") == b""


def test_unknown_key():
    store = make_store()
    with pytest.raises(KeyError):
        store.locate("missing")


def test_bad_group_size():
    with pytest.raises(ValueError, match="group_size"):
        make_store(group_size=0)


def test_custom_code_factory():
    def factory(n, k, vlen):
        if k == 3:
            return example1_code(PrimeField(257), value_len=vlen)
        from repro.ec import reed_solomon_code

        return reed_solomon_code(PrimeField(257), n, k, value_len=vlen)

    store = make_store(num_keys=4, group_size=3, code_factory=factory)
    assert store.clusters[0].code.name.startswith("example1")
    s = store.session(1)
    s.put("key001", b"mixed")
    store.settle()
    assert store.session(3).get("key001") == b"mixed"


def test_shared_clock():
    store = make_store(num_keys=4, group_size=2)
    s = store.session(0)
    s.put("key000", b"x")  # group 0
    t1 = store.scheduler.now
    s.put("key002", b"y")  # group 1, later on the SAME clock
    assert store.scheduler.now > t1


def test_message_accounting_aggregates():
    store = make_store(num_keys=4, group_size=2)
    s = store.session(0)
    s.put("key000", b"x")
    store.settle()
    assert store.total_messages() > 0


# ---------------------------------------------------------------------------
# the shared checks of ``test_kv_store.py``, under this file's earlier names


def test_put_get_across_groups():
    shared.test_cross_site_put_get("grouped")


def test_duplicate_keys_rejected():
    shared.test_duplicate_keys_rejected("grouped")


def test_empty_keys_rejected():
    shared.test_empty_keys_rejected("grouped")


def test_crash_site_affects_all_groups():
    shared.test_survives_two_crashed_sites("grouped")


def test_groups_drain_independently():
    shared.test_drains_to_zero_transient_entries("grouped")


def test_session_read_your_writes_across_groups():
    shared.test_session_reads_its_writes_across_groups("grouped", seed=0)
