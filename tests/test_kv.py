"""Tests for the bytes codec and the single-group KV store.

What every placement shares is in ``test_kv_store.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConstantLatency, PrimeField
from repro.ec import example1_code
from repro.ec.field import BinaryExtensionField
from repro.kv import CodecError, ValueCodec, single_store
from tests import test_kv_store as shared


# ---------------------------------------------------------------------------
# codec


def test_codec_round_trip_basics():
    codec = ValueCodec(PrimeField(257), 10)
    for data in (b"", b"a", b"hello!", b"\x00\xff\x00"):
        assert codec.decode(codec.encode(data)) == data


def test_codec_capacity():
    codec = ValueCodec(PrimeField(257), 10)
    assert codec.capacity == 8
    codec.encode(b"x" * 8)
    with pytest.raises(CodecError):
        codec.encode(b"x" * 9)


def test_codec_rejects_small_field():
    with pytest.raises(CodecError):
        ValueCodec(PrimeField(7), 10)


def test_codec_rejects_tiny_vector():
    with pytest.raises(CodecError):
        ValueCodec(PrimeField(257), 2)


def test_codec_rejects_wrong_shape():
    codec = ValueCodec(PrimeField(257), 10)
    with pytest.raises(CodecError):
        codec.decode(np.zeros(4))


def test_codec_rejects_corrupt_header():
    codec = ValueCodec(PrimeField(257), 10)
    bad = codec.field.zeros(10)
    bad[0] = 200  # claims 51200 bytes
    with pytest.raises(CodecError):
        codec.decode(bad)


def test_codec_gf256():
    codec = ValueCodec(BinaryExtensionField(8), 16)
    data = bytes(range(14))
    assert codec.decode(codec.encode(data)) == data


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=0, max_size=30))
def test_codec_round_trip_property(data):
    codec = ValueCodec(PrimeField(257), 32)
    assert codec.decode(codec.encode(data)) == data


# ---------------------------------------------------------------------------
# KV store


def make_store(**kwargs):
    kwargs.setdefault("latency", ConstantLatency(1.0))
    return single_store(["users", "orders", "carts"], **kwargs)


def test_kv_put_get_same_site():
    store = make_store()
    s = store.session(0)
    s.put("users", b"alice")
    assert s.get("users") == b"alice"


def test_kv_unwritten_key_is_empty():
    store = make_store()
    assert store.session(2).get("carts") == b""


def test_kv_overwrite():
    store = make_store()
    s = store.session(1)
    s.put("users", b"v1")
    s.put("users", b"v2")
    assert s.get("users") == b"v2"


def test_kv_unknown_key():
    store = make_store()
    with pytest.raises(KeyError, match="unknown key"):
        store.session(0).get("nope")


def test_kv_key_code_mismatch():
    with pytest.raises(ValueError, match="objects"):
        single_store(["a", "b"], code=example1_code(PrimeField(257), value_len=8))


def test_kv_custom_code():
    code = example1_code(PrimeField(257), value_len=8)
    store = single_store(
        ["x1", "x2", "x3"], code=code, latency=ConstantLatency(1.0)
    )
    store.session(0).put("x2", b"hey")
    store.settle()
    assert store.session(4).get("x2") == b"hey"


def test_kv_read_blocks_without_recovery_set():
    store = make_store()
    store.session(0).put("users", b"gone")
    store.settle()
    for site in (0, 1, 2):  # 3 crashes > N - k = 2
        store.crash_site(site)
    reader = store.session(4)
    with pytest.raises(TimeoutError, match="recovery set"):
        reader.get("users", max_events=50_000)
    # the read still holds the session's one pending slot: the next call
    # fails the same way, not on well-formedness
    with pytest.raises(TimeoutError, match="recovery set"):
        reader.get("orders")


# ---------------------------------------------------------------------------
# the shared checks of ``test_kv_store.py``, under this file's earlier names


def test_kv_cross_site_get():
    shared.test_cross_site_put_get("single")


def test_kv_duplicate_keys_rejected():
    shared.test_duplicate_keys_rejected("single")


def test_kv_empty_keys_rejected():
    shared.test_empty_keys_rejected("single")


def test_kv_survives_crashes():
    shared.test_survives_two_crashed_sites("single")


def test_kv_sessions_are_causal():
    shared.test_session_reads_its_writes_across_groups("single", seed=9)
