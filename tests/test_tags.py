"""Property tests for vector clocks and the tag total order."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tags import LOCALHOST, Tag, VectorClock, zero_tag

clocks = st.lists(st.integers(0, 20), min_size=3, max_size=3).map(
    lambda xs: VectorClock(tuple(xs))
)
tags = st.tuples(clocks, st.integers(0, 5)).map(lambda t: Tag(t[0], t[1]))


# ---------------------------------------------------------------------------
# vector clocks


def test_zero_clock():
    z = VectorClock.zero(4)
    assert z.components == (0, 0, 0, 0)
    assert z.lamport == 0
    assert len(z) == 4


def test_increment_and_with_component():
    z = VectorClock.zero(3)
    a = z.increment(1)
    assert a.components == (0, 1, 0)
    assert z.components == (0, 0, 0)  # immutable
    b = a.with_component(2, 5)
    assert b.components == (0, 1, 5)


def test_merge():
    a = VectorClock((1, 5, 0))
    b = VectorClock((2, 3, 0))
    assert a.merge(b).components == (2, 5, 0)


@settings(max_examples=200, deadline=None)
@given(a=clocks, b=clocks)
def test_partial_order_antisymmetry(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b
    assert a.concurrent(b) == (not a.leq(b) and not b.leq(a))


@settings(max_examples=200, deadline=None)
@given(a=clocks, b=clocks, c=clocks)
def test_partial_order_transitivity(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@settings(max_examples=100, deadline=None)
@given(a=clocks, b=clocks)
def test_merge_is_least_upper_bound(a, b):
    m = a.merge(b)
    assert a.leq(m) and b.leq(m)


def test_less_is_strict():
    a = VectorClock((1, 2, 3))
    assert not a.less(a)
    assert a.less(VectorClock((1, 2, 4)))


# ---------------------------------------------------------------------------
# tags


def test_zero_tag_minimal():
    z = zero_tag(3)
    assert z.is_zero
    t = Tag(VectorClock((1, 0, 0)), 7)
    assert z < t
    assert not t < z


@settings(max_examples=300, deadline=None)
@given(a=tags, b=tags)
def test_tag_total_order_totality(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@settings(max_examples=300, deadline=None)
@given(a=tags, b=tags, c=tags)
def test_tag_total_order_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


@settings(max_examples=200, deadline=None)
@given(a=tags, b=tags)
def test_tag_refines_causal_order(a, b):
    """ts(a) < ts(b) componentwise must imply a < b (causal arbitration)."""
    if a.ts.less(b.ts):
        assert a < b


def test_tag_hashable_and_usable_as_dict_key():
    a = Tag(VectorClock((1, 0)), 3)
    b = Tag(VectorClock((1, 0)), 3)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@given(tags)
def test_slotted_tag_copies_and_pickles_unchanged(t):
    assert not hasattr(t, "__dict__")
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t and hash(clone) == hash(t)
        assert clone.ts == t.ts and clone.client_id == t.client_id
        assert not (clone < t) and not (t < clone)
    # deep copies of containers keep shared tags shared
    pair = copy.deepcopy([t, t])
    assert pair[0] is pair[1]


def test_tag_stays_frozen():
    t = Tag(VectorClock((1, 0)), 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.client_id = 4


def test_tag_max_over_set():
    ts = [
        Tag(VectorClock((1, 0, 0)), 2),
        Tag(VectorClock((0, 2, 0)), 1),
        Tag(VectorClock((1, 1, 1)), 0),
    ]
    assert max(ts) == ts[2]


def test_localhost_sentinel_not_a_client():
    assert LOCALHOST < 0
