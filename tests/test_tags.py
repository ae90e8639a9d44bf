"""Property tests for vector clocks and the tag total order."""

import copy
import dataclasses
import functools
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tags import LOCALHOST, Tag, VectorClock, zero_tag
from repro.runtime import wire

from tests import reference_v7

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


@functools.total_ordering
class _DerivedOrder:
    """``Tag``'s ordering as it was defined before the comparators were
    written out: ``__lt__`` on the key, ``__eq__`` on the fields, the other
    three derived by ``functools.total_ordering``."""

    def __init__(self, tag):
        self.ts, self.client_id = tag.ts, tag.client_id

    def _key(self):
        return (self.ts.lamport, self.client_id, self.ts.components)

    def __lt__(self, other):
        return self._key() < other._key()

    def __eq__(self, other):
        return self.ts == other.ts and self.client_id == other.client_id


@settings(max_examples=300, deadline=None)
@given(a=tags, b=tags)
def test_all_six_comparisons_agree_with_the_derived_order(a, b):
    old_a, old_b = _DerivedOrder(a), _DerivedOrder(b)
    for op in (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne):
        assert op(a, b) is op(old_a, old_b), op.__name__
    assert max(a, b) == (b if old_b > old_a else a)
    assert sorted([b, a]) == sorted([a, b]) == ([a, b] if old_a <= old_b else [b, a])


def test_tag_comparison_with_other_types_is_not_implemented():
    t = Tag(VectorClock((1, 0)), 3)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(t, 3)
    assert t != 3 and not (t == (t.ts, 3))


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


# -- the encoded-form slot (``Tag._wire``) is not part of the value ---------


def test_tag_constructor_takes_two_arguments():
    with pytest.raises(TypeError):
        Tag(VectorClock((1, 0)), 3, b"\x0e")
    with pytest.raises(TypeError):
        Tag(VectorClock((1, 0)), 3, _wire=b"\x0e")


@given(tags)
def test_encoded_and_unencoded_equal_tags_are_indistinguishable(t):
    fresh = Tag(VectorClock(t.ts.components), t.client_id)
    wire.encode(t)
    assert t._wire is not None and fresh._wire is None
    assert t == fresh and fresh == t and hash(t) == hash(fresh)
    assert not (t < fresh) and not (fresh < t) and t <= fresh and t >= fresh
    other = Tag(t.ts.increment(0), t.client_id)
    assert sorted([other, t]) == sorted([other, fresh]) == [t, other]
    assert repr(t) == repr(fresh) and "_wire" not in repr(t)
    assert {t: 1}[fresh] == 1 and len({t, fresh}) == 1


@given(tags, st.integers(6, 70_000))
def test_copies_encode_for_their_own_fields(t, other_id):
    wire.encode(t)  # the original carries its bytes from here on
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t
        assert wire.encode(clone) == reference_v7.encode(clone) == wire.encode(t)
    moved = dataclasses.replace(t, client_id=other_id)
    assert moved._wire is None  # a new tag starts without the old one's bytes
    assert moved != t and moved.client_id == other_id
    assert wire.encode(moved) == reference_v7.encode(moved) != wire.encode(t)
    assert wire.decode(wire.encode(moved)) == moved
    later = dataclasses.replace(t, ts=t.ts.increment(1))
    assert wire.encode(later) == reference_v7.encode(later) != wire.encode(t)
    with pytest.raises(ValueError):
        dataclasses.replace(t, _wire=b"")


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
