"""The field owns its storage dtype: every op widens, every op returns it.

Field symbols are kept (server state, frames, checkpoints, histories) in
``Field.storage_dtype`` -- the narrowest unsigned dtype holding ``order - 1``
-- and computed in the wider ``Field.dtype``.  That only works if *no*
operation ever computes in the caller's dtype: ``-a``, ``a - b`` and
``a * c`` on unsigned input wrap silently (on the parent commit
``PrimeField(257).neg(uint16[1, 256, 200])`` was ``[0, 2, 58]``).  So, for
every field family and storage width, every vector op and batched kernel of
``Field`` and every coding primitive of ``LinearCode`` is fed each integer
dtype that can hold the field -- and a read-only *unaligned* view, which is
what the wire decoder hands out -- at the values where wraparound bites
(0, 1, order - 2, order - 1), and must equal the scalar ``s_*`` /
``tests/ec_reference.py`` oracles and come back in ``storage_dtype``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ec.code import LinearCode
from repro.ec.field import GF256, BinaryExtensionField, PrimeField

from tests.ec_reference import (
    decode_reference,
    encode_reference,
    field_matmul_reference,
    reencode_reference,
)

FIELDS = [
    PrimeField(257),          # storage uint16, one past uint8
    GF256,                    # storage uint8
    BinaryExtensionField(4),  # storage uint8, order far below the dtype's top
    BinaryExtensionField(12), # storage uint16
    PrimeField(65_537),       # storage falls to uint32
]
EXPECTED = [np.uint16, np.uint8, np.uint8, np.uint16, np.uint32]


def _boundary(field) -> list[int]:
    return [0, 1, field.order - 2, field.order - 1]


def _unaligned(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a wire-decoded value: a read-only view at an odd offset."""
    view = np.frombuffer(b"\x00" + arr.tobytes(), dtype=arr.dtype, offset=1)
    assert not view.flags.writeable
    assert arr.dtype.itemsize == 1 or not view.flags.aligned
    return view.reshape(arr.shape)


def _forms(field, values):
    """``values`` in every integer dtype that can hold the field's elements,
    plus the unaligned read-only view of the storage form."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        if np.iinfo(dtype).max >= field.order - 1:
            yield np.array(values, dtype=dtype)
    yield _unaligned(np.array(values, dtype=field.storage_dtype))


def _stored(field, out, want) -> None:
    assert isinstance(out, np.ndarray) and out.dtype == field.storage_dtype, out.dtype
    assert out.tolist() == want


@pytest.mark.parametrize("field, dtype", list(zip(FIELDS, EXPECTED)), ids=repr)
def test_storage_dtype_is_a_function_of_the_order(field, dtype):
    assert field.storage_dtype == np.dtype(dtype)
    assert np.iinfo(field.storage_dtype).max >= field.order - 1
    assert field.zeros(3).dtype == field.storage_dtype
    rng = np.random.default_rng(5)
    drawn = field.random_vector(rng, 64)
    assert drawn.dtype == field.storage_dtype
    # the same seed draws the same elements as the compute-dtype draw did
    again = np.random.default_rng(5).integers(0, field.order, 64, dtype=field.dtype)
    assert drawn.tolist() == again.tolist()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_vector_ops_widen_every_input_dtype(field):
    b = _boundary(field)
    # every ordered pair of boundary values, as two aligned columns
    left, right = map(list, zip(*itertools.product(b, b)))
    for x, y in itertools.product(_forms(field, left), _forms(field, right)):
        _stored(field, field.add(x, y), [field.s_add(p, q) for p, q in zip(left, right)])
        _stored(field, field.sub(x, y), [field.s_sub(p, q) for p, q in zip(left, right)])
    for x in _forms(field, b):
        _stored(field, field.neg(x), [field.s_neg(p) for p in b])
        for c in b:
            _stored(field, field.scalar_mul(c, x), [field.s_mul(c, p) for p in b])
            for y in _forms(field, list(reversed(b))):
                want = [
                    field.s_add(q, field.s_mul(c, p))
                    for p, q in zip(b, reversed(b))
                ]
                _stored(field, field.axpy(c, x, y), want)
        assert not x.flags.writeable or x.tolist() == b  # inputs untouched


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_batched_kernels_widen_every_input_dtype(field):
    b = _boundary(field)
    a_rows = [b, list(reversed(b)), [b[3]] * 4]
    b_rows = [[b[i], b[3 - i], b[3]] for i in range(4)]
    want = field_matmul_reference(
        field,
        np.array(a_rows, dtype=field.dtype),
        np.array(b_rows, dtype=field.dtype),
    )
    assert want.dtype == field.storage_dtype
    for a, m in itertools.product(_forms(field, a_rows), _forms(field, b_rows)):
        _stored(field, field.matmul(a, m), want.tolist())
    col = [r[2] for r in b_rows]
    for a, x in itertools.product(_forms(field, a_rows), _forms(field, col)):
        _stored(field, field.matvec(a, x), [
            _dot(field, row, col) for row in a_rows
        ])
    # the re-encoding step: y + a @ (new - old), against the scalar oracles
    news, olds = b_rows, list(reversed(b_rows))  # (4, 3) each
    y3 = [row[:3] for row in a_rows]             # (3, 3)
    want_fold = [
        [
            field.s_add(
                y3[i][j],
                _dot(
                    field,
                    a_rows[i],
                    [field.s_sub(news[t][j], olds[t][j]) for t in range(4)],
                ),
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    for y, a, n, o in itertools.product(
        _forms(field, y3), _forms(field, a_rows), _forms(field, news), _forms(field, olds)
    ):
        _stored(field, field.fold(y, a, n, o), want_fold)
    # the Gaussian-elimination update: y + outer(c, x)
    for c, x, y in itertools.product(
        _forms(field, b[1:]), _forms(field, b), _forms(field, a_rows)
    ):
        _stored(field, field.axpy(c, x, y), [
            [field.s_add(q, field.s_mul(ci, p)) for p, q in zip(b, row)]
            for ci, row in zip(b[1:], a_rows)
        ])


def _dot(field, row, col) -> int:
    acc = 0
    for p, q in zip(row, col):
        acc = field.s_add(acc, field.s_mul(p, q))
    return acc


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_validate_checks_the_range_before_it_narrows(field):
    b = _boundary(field)
    for x in _forms(field, b):
        _stored(field, field.validate(x), b)
    _stored(field, field.validate(b), b)  # plain python ints
    kept = field.validate(np.array(b, dtype=field.storage_dtype))
    assert kept.dtype == field.storage_dtype
    # a -1 must be rejected, not become the dtype's top value; nor may an
    # out-of-range value be reduced or truncated into range
    for bad in ([-1, 0], [0, field.order], [2**40, 1], np.array([-1], dtype=np.int8)):
        with pytest.raises(ValueError):
            field.validate(bad)
    top = np.iinfo(field.storage_dtype).max
    if top >= field.order:
        with pytest.raises(ValueError):
            field.validate(np.array([top], dtype=field.storage_dtype))
    assert field.validate(np.array([], dtype=np.int64)).dtype == field.storage_dtype


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_linear_code_kernels_take_any_dtype_and_return_storage(field):
    top = field.order - 1
    code = LinearCode(
        field, 2, [[[1, 0]], [[0, 1]], [[1, 1]], [[1, top], [top, top - 1]]],
        value_len=4,
    )
    assert all(m.dtype == field.storage_dtype for m in code.matrices)
    assert code.zero_value().dtype == field.storage_dtype
    assert code.zero_symbol(3).dtype == field.storage_dtype
    assert code.zero_symbol(3).shape == (2, 4)
    b = _boundary(field)
    old = [b, list(reversed(b))]
    new = [[b[3], b[3], b[0], b[2]], [b[2], b[1], b[3], b[3]]]
    for x0, x1 in itertools.product(_forms(field, old[0]), _forms(field, old[1])):
        values = [x0, x1]
        symbols = code.encode_all(values)
        for s in range(code.N):
            want = encode_reference(code, s, old).tolist()
            _stored(field, code.encode(s, values), want)
            _stored(field, symbols[s], want)
    symbols = code.encode_all(old)
    for s, k in itertools.product(range(code.N), range(code.K)):
        want = reencode_reference(code, s, symbols[s], k, old[k], new[k]).tolist()
        for sym, o, n in itertools.product(
            _forms(field, symbols[s].tolist()),
            _forms(field, old[k]),
            _forms(field, new[k]),
        ):
            _stored(field, code.reencode(s, sym, k, o, n), want)
            _stored(field, code.reencode_many(s, sym, [(k, o, n)]), want)
        # the no-op paths return the storage dtype too
        for sym in _forms(field, symbols[s].tolist()):
            _stored(field, code.reencode(s, sym, k, old[k], old[k]), symbols[s].tolist())
            _stored(field, code.reencode_many(s, sym, []), symbols[s].tolist())
    both = [
        (k, o, n)
        for k in range(code.K)
        for o, n in [(np.array(old[k], dtype=np.int64), _unaligned(field.validate(new[k])))]
    ]
    for s in range(code.N):
        _stored(field, code.reencode_many(s, symbols[s], both),
                encode_reference(code, s, new).tolist())
    for servers in ((0, 1), (2, 3), (3,), (0, 2)):
        for forms in itertools.product(
            *(_forms(field, symbols[s].tolist()) for s in servers)
        ):
            given = dict(zip(servers, forms))
            for k in range(code.K):
                _stored(field, code.decode(k, given),
                        decode_reference(code, k, given).tolist())
                assert decode_reference(code, k, given).tolist() == old[k]
            many = code.decode_many(range(code.K), given)
            for k in range(code.K):
                _stored(field, many[k], old[k])
