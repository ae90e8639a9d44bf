"""Property tests: vectorized field kernels vs the scalar reference paths.

The batched kernels (``Field.matmul``/``matvec``/``axpy`` and the kernel-based
``LinearCode.encode``/``reencode``/``decode``) must be bit-identical to the
scalar-loop oracles in ``tests/ec_reference.py`` for random codes, values,
and re-encode chains over GF(257), GF(256), and GF(2^4) -- including zero-row
and empty-server-stack edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import GF256, LinearCode, PrimeField, random_linear_code
from repro.ec import matrix as fmat
from repro.ec.field import BinaryExtensionField

from tests.ec_reference import (
    decode_reference,
    encode_reference,
    field_matmul_reference,
    matmul_reference,
    reencode_reference,
)

FIELDS = [PrimeField(257), GF256, BinaryExtensionField(4)]
FIELD_IDS = ["gf257", "gf256", "gf16"]


def _rand_matrix(field, rng, shape):
    return rng.integers(0, field.order, size=shape).astype(field.dtype)


# ---------------------------------------------------------------------------
# field-level kernels


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matmul_matches_reference(field):
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        a = _rand_matrix(field, rng, (m, k))
        b = _rand_matrix(field, rng, (k, n))
        expected = field_matmul_reference(field, a, b)
        assert np.array_equal(field.matmul(a, b), expected)
        assert np.array_equal(matmul_reference(field, a, b), expected)
        assert np.array_equal(fmat.matmul(field, a, b), expected)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matmul_with_zero_blocks(field):
    rng = np.random.default_rng(0)
    a = _rand_matrix(field, rng, (4, 3))
    b = _rand_matrix(field, rng, (3, 6))
    a[1] = 0  # zero row
    a[:, 2] = 0  # zero inner column
    b[0] = 0  # zero inner row
    assert np.array_equal(field.matmul(a, b), field_matmul_reference(field, a, b))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matmul_empty_dimensions(field):
    zero_rows = np.zeros((0, 3), dtype=field.dtype)
    b = np.ones((3, 4), dtype=field.dtype)
    assert field.matmul(zero_rows, b).shape == (0, 4)
    empty_inner = np.zeros((2, 0), dtype=field.dtype)
    out = field.matmul(empty_inner, np.zeros((0, 4), dtype=field.dtype))
    assert out.shape == (2, 4) and field.is_zero(out)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matvec_matches_matmul(field):
    rng = np.random.default_rng(1)
    a = _rand_matrix(field, rng, (4, 3))
    x = field.random_vector(rng, 3)
    expected = field_matmul_reference(field, a, x.reshape(-1, 1))[:, 0]
    assert np.array_equal(field.matvec(a, x), expected)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_axpy_scalar_matches_elementwise(field):
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        c = data.draw(st.integers(0, field.order - 1))
        n = data.draw(st.integers(1, 8))
        x = field.random_vector(rng, n)
        y = field.random_vector(rng, n)
        expected = field.add(y, field.scalar_mul(c, x))
        assert np.array_equal(field.axpy(c, x, y), expected)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_axpy_batched_matches_per_row(field):
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        c = _rand_matrix(field, rng, (m,))
        c[rng.integers(0, m)] = 0  # always exercise a zero coefficient
        x = field.random_vector(rng, n)
        y = _rand_matrix(field, rng, (m, n))
        out = field.axpy(c, x, y)
        for i in range(m):
            row = field.add(y[i], field.scalar_mul(int(c[i]), x))
            assert np.array_equal(out[i], row)
        assert np.array_equal(y, y)  # inputs not mutated

    check()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernels_do_not_mutate_inputs(field):
    rng = np.random.default_rng(2)
    a = _rand_matrix(field, rng, (3, 3))
    b = _rand_matrix(field, rng, (3, 4))
    a0, b0 = a.copy(), b.copy()
    field.matmul(a, b)
    field.axpy(a[:, 0].copy(), b[0], b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


# ---------------------------------------------------------------------------
# rref / solve_left built on the batched elimination


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_pivot_columns_are_unit_vectors(field):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _rand_matrix(field, rng, (4, 6))
        red, pivots = fmat.rref(field, a)
        for row_idx, c in enumerate(pivots):
            col = red[:, c]
            assert int(col[row_idx]) == 1
            assert int(np.count_nonzero(col)) == 1


# ---------------------------------------------------------------------------
# LinearCode: encode / reencode / decode vs the scalar-loop oracles


def _random_codes(field):
    codes = [
        random_linear_code(field, 5, 3, value_len=6, seed=1),
        random_linear_code(field, 4, 2, value_len=5, seed=2, symbols_per_server=2),
        random_linear_code(field, 6, 4, value_len=3, seed=3, density=0.5),
    ]
    return codes


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_encode_matches_reference(field):
    for code in _random_codes(field):
        rng = np.random.default_rng(code.N)
        for trial in range(3):
            vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
            for s in range(code.N):
                assert np.array_equal(
                    code.encode(s, vals), encode_reference(code, s, vals)
                )


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_encode_all_matches_per_server_encode(field):
    for code in _random_codes(field):
        rng = np.random.default_rng(7)
        vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
        symbols = code.encode_all(vals)
        assert len(symbols) == code.N
        for s in range(code.N):
            assert np.array_equal(symbols[s], code.encode(s, vals))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_reencode_chain_matches_reference(field):
    """A chain of re-encodes (Def. 4) stays bit-identical to the reference."""
    for code in _random_codes(field):
        rng = np.random.default_rng(11)
        vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
        for s in range(code.N):
            sym_k = code.encode(s, vals)
            sym_r = encode_reference(code, s, vals)
            current = [v.copy() for v in vals]
            for _ in range(4):
                k = int(rng.integers(0, code.K))
                new = field.random_vector(rng, code.value_len)
                sym_k = code.reencode(s, sym_k, k, current[k], new)
                sym_r = reencode_reference(code, s, sym_r, k, current[k], new)
                current[k] = new
                assert np.array_equal(sym_k, sym_r)
            # the chain lands on Phi_s of the final values (Definition 4)
            assert np.array_equal(sym_k, code.encode(s, current))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_reencode_many_matches_sequential_reencode(field):
    for code in _random_codes(field):
        rng = np.random.default_rng(13)
        vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
        news = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
        updates = [(k, vals[k], news[k]) for k in range(code.K)]
        for s in range(code.N):
            sym = code.encode(s, vals)
            batched = code.reencode_many(s, sym, updates)
            sequential = sym
            for k, old, new in updates:
                sequential = code.reencode(s, sequential, k, old, new)
            assert np.array_equal(batched, sequential)
            assert np.array_equal(batched, code.encode(s, news))
        # the empty update list is a pure copy
        sym = code.encode(0, vals)
        out = code.reencode_many(0, sym, [])
        assert np.array_equal(out, sym) and out is not sym


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_decode_matches_reference(field):
    for code in _random_codes(field):
        rng = np.random.default_rng(17)
        vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
        symbols = {s: code.encode(s, vals) for s in range(code.N)}
        for k in range(code.K):
            got = code.decode(k, symbols)
            ref = decode_reference(code, k, symbols)
            assert got is not None
            assert np.array_equal(got, ref)
            assert np.array_equal(got, vals[k])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_decode_many_matches_decode(field):
    code = _random_codes(field)[0]
    rng = np.random.default_rng(19)
    vals = [field.random_vector(rng, code.value_len) for _ in range(code.K)]
    symbols = {s: code.encode(s, vals) for s in range(code.N)}
    decoded = code.decode_many(range(code.K), symbols)
    assert decoded is not None
    for k in range(code.K):
        assert np.array_equal(decoded[k], vals[k])
    assert code.decode_many([], symbols) == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_row_server(field):
    """A server whose matrix has an all-zero row encodes/decodes cleanly."""
    mats = [
        np.array([[1, 2], [0, 0]]) % field.order,
        np.array([[0, 1]]),
        np.array([[1, 0]]),
    ]
    code = LinearCode(field, 2, mats, value_len=4)
    rng = np.random.default_rng(23)
    vals = [field.random_vector(rng, 4) for _ in range(2)]
    sym = code.encode(0, vals)
    assert np.array_equal(sym, encode_reference(code, 0, vals))
    assert field.is_zero(sym[1])
    new = field.random_vector(rng, 4)
    assert np.array_equal(
        code.reencode(0, sym, 0, vals[0], new),
        reencode_reference(code, 0, sym, 0, vals[0], new),
    )
    symbols = {0: sym, 1: code.encode(1, vals)}
    for k in range(2):
        assert np.array_equal(code.decode(k, symbols), vals[k])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_all_zero_server_matrix(field):
    """A server that stores nothing useful: zero matrix, empty objects_at."""
    mats = [np.zeros((1, 2), dtype=int), np.eye(2, dtype=int)]
    code = LinearCode(field, 2, mats, value_len=3)
    rng = np.random.default_rng(29)
    vals = [field.random_vector(rng, 3) for _ in range(2)]
    assert code.objects_at(0) == frozenset()
    assert field.is_zero(code.encode(0, vals))
    assert np.array_equal(code.encode(0, vals), encode_reference(code, 0, vals))
    # re-encoding a zero matrix is the identity
    sym = code.zero_symbol(0)
    out = code.reencode(0, sym, 1, vals[1], vals[0])
    assert field.is_zero(out)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_decode_empty_server_stack(field):
    """Decoding from no servers at all is a clean miss, not a crash."""
    code = _random_codes(field)[0]
    assert code.decode(0, {}) is None
    assert decode_reference(code, 0, {}) is None
    assert not code.is_recovery_set((), 0)


# ---------------------------------------------------------------------------
# bugfix: decode validates symbol shapes


def test_decode_rejects_transposed_symbol():
    field = PrimeField(257)
    code = random_linear_code(field, 5, 3, value_len=6, seed=1)
    rng = np.random.default_rng(31)
    vals = [field.random_vector(rng, 6) for _ in range(3)]
    symbols = {s: code.encode(s, vals) for s in range(code.N)}
    bad = dict(symbols)
    bad[2] = symbols[2].T
    with pytest.raises(ValueError, match="shape"):
        code.decode(0, bad)


def test_decode_rejects_truncated_symbol():
    field = PrimeField(257)
    code = random_linear_code(field, 5, 3, value_len=6, seed=1)
    rng = np.random.default_rng(37)
    vals = [field.random_vector(rng, 6) for _ in range(3)]
    symbols = {s: code.encode(s, vals) for s in range(code.N)}
    symbols[1] = symbols[1][:, :4]
    with pytest.raises(ValueError, match="shape"):
        code.decode(0, symbols)


def test_decode_rejects_flattened_symbol():
    field = PrimeField(257)
    code = random_linear_code(field, 5, 3, value_len=6, seed=1)
    rng = np.random.default_rng(41)
    vals = [field.random_vector(rng, 6) for _ in range(3)]
    symbols = {s: code.encode(s, vals) for s in range(code.N)}
    symbols[0] = symbols[0].ravel()
    with pytest.raises(ValueError, match="shape"):
        code.decode(0, symbols)


def test_reencode_rejects_bad_symbol_shape():
    field = PrimeField(257)
    code = random_linear_code(field, 4, 2, value_len=5, seed=2)
    rng = np.random.default_rng(43)
    vals = [field.random_vector(rng, 5) for _ in range(2)]
    sym = code.encode(0, vals)
    with pytest.raises(ValueError, match="shape"):
        code.reencode(0, sym.T, 0, vals[0], vals[1])


def test_encode_rejects_bad_value_shape():
    field = PrimeField(257)
    code = random_linear_code(field, 4, 2, value_len=5, seed=2)
    rng = np.random.default_rng(47)
    good = field.random_vector(rng, 5)
    with pytest.raises(ValueError, match="shape"):
        code.encode(0, [good, good[:3]])


# ---------------------------------------------------------------------------
# bugfix: out-of-range scalars raise ValueError on both field families


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_out_of_range_scalars_raise_value_error(field):
    vec = np.zeros(4, dtype=field.dtype)
    for bad in (field.order, field.order + 44, -1, 10**9):
        with pytest.raises(ValueError):
            field.scalar_mul(bad, vec)
        with pytest.raises(ValueError):
            field.s_mul(bad, 1)
        with pytest.raises(ValueError):
            field.s_mul(1, bad)
        with pytest.raises(ValueError):
            field.s_inv(bad)
        with pytest.raises(ValueError):
            field.s_add(bad, 0)
        with pytest.raises(ValueError):
            field.axpy(bad, vec, vec)


def test_gf256_scalar_mul_300_raises_value_error_not_index_error():
    """The original bug: GF256.scalar_mul(300, a) crashed with IndexError."""
    a = np.arange(4, dtype=GF256.dtype)
    with pytest.raises(ValueError):
        GF256.scalar_mul(300, a)


def test_prime_field_no_silent_modular_reduction():
    """PrimeField no longer reduces out-of-range coefficients mod p."""
    f = PrimeField(7)
    with pytest.raises(ValueError):
        f.scalar_mul(9, np.ones(3, dtype=f.dtype))
    with pytest.raises(ValueError):
        f.s_mul(9, 2)
    assert f.s_mul(9 % 7, 2) == 4  # explicit reduction still available


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_non_integer_scalars_rejected(field):
    with pytest.raises(TypeError):
        field.s_mul(1.5, 1)
    with pytest.raises(TypeError):
        field.scalar_mul(True, np.zeros(2, dtype=field.dtype))


# ---------------------------------------------------------------------------
# lazy GF256 singleton and shared tables


def test_gf256_singleton_is_lazy_in_fresh_interpreter():
    import subprocess
    import sys

    script = (
        "import repro.ec.field as f\n"
        "assert '_exp' not in f.GF256.__dict__, 'tables built at import'\n"
        "assert f.GF256.order == 256\n"
        "assert '_exp' not in f.GF256.__dict__, 'metadata access built tables'\n"
        "assert f.GF256.s_mul(3, 7) == 9\n"
        "assert '_exp' in f.GF256.__dict__\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_binary_field_tables_are_shared_and_frozen():
    from repro.ec.field import BinaryExtensionField

    a = BinaryExtensionField(8)
    b = BinaryExtensionField(8)
    assert a._exp is b._exp and a._log is b._log
    assert a._exp is GF256._exp
    assert not a._exp.flags.writeable
    with pytest.raises(AttributeError):
        GF256.no_such_attribute
