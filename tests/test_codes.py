"""Tests for the code constructors against the paper's stated structure."""

import numpy as np
import pytest

from repro.ec import (
    GF256,
    PrimeField,
    example1_code,
    partial_replication_code,
    reed_solomon_code,
    replication_code,
    six_dc_code,
)


def one_indexed(sets):
    return sorted(sorted(s + 1 for s in rset) for rset in sets)


# ---------------------------------------------------------------------------
# Example 1 / Sec. 1.2: the (5,3) code


def test_example1_minimal_recovery_sets_match_paper():
    code = example1_code()
    # R_1 = {{1},{3,4,5},{2,3,4},{2,3,5}}
    assert one_indexed(code.minimal_recovery_sets(0)) == [
        [1], [2, 3, 4], [2, 3, 5], [3, 4, 5],
    ]
    # R_2 = {{2},{4,5},{1,3,4},{1,3,5}}
    assert one_indexed(code.minimal_recovery_sets(1)) == [
        [1, 3, 4], [1, 3, 5], [2], [4, 5],
    ]
    # R_3 = {{3},{1,2,4},{1,2,5},{1,4,5}}
    assert one_indexed(code.minimal_recovery_sets(2)) == [
        [1, 2, 4], [1, 2, 5], [1, 4, 5], [3],
    ]


def test_example1_rejects_characteristic_two():
    with pytest.raises(ValueError):
        example1_code(GF256)


def test_example1_reencoding_gamma52():
    """Example 1's re-encoding: Gamma_{5,2}(y5, x2, x2') = y5 - 2x2 + 2x2'."""
    code = example1_code(PrimeField(7))
    f = code.field
    rng = np.random.default_rng(0)
    xs = [f.random_vector(rng, 1) for _ in range(3)]
    y5 = code.encode(4, xs)
    new_x2 = f.random_vector(rng, 1)
    got = code.reencode(4, y5, 1, xs[1], new_x2)
    # field elements come back unsigned: do the integer arithmetic wide
    wide = [np.asarray(a, dtype=np.int64) for a in (y5[0], xs[1], new_x2)]
    manual = (wide[0] - 2 * wide[1] + 2 * wide[2]) % 7
    assert np.array_equal(got[0], manual)


# ---------------------------------------------------------------------------
# replication and partial replication


def test_replication_code_every_server_full():
    code = replication_code(num_servers=4, num_objects=3)
    for s in range(4):
        assert code.objects_at(s) == {0, 1, 2}
        for k in range(3):
            assert code.is_recovery_set({s}, k)
        assert code.symbols_at(s) == 3


def test_partial_replication_code_local_recovery():
    code = partial_replication_code(None, 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    for s, objs in enumerate([[0, 1], [1, 2], [2, 3], [3, 0]]):
        assert code.objects_at(s) == set(objs)
        for k in objs:
            assert code.is_recovery_set({s}, k)
    # object 0 lives at servers 0 and 3 only
    assert not code.is_recovery_set({1, 2}, 0)


def test_partial_replication_accepts_mapping():
    code = partial_replication_code(None, 2, {0: [0], 1: [1]})
    assert code.objects_at(0) == {0}
    assert code.objects_at(1) == {1}


# ---------------------------------------------------------------------------
# Reed-Solomon


@pytest.mark.parametrize("field", [PrimeField(257), GF256], ids=repr)
@pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (4, 2), (3, 3)])
def test_reed_solomon_is_mds(field, n, k):
    code = reed_solomon_code(field, n, k)
    assert code.is_mds()


def test_reed_solomon_systematic_prefix():
    code = reed_solomon_code(PrimeField(257), 6, 4)
    for s in range(4):
        assert code.objects_at(s) == {s}
        assert code.is_recovery_set({s}, s)


def test_reed_solomon_non_systematic():
    code = reed_solomon_code(PrimeField(257), 5, 3, systematic=False)
    assert code.is_mds()
    # Vandermonde row 0 has evaluation point 1: [1, 1, 1]
    assert code.objects_at(0) == {0, 1, 2}


def test_reed_solomon_rejects_small_field():
    with pytest.raises(ValueError):
        reed_solomon_code(PrimeField(5), 6, 3)


def test_reed_solomon_rejects_n_lt_k():
    with pytest.raises(ValueError):
        reed_solomon_code(PrimeField(257), 2, 3)


def test_reed_solomon_decode_any_k(gf257):
    code = reed_solomon_code(gf257, 6, 4, value_len=3)
    rng = np.random.default_rng(1)
    xs = [gf257.random_vector(rng, 3) for _ in range(4)]
    syms = {s: code.encode(s, xs) for s in range(6)}
    got = code.decode(2, {1: syms[1], 3: syms[3], 4: syms[4], 5: syms[5]})
    assert np.array_equal(got, xs[2])


# ---------------------------------------------------------------------------
# the 6-DC cross-object code (Sec. 1.1)


def test_six_dc_recovery_structure():
    code = six_dc_code()
    # X1 at Ireland (2) locally, or Seoul+Oregon (X1+X3 minus X3)
    assert sorted(map(sorted, code.minimal_recovery_sets(0))) == [[0, 5], [2]]
    # X2 at London (3), or Mumbai+N.California
    assert sorted(map(sorted, code.minimal_recovery_sets(1))) == [[1, 4], [3]]
    # X3 at Oregon (5), or Seoul+Ireland
    assert sorted(map(sorted, code.minimal_recovery_sets(2))) == [[0, 2], [5]]
    # X4 at N.California (4), or Mumbai+London
    assert sorted(map(sorted, code.minimal_recovery_sets(3))) == [[1, 3], [4]]


def test_six_dc_not_mds():
    # footnote 6: "This code is not maximum distance separable"
    assert not six_dc_code().is_mds()


def test_six_dc_storage_is_one_symbol_per_server():
    code = six_dc_code()
    assert all(code.symbols_at(s) == 1 for s in range(6))
