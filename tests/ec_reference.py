"""Scalar-loop erasure-coding oracles: the pre-kernel ground truth.

``src/repro/ec`` computes through batched kernels only (one GEMM or one
log/antilog gather per call).  These are the schoolbook per-element loops
they replaced, built on nothing but a field's scalar ``s_add``/``s_sub``/
``s_mul`` and a code's coefficient matrices -- obviously correct and
O(Python ops per element), so they live here as oracles:
``tests/test_vectorized_kernels.py`` and ``tests/test_storage_dtype.py``
check every kernel against them, and ``benchmarks/test_micro_primitives.py``
times the kernels against them.  Never use them on a hot path.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.ec.code import LinearCode
from repro.ec.field import Field


def field_matmul_reference(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook per-element ``a @ b`` over ``s_add``/``s_mul``."""
    a, b = field._check_matmul_args(a, b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.storage_dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc = field.s_add(acc, field.s_mul(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


def matmul_reference(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`repro.ec.matrix.matmul`'s checks over the schoolbook product."""
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch")
    return field_matmul_reference(field, a, b)


def encode_reference(
    code: LinearCode, s: int, values: Sequence[np.ndarray]
) -> np.ndarray:
    """Scalar-loop Phi_s."""
    if len(values) != code.K:
        raise ValueError(f"expected {code.K} object values")
    g = code.matrices[s]
    f = code.field
    out = code.zero_symbol(s)
    for j in range(g.shape[0]):
        for k in range(code.K):
            c = int(g[j, k])
            if c:
                v = values[k]
                for t in range(code.value_len):
                    out[j, t] = f.s_add(int(out[j, t]), f.s_mul(c, int(v[t])))
    return out


def reencode_reference(
    code: LinearCode,
    s: int,
    symbol: np.ndarray,
    k: int,
    old_value: np.ndarray,
    new_value: np.ndarray,
) -> np.ndarray:
    """Scalar-loop Gamma_{s,k}."""
    g = code.matrices[s]
    f = code.field
    out = np.array(symbol, dtype=f.storage_dtype)
    for j in range(g.shape[0]):
        c = int(g[j, k])
        if c:
            for t in range(code.value_len):
                d = f.s_sub(int(new_value[t]), int(old_value[t]))
                out[j, t] = f.s_add(int(out[j, t]), f.s_mul(c, d))
    return out


def decode_reference(
    code: LinearCode, k: int, symbols: Mapping[int, np.ndarray]
) -> np.ndarray | None:
    """Scalar-loop Psi (the decoding coefficients are the code's own)."""
    servers = tuple(sorted(symbols))
    lam = code._decoding_coefficients(servers, k)
    if lam is None:
        return None
    f = code.field
    out = f.zeros(code.value_len)
    idx = 0
    for s in servers:
        sym = symbols[s]
        for j in range(code.symbols_at(s)):
            c = int(lam[idx])
            if c:
                for t in range(code.value_len):
                    out[t] = f.s_add(int(out[t]), f.s_mul(c, int(sym[j][t])))
            idx += 1
    return out
