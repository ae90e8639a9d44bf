"""Dense linear algebra over finite fields.

Recovery-set detection (Definition 2) reduces to row-space membership and
decoding reduces to solving a linear system over the code's field; both are
implemented here via fraction-free Gaussian elimination using the scalar
operations of a :class:`repro.ec.field.Field`.

Matrices are 2-D numpy arrays of field elements (the field's dtype).  All
functions are pure.
"""

from __future__ import annotations

import numpy as np

from .field import Field

__all__ = [
    "rref",
    "rank",
    "solve_left",
    "in_rowspan",
    "invert",
    "matmul",
]


def _as_matrix(field: Field, a: np.ndarray) -> np.ndarray:
    arr = np.array(a, dtype=field.dtype, copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` and the list of pivot columns."""
    m = _as_matrix(field, a)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # find a pivot in column c at or below row r
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        pivot_row = r + int(below[0])
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        inv = field.s_inv(int(m[r, c]))
        if inv != 1:
            m[r] = field.scalar_mul(inv, m[r])
        # batched elimination: fold the pivot row out of every other row with
        # a nonzero entry in column c in one axpy kernel call
        targets = np.flatnonzero(m[:, c])
        targets = targets[targets != r]
        if targets.size:
            factors = field.neg(m[targets, c])
            m[targets] = field.axpy(factors, m[r], m[targets])
        pivots.append(c)
        r += 1
    return m, pivots


def rank(field: Field, a: np.ndarray) -> int:
    """Rank of ``a`` over ``field``."""
    _, pivots = rref(field, a)
    return len(pivots)


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field (delegates to the batched kernel)."""
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch")
    return field.matmul(a, b)


def solve_left(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``lam @ a = b`` for a row vector ``lam``, or return None.

    ``a`` is (n x m), ``b`` is a length-m row vector; the solution (if any) is
    a length-n row vector.  Used to express a target unit vector as a linear
    combination of stacked codeword-symbol rows (decoding, Definition 2).
    """
    a = np.asarray(a, dtype=field.dtype)
    b = np.asarray(b, dtype=field.dtype)
    n, m = a.shape
    if b.shape != (m,):
        raise ValueError("shape mismatch")
    # Solve a.T x = b.T by eliminating the augmented matrix [a.T | b].
    aug = np.zeros((m, n + 1), dtype=field.dtype)
    aug[:, :n] = a.T
    aug[:, n] = b
    red, pivots = rref(field, aug)
    if n in pivots:
        return None  # inconsistent system
    lam = field.zeros(n)
    for row_idx, c in enumerate(pivots):
        lam[c] = red[row_idx, n]
    return lam


def in_rowspan(field: Field, a: np.ndarray, v: np.ndarray) -> bool:
    """True iff row vector ``v`` lies in the row space of ``a``."""
    return solve_left(field, a, v) is not None


def invert(field: Field, a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over the field (raises if singular)."""
    a = np.asarray(a, dtype=field.dtype)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.zeros((n, 2 * n), dtype=field.dtype)
    aug[:, :n] = a
    aug[np.arange(n), n + np.arange(n)] = 1
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise np.linalg.LinAlgError("matrix is singular over the field")
    return red[:, n:]
