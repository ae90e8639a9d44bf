"""Finite field arithmetic for erasure coding.

CausalEC stores object values drawn from a vector space ``V`` over a finite
field ``F`` (Sec. 2.2 of the paper).  This module provides two concrete field
families:

* :class:`PrimeField` -- GF(p) for a prime ``p``, with numpy-vectorised
  arithmetic computed in int64.  The paper's running examples (Example 1, the
  (5,3) code of Sec. 1.2) require a field of odd characteristic, for which any
  odd prime works.
* :class:`BinaryExtensionField` -- GF(2^m) via log/antilog tables, the family
  used by practical Reed--Solomon deployments (GF(256) in particular).

Object *values* are represented as 1-D numpy integer arrays whose entries are
field elements; *scalars* (code coefficients) are plain Python ints in
``[0, order)``.  All operations are pure: inputs are never mutated.

Storage dtype and compute dtype
-------------------------------

A field has two dtypes.  ``storage_dtype`` is the narrowest unsigned dtype
that holds ``order - 1`` (uint8 for GF(2^m <= 8), uint16 for GF(257) and
GF(2^9..16), uint32 for a prime above 65 536): it is what field elements are
*kept* in -- server state, messages, checkpoints, histories.  ``dtype`` is
the wider type the arithmetic is *done* in (int64 for a prime field, where
products and negations need the room; uint32 for the table gathers of
GF(2^m)).  Every vector operation, batched kernel and constructor accepts
integer arrays of any dtype, widens them to ``dtype`` on entry -- never
computing in the caller's dtype, where ``-a`` or ``a * c`` on unsigned
input wraps silently -- and returns ``storage_dtype``.  The widening copy
also realigns the unaligned read-only views the wire decoder hands out.

Scalar domain rule
------------------

Every scalar handed to a field operation must already be a canonical field
element, i.e. an integer in ``[0, order)``.  Out-of-range scalars raise
``ValueError`` in **both** field families.  In particular :class:`PrimeField`
no longer silently reduces coefficients mod p: callers that want modular
reduction must do it explicitly.  This catches the class of bugs where a
stray coefficient (e.g. 300 in GF(256)) previously either crashed with a raw
numpy ``IndexError`` or silently produced a wrong codeword.

Batched kernels
---------------

Beyond the elementwise operations, every field exposes four batched kernels
that the erasure-coding hot path (:mod:`repro.ec.code`, :mod:`repro.ec.matrix`)
is built on:

* ``matmul(a, b)`` -- field matrix product of an (m, k) and a (k, n) matrix;
* ``matvec(a, x)`` -- field matrix--vector product;
* ``axpy(c, x, y)`` -- ``y + c * x`` for a scalar ``c``, or the batched
  row update ``y + outer(c, x)`` when ``c`` is a 1-D coefficient vector
  (the Gaussian-elimination inner loop);
* ``fold(y, a, new, old)`` -- ``y + a @ (new - old)``, the re-encoding step
  (Definition 4) for a batch of changed objects.

:class:`PrimeField` implements them with a single int64 GEMM plus one modular
reduction (chunked along the inner dimension when the worst-case partial sum
could overflow int64); :class:`BinaryExtensionField` uses log/antilog gathers
with an XOR accumulation.  The schoolbook per-element ground truth they are
property-tested against lives in ``tests/ec_reference.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Field",
    "PrimeField",
    "BinaryExtensionField",
    "GF256",
    "default_field",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _storage_dtype(order: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every element of a field."""
    return np.dtype(np.min_scalar_type(order - 1))


class Field:
    """Abstract finite field interface.

    Subclasses provide scalar arithmetic (on Python ints) and vectorised
    arithmetic (on numpy arrays of field elements).  ``order`` is the number
    of field elements and ``characteristic`` its additive characteristic.
    """

    order: int
    characteristic: int
    #: compute dtype: what the kernels widen their inputs to
    dtype: np.dtype
    #: what every operation returns and field elements are stored and sent
    #: in; a function of ``order`` alone (:func:`_storage_dtype`)
    storage_dtype: np.dtype

    def _wide(self, a) -> np.ndarray:
        """``a`` in the compute dtype (a fresh aligned array unless it
        already is one)."""
        return np.asarray(a, dtype=self.dtype)

    def _narrow(self, a: np.ndarray) -> np.ndarray:
        """A canonical result back in the storage dtype."""
        return a.astype(self.storage_dtype, copy=False)

    # -- scalar domain -----------------------------------------------------

    def check_scalar(self, c: int) -> int:
        """Validate a scalar coefficient, returning it as a Python int.

        Scalars must be integers in ``[0, order)``; anything else raises
        ``ValueError`` (``TypeError`` for non-integers).  Both field families
        enforce this uniformly -- there is no silent modular reduction.
        """
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise TypeError(f"scalar must be an integer, got {type(c).__name__}")
        c = int(c)
        if not 0 <= c < self.order:
            raise ValueError(
                f"scalar {c} out of range [0, {self.order}) for {self!r}"
            )
        return c

    # -- scalar operations -------------------------------------------------

    def s_add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def s_neg(self, a: int) -> int:
        raise NotImplementedError

    def s_sub(self, a: int, b: int) -> int:
        return self.s_add(a, self.s_neg(b))

    def s_mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def s_inv(self, a: int) -> int:
        raise NotImplementedError

    # -- vector operations -------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def neg(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add(a, self.neg(b))

    def scalar_mul(self, c: int, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- batched kernels ---------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field matrix product of ``a`` (m, k) and ``b`` (k, n)."""
        raise NotImplementedError

    def matvec(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Field matrix--vector product of ``a`` (m, k) and ``x`` (k,)."""
        x = self._wide(x)
        if x.ndim != 1:
            raise ValueError("matvec expects a 1-D vector")
        return self.matmul(a, x.reshape(-1, 1))[:, 0]

    def axpy(self, c, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y + c*x`` (scalar ``c``) or ``y + outer(c, x)`` (1-D ``c``).

        The array form is the batched Gaussian-elimination update: ``c`` holds
        one coefficient per row of ``y`` and ``x`` is the (pivot) row being
        folded in.  Pure: returns a new array.
        """
        raise NotImplementedError

    def fold(
        self, y: np.ndarray, a: np.ndarray, new: np.ndarray, old: np.ndarray
    ) -> np.ndarray:
        """``y + a @ (new - old)``: fold a batch of row changes into ``y``.

        The re-encoding kernel (Definition 4): ``y`` is an (m, n) symbol,
        ``a`` its (m, k) coefficients for the k changed objects, ``new`` and
        ``old`` their (k, n) values.  Pure: returns a new array.
        """
        return self.add(y, self.matmul(a, self.sub(new, old)))

    def _check_matmul_args(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        a = self._wide(a)
        b = self._wide(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"dimension mismatch: {a.shape} @ {b.shape}"
            )
        return a, b

    # -- constructors and checks -------------------------------------------

    def zeros(self, n: int) -> np.ndarray:
        """The zero vector of V = F^n."""
        return np.zeros(n, dtype=self.storage_dtype)

    def is_zero(self, a: np.ndarray) -> bool:
        return not np.any(a)

    def validate(self, a: np.ndarray) -> np.ndarray:
        """Coerce ``a`` to a canonical field-element array, checking range.

        The range is checked in the dtype ``a`` came in, *before* narrowing
        to ``storage_dtype`` (a -1 must be rejected, not become 65 535);
        an array already in the storage dtype is returned as it is.
        """
        arr = np.asarray(a)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(self.dtype)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.order):
            raise ValueError(
                f"array entries must lie in [0, {self.order}) for {self!r}"
            )
        return self._narrow(arr)

    def random_vector(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """A uniformly random element of V = F^n.

        Drawn in the compute dtype and narrowed, so a seed yields the same
        elements whatever the storage dtype.
        """
        return self._narrow(rng.integers(0, self.order, size=n, dtype=self.dtype))

    def random_scalar(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.order))

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"


class PrimeField(Field):
    """GF(p) for prime ``p``; elements are ints in ``[0, p)``."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.order = p
        self.characteristic = p
        self.dtype = np.dtype(np.int64)
        self.storage_dtype = _storage_dtype(p)
        # int64 multiply of two (p-1) values must not overflow.
        if (p - 1) ** 2 >= 2**63:
            raise ValueError("prime too large for int64 arithmetic")
        # longest inner dimension whose worst-case dot product fits int64
        self._gemm_chunk = max(1, (2**63 - 1) // ((p - 1) ** 2 or 1))

    # scalars
    def s_add(self, a: int, b: int) -> int:
        return (self.check_scalar(a) + self.check_scalar(b)) % self.order

    def s_neg(self, a: int) -> int:
        return (-self.check_scalar(a)) % self.order

    def s_mul(self, a: int, b: int) -> int:
        return (self.check_scalar(a) * self.check_scalar(b)) % self.order

    def s_inv(self, a: int) -> int:
        a = self.check_scalar(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.order - 2, self.order)

    # vectors
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._narrow((self._wide(a) + self._wide(b)) % self.order)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self._narrow((-self._wide(a)) % self.order)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._narrow((self._wide(a) - self._wide(b)) % self.order)

    def scalar_mul(self, c: int, a: np.ndarray) -> np.ndarray:
        return self._narrow((self._wide(a) * self.check_scalar(c)) % self.order)

    # batched kernels
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._check_matmul_args(a, b)
        inner = a.shape[1]
        if inner <= self._gemm_chunk:
            return self._narrow((a @ b) % self.order)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        for lo in range(0, inner, self._gemm_chunk):
            hi = lo + self._gemm_chunk
            out = (out + a[:, lo:hi] @ b[lo:hi]) % self.order
        return self._narrow(out)

    def fold(
        self, y: np.ndarray, a: np.ndarray, new: np.ndarray, old: np.ndarray
    ) -> np.ndarray:
        # one GEMM, one reduction: [I | a | -a] @ [y; new; old]
        a = self._wide(a)
        coeff = np.hstack([np.eye(len(a), dtype=self.dtype), a, (-a) % self.order])
        rows = np.concatenate([y, new, old], dtype=self.dtype, casting="unsafe")
        return self.matmul(coeff, rows)

    def axpy(self, c, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = self._wide(x)
        y = self._wide(y)
        if np.ndim(c) == 0:
            return self._narrow((y + x * self.check_scalar(c)) % self.order)
        c = self._wide(self.validate(c))
        if c.ndim != 1 or y.shape != (c.shape[0],) + x.shape:
            raise ValueError("axpy shape mismatch")
        return self._narrow((y + c[:, None] * x[None, :]) % self.order)


#: shared log/antilog tables keyed by (m, primitive_poly) -- building GF(2^16)
#: tables costs ~65k Python loop iterations, so repeated constructions reuse.
_TABLE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


class BinaryExtensionField(Field):
    """GF(2^m) with log/antilog table arithmetic, for m in [1, 16].

    ``primitive_poly`` is the integer encoding of an irreducible polynomial of
    degree m over GF(2) (including the x^m term).  Defaults are the standard
    choices (e.g. 0x11D for GF(256), as used by RS(255, k) codecs).

    Log/antilog tables are shared process-wide between instances with the
    same (m, poly); the module-level :data:`GF256` singleton defers building
    them until first use so ``import repro`` stays cheap.
    """

    _DEFAULT_POLY = {
        1: 0b11,
        2: 0b111,
        3: 0b1011,
        4: 0b10011,
        5: 0b100101,
        6: 0b1000011,
        7: 0b10001001,
        8: 0x11D,
        9: 0b1000010001,
        10: 0b10000001001,
        11: 0b100000000101,
        12: 0b1000001010011,
        13: 0b10000000011011,
        14: 0b100010001000011,
        15: 0b1000000000000011,
        16: 0b10001000000001011,
    }

    def __init__(
        self, m: int, primitive_poly: int | None = None, *, _defer_tables: bool = False
    ):
        if not 1 <= m <= 16:
            raise ValueError("m must be in [1, 16]")
        self.m = m
        self.order = 1 << m
        self.characteristic = 2
        self.dtype = np.dtype(np.uint32)
        self.storage_dtype = _storage_dtype(self.order)
        self._poly = primitive_poly or self._DEFAULT_POLY[m]
        if not _defer_tables:
            self._ensure_tables()

    def _ensure_tables(self) -> None:
        key = (self.m, self._poly)
        tables = _TABLE_CACHE.get(key)
        if tables is None:
            tables = self._build_tables(self._poly)
            _TABLE_CACHE[key] = tables
        self._exp, self._log = tables

    def __getattr__(self, name: str):
        # lazily build the log/antilog tables on first arithmetic use (the
        # GF256 singleton is constructed with _defer_tables=True)
        if name in ("_exp", "_log"):
            self._ensure_tables()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _build_tables(self, poly: int) -> tuple[np.ndarray, np.ndarray]:
        size = self.order
        exp = np.zeros(2 * size, dtype=np.uint32)
        log = np.zeros(size, dtype=np.int64)
        x = 1
        for i in range(size - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & size:
                x ^= poly
        if x != 1:
            raise ValueError(f"poly {poly:#x} is not primitive for GF(2^{self.m})")
        # duplicate so exp[(la + lb)] never needs a modulo
        exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
        exp.setflags(write=False)
        log.setflags(write=False)
        return exp, log

    # scalars
    def s_add(self, a: int, b: int) -> int:
        return self.check_scalar(a) ^ self.check_scalar(b)

    def s_neg(self, a: int) -> int:
        return self.check_scalar(a)  # characteristic 2

    def s_mul(self, a: int, b: int) -> int:
        a = self.check_scalar(a)
        b = self.check_scalar(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def s_inv(self, a: int) -> int:
        a = self.check_scalar(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self._exp[(self.order - 1) - int(self._log[a])])

    # vectors
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._narrow(np.bitwise_xor(self._wide(a), self._wide(b)))

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.array(a, dtype=self.storage_dtype)

    def scalar_mul(self, c: int, a: np.ndarray) -> np.ndarray:
        c = self.check_scalar(c)
        a = self._wide(a)
        if c == 1:
            return a.astype(self.storage_dtype)
        out = np.zeros(a.shape, dtype=self.storage_dtype)
        if c == 0:
            return out
        nz = a != 0
        if np.any(nz):
            out[nz] = self._exp[self._log[a[nz]] + int(self._log[c])]
        return out

    # batched kernels
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._check_matmul_args(a, b)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        exp, log = self._exp, self._log
        # accumulate rank-1 updates: one gather + XOR per inner index; the
        # inner dimension on the EC hot path is the (small) object count K
        # while the batched axis is the (large) value length.
        for t in range(a.shape[1]):
            col = a[:, t]
            row = b[t]
            nzc = np.flatnonzero(col)
            if not nzc.size:
                continue
            nzr = np.flatnonzero(row)
            if not nzr.size:
                continue
            contrib = exp[log[col[nzc]][:, None] + log[row[nzr]][None, :]]
            out[np.ix_(nzc, nzr)] ^= contrib
        return self._narrow(out)

    def axpy(self, c, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = self._wide(x)
        # the accumulator: an owned copy of y in the compute dtype
        out = np.array(y, dtype=self.dtype)
        exp, log = self._exp, self._log
        if np.ndim(c) == 0:
            c = self.check_scalar(c)
            nz = x != 0
            if c and np.any(nz):
                out[nz] ^= exp[log[x[nz]] + int(log[c])]
            return self._narrow(out)
        c = self.validate(c)
        if c.ndim != 1 or out.shape != (c.shape[0],) + x.shape:
            raise ValueError("axpy shape mismatch")
        nzc = np.flatnonzero(c)
        nzx = np.flatnonzero(x)
        if nzc.size and nzx.size:
            out[np.ix_(nzc, nzx)] ^= exp[log[c[nzc]][:, None] + log[x[nzx]][None, :]]
        return self._narrow(out)


#: lazily-built cached singleton: metadata (order, dtype, ...) is available
#: immediately; log/antilog tables are constructed on first arithmetic use.
GF256 = BinaryExtensionField(8, _defer_tables=True)


def default_field() -> Field:
    """The field used by examples/benchmarks when none is specified.

    GF(257) satisfies the odd-characteristic requirement of the paper's
    running example codes while staying byte-friendly.
    """
    return PrimeField(257)
