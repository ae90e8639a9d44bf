"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.ec import GF256, PrimeField, example1_code

#: CI's second pass over the encoder-vs-oracle properties
#: (``--hypothesis-profile=oracle --hypothesis-seed=0``); tests that pin
#: ``max_examples`` themselves are unaffected.
settings.register_profile("oracle", max_examples=2000, deadline=None)


@pytest.fixture(params=["gf7", "gf257", "gf256"])
def any_field(request):
    return {
        "gf7": PrimeField(7),
        "gf257": PrimeField(257),
        "gf256": GF256,
    }[request.param]


@pytest.fixture
def gf257():
    return PrimeField(257)


@pytest.fixture
def small_code():
    """The paper's Example 1 (5,3) code over GF(257)."""
    return example1_code(PrimeField(257))


def unique_values(code, count, start=1):
    """Distinct object values for a code: [i, 0, 0, ...] for i = start.."""
    out = []
    for i in range(start, start + count):
        v = np.zeros(code.value_len, dtype=code.field.dtype)
        v[0] = i % code.field.order
        if code.value_len > 1:
            v[1] = (i // code.field.order) % code.field.order
        out.append(v)
    return out
