"""Adoption-grade facade: string keys, bytes values, sessions, placements."""

from .codec import CodecError, ValueCodec
from .store import (
    CausalKVStore,
    Session,
    grouped_store,
    hybrid_store,
    ring_store,
    single_store,
)

__all__ = [
    "CausalKVStore",
    "Session",
    "single_store",
    "grouped_store",
    "hybrid_store",
    "ring_store",
    "ValueCodec",
    "CodecError",
]
