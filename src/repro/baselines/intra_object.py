"""Baseline: intra-object erasure coding (the conventional approach).

The "fragment and encode" scheme of [15, 29, 13, 27, 18, 22]: each object
value is partitioned into ``k`` data fragments, encoded with an (N, k) MDS
code, and server ``i`` stores the i-th codeword fragment of every object.
No server stores any object in its entirety, so -- as the paper emphasises
-- *every* read must contact ``k-1`` remote servers (one fragment is local),
paying the round-trip time to the (k-1)-th nearest neighbour.

Writes propagate causally: fragment updates ride the same vector-clock
predicated broadcast as the other baselines, so servers apply versions in
causal order.  Servers keep a short per-object version history so that a
reader can always assemble ``k`` fragments of a *common* version even under
concurrent writes (the paper's footnote on history in erasure-coded stores
[43, 14]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.cluster import Cluster
from ..core.messages import (
    App,
    CostModel,
    ReadRequest,
    WriteAck,
    WriteRequest,
    _Message,
)
from ..core.tags import Tag
from ..ec.code import LinearCode
from ..ec.codes import reed_solomon_code
from ..ec.field import Field, default_field
from ..sim.network import LatencyModel
from .base import CausalBroadcastServer

__all__ = ["IntraObjectServer", "IntraObjectCluster", "FragRead", "FragReadResp"]

#: versions retained per object at each server (enough to bridge the
#: propagation window of concurrent writes under the simulated latencies)
HISTORY_DEPTH = 8


@dataclass
class FragRead(_Message):
    """Reader's server -> peer: send your fragment versions of X."""

    kind = "frag_read"
    opid: Any
    obj: int


@dataclass
class FragReadResp(_Message):
    """Peer -> reader's server: recent (tag, fragment) versions."""

    kind = "frag_read_resp"
    opid: Any
    obj: int
    versions: list  # [(tag, fragment-symbol)]


@dataclass
class _PendingFragRead:
    client: int
    opid: Any
    obj: int
    responses: dict[int, dict[Tag, np.ndarray]]


class IntraObjectServer(CausalBroadcastServer):
    """Stores one MDS fragment per object; reads assemble k fragments."""

    def __init__(
        self,
        node_id,
        scheduler,
        network,
        num_servers,
        num_objects,
        frag_code: LinearCode,
        value_len: int,
        rtt: np.ndarray | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(
            node_id, scheduler, network, num_servers, num_objects, cost_model
        )
        self.frag_code = frag_code  # (N, k) code over fragments
        self.k = frag_code.K
        self.value_len = value_len
        self.frag_len = value_len // self.k
        self.rtt = rtt
        # obj -> {tag: fragment symbol}; the zero tag is implicit (zeros)
        self.store: dict[int, dict[Tag, np.ndarray]] = {
            x: {} for x in range(num_objects)
        }
        self._pending: dict[Any, _PendingFragRead] = {}
        self.remote_fetches = 0

    # ------------------------------------------------------------------
    # writes: encode into N fragments, distribute causally

    def _on_write(self, client: int, msg: WriteRequest) -> None:
        self.vc = self.vc.increment(self.node_id)
        tag = Tag(self.vc, client)
        frags = self._fragment(msg.value)
        # all N fragment symbols come out of one stacked field-matmul
        symbols = self.frag_code.encode_all(frags)
        for j in self._others:
            self._emit_send(
                j, self._sized(App(msg.obj, symbols[j], tag), 1.0 / self.k, 1)
            )
        self.apply_write(msg.obj, symbols[self.node_id], tag, True)
        ack = WriteAck(msg.opid)
        ack.ts = self.vc
        ack.tag = tag
        self._emit_reply(client, self._sized(ack))

    def _fragment(self, value: np.ndarray) -> list[np.ndarray]:
        value = np.asarray(value)
        if value.size != self.value_len:
            raise ValueError("value length mismatch")
        return [
            value[i * self.frag_len : (i + 1) * self.frag_len]
            for i in range(self.k)
        ]

    def apply_write(self, obj: int, symbol, tag: Tag, local: bool) -> None:
        """Store the causally applied fragment, keeping a short history."""
        versions = self.store[obj]
        versions[tag] = np.asarray(symbol).reshape(1, self.frag_len)
        if len(versions) > HISTORY_DEPTH:
            for stale in sorted(versions)[: len(versions) - HISTORY_DEPTH]:
                del versions[stale]
        self._recheck_pending(obj)

    # ------------------------------------------------------------------
    # reads: gather k same-version fragments, decode

    def serve_read(self, client: int, msg: ReadRequest) -> None:
        """Gather k same-version fragments (one local) and decode."""
        if self.k == 1:
            # degenerate: the local "fragment" is the whole value
            versions = self.store[msg.obj]
            if versions:
                tag = max(versions)
                self._read_return(client, msg.opid, versions[tag][0], tag)
            else:
                self._read_return(
                    client, msg.opid, self.frag_code.field.zeros(self.value_len),
                    self.zero,
                )
            return
        self.remote_fetches += 1
        pend = _PendingFragRead(client, msg.opid, msg.obj, {})
        self._pending[msg.opid] = pend
        for j in self._fetch_targets():
            self._emit_send(j, self._sized(FragRead(msg.opid, msg.obj)))

    def _fetch_targets(self) -> list[int]:
        """The k-1 nearest other servers (Sec. 1.1's latency analysis)."""
        others = list(self._others)
        if self.rtt is not None:
            others.sort(key=lambda j: float(self.rtt[self.node_id, j]))
        return others[: self.k - 1]

    def on_protocol_message(self, src: int, msg: object) -> None:
        if isinstance(msg, FragRead):
            versions = [(t, v) for t, v in self.store[msg.obj].items()]
            resp = FragReadResp(msg.opid, msg.obj, versions)
            self._emit_send(src, self._sized(resp, 1.0 / self.k, len(versions)))
        elif isinstance(msg, FragReadResp):
            pend = self._pending.get(msg.opid)
            if pend is None:
                return
            pend.responses[src] = {t: np.asarray(v) for t, v in msg.versions}
            self._try_complete(pend)
        else:
            super().on_protocol_message(src, msg)

    def _recheck_pending(self, obj: int) -> None:
        for pend in list(self._pending.values()):
            if pend.obj == obj:
                self._try_complete(pend)

    def _try_complete(self, pend: _PendingFragRead) -> None:
        """Decode once k servers share a version (highest such version)."""
        if len(pend.responses) < self.k - 1:
            return
        holders: dict[Tag, dict[int, np.ndarray]] = {}
        own = self.store[pend.obj]
        for tag, sym in own.items():
            holders.setdefault(tag, {})[self.node_id] = sym
        for server, versions in pend.responses.items():
            for tag, sym in versions.items():
                holders.setdefault(tag, {})[server] = sym.reshape(1, self.frag_len)
        candidates = [t for t, h in holders.items() if len(h) >= self.k]
        if candidates:
            tag = max(candidates)
            symbols = holders[tag]
            chosen = dict(list(symbols.items())[: self.k])
            value = self._decode(chosen)
            self._pending.pop(pend.opid, None)
            self._read_return(pend.client, pend.opid, value, tag)
        elif not own and not any(pend.responses.values()):
            # nothing written anywhere yet: the initial value
            self._pending.pop(pend.opid, None)
            self._read_return(
                pend.client, pend.opid,
                self.frag_code.field.zeros(self.value_len), self.zero,
            )
        # else: wait for more fragment updates to propagate

    def _decode(self, symbols: dict[int, np.ndarray]) -> np.ndarray:
        # recover all k fragments with one batched field-matmul
        frags = self.frag_code.decode_many(range(self.k), symbols)
        if frags is None:  # pragma: no cover - callers pass k MDS symbols
            raise ValueError("provided symbols do not recover all fragments")
        return np.concatenate(frags)

    def stored_values(self) -> float:
        """Object-value equivalents held: K/k in steady state."""
        return self.num_objects / self.k


class IntraObjectCluster(Cluster):
    """An intra-object erasure-coded store with an (N, k) MDS code."""

    def __init__(
        self,
        num_servers: int,
        num_objects: int,
        k: int,
        value_len: int | None = None,
        field: Field | None = None,
        latency: LatencyModel | None = None,
        rtt: np.ndarray | None = None,
        seed: int = 0,
        cost_model: CostModel | None = None,
    ):
        super().__init__(num_servers, latency=latency, seed=seed)
        field = field or default_field()
        value_len = value_len or k
        if value_len % k:
            raise ValueError("value_len must be divisible by k")
        self.num_objects = num_objects
        self.value_len = value_len
        self.k = k
        self.frag_code = reed_solomon_code(
            field, num_servers, k, value_len=value_len // k
        )
        self.servers = [
            IntraObjectServer(
                i, self.scheduler, self.network, num_servers, num_objects,
                self.frag_code, value_len, rtt, cost_model,
            )
            for i in range(num_servers)
        ]
