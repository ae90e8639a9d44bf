"""Certificate-free causal-consistency checking via bad patterns.

For *differentiated* histories (every written value unique per object --
our drivers guarantee it), causal consistency with last-writer-wins reads
(exactly Definition 5) is decidable in polynomial time by searching for the
known bad patterns [Bouajjani, Enea, Guerraoui, Hamza, POPL'17]:

1. **ThinAirRead** -- a read returns a value never written.
2. **CyclicCO** -- the causal order (transitive closure of session order
   plus writes-into-reads) is cyclic.
3. **WriteCOInitRead** -- a read returns the initial value although some
   write to the object causally precedes it.
4. **CyclicCF** -- the conflict/arbitration constraints are cyclic: taking
   the *minimal* causal order ``co``, every read r of object X returning
   write w forces ``w' -> w`` for each other write w' to X with
   ``w' co r``; these edges plus ``co`` among writes must admit a total
   arbitration order, i.e. be acyclic.

Minimality of ``co`` is what makes this complete: any valid visibility
order contains ``co``, and enlarging visibility only adds arbitration
obligations.

This is the third, fully independent verdict on recorded executions (next
to the certificate checker and the per-session black-box checks): it reads
nothing the protocol stamps.
"""

from __future__ import annotations

import numpy as np

from .causal import CausalViolation
from .history import History, Operation

__all__ = ["check_causal_bad_patterns", "transitive_closure", "has_cycle"]


def _key(value) -> tuple:
    return tuple(np.asarray(value).ravel().tolist())


def transitive_closure(adj: np.ndarray) -> np.ndarray:
    """Boolean transitive closure (Warshall); shared with the online auditor."""
    n = adj.shape[0]
    closure = adj.copy()
    for k in range(n):
        rows = closure[:, k]
        if rows.any():
            closure[rows] |= closure[k]
    return closure


def has_cycle(adj: np.ndarray) -> bool:
    """Cycle detection by repeated removal of sink-free pruning (Kahn)."""
    n = adj.shape[0]
    indeg = adj.sum(axis=0)
    alive = np.ones(n, dtype=bool)
    queue = [i for i in range(n) if indeg[i] == 0]
    removed = 0
    while queue:
        i = queue.pop()
        alive[i] = False
        removed += 1
        for j in np.nonzero(adj[i])[0]:
            indeg[j] -= 1
            if indeg[j] == 0 and alive[j]:
                queue.append(int(j))
    return removed < n


def check_causal_bad_patterns(
    history: History,
    zero_value,
    raise_on_violation: bool = True,
) -> list[str]:
    """Search the recorded history for the four bad patterns.

    Returns violations (empty = the history is causally consistent with
    LWW reads, per Definition 5).  Incomplete reads are ignored; writes are
    always included (their effects may have been observed).
    """
    violations: list[str] = []
    zero = _key(zero_value)

    ops: list[Operation] = [
        op
        for op in history.operations
        if op.kind == "write" or op.done
    ]
    n = len(ops)
    if n == 0:
        return []
    index = {id(op): i for i, op in enumerate(ops)}

    # value attribution (differentiated-history precondition)
    writers: dict[tuple[int, tuple], int] = {}
    for i, op in enumerate(ops):
        if op.kind == "write":
            k = (op.obj, _key(op.value))
            if k in writers:
                violations.append(
                    f"precondition: duplicate value written to object "
                    f"{op.obj}"
                )
            writers[k] = i

    co = np.zeros((n, n), dtype=bool)

    # session order
    for client, session in history.by_client().items():
        prev = None
        for op in session:
            if id(op) not in index:
                continue
            cur = index[id(op)]
            if prev is not None:
                co[prev, cur] = True
            prev = cur

    # writes-into-reads + ThinAirRead
    reads_of: list[tuple[int, int | None]] = []  # (read idx, writer idx)
    for i, op in enumerate(ops):
        if op.kind != "read":
            continue
        v = _key(op.value)
        if v == zero:
            reads_of.append((i, None))
            continue
        w = writers.get((op.obj, v))
        if w is None:
            violations.append(
                f"ThinAirRead: read {op.opid} returned a value never "
                f"written to object {op.obj}"
            )
            continue
        co[w, i] = True
        reads_of.append((i, w))

    co = transitive_closure(co)

    # CyclicCO
    if bool(np.any(np.diag(co))):
        violations.append("CyclicCO: causal order is cyclic")
        if raise_on_violation:
            raise CausalViolation("\n".join(violations))
        return violations

    # conflict edges
    write_idx = [i for i, op in enumerate(ops) if op.kind == "write"]
    wpos = {w: p for p, w in enumerate(write_idx)}
    cf = np.zeros((len(write_idx), len(write_idx)), dtype=bool)
    for w1 in write_idx:
        for w2 in write_idx:
            if w1 != w2 and co[w1, w2]:
                cf[wpos[w1], wpos[w2]] = True

    for r, w in reads_of:
        obj = ops[r].obj
        preceding = [
            w2 for w2 in write_idx if ops[w2].obj == obj and co[w2, r]
        ]
        if w is None:
            if preceding:
                violations.append(
                    f"WriteCOInitRead: read {ops[r].opid} returned the "
                    f"initial value of object {obj} but write "
                    f"{ops[preceding[0]].opid} causally precedes it"
                )
            continue
        for w2 in preceding:
            if w2 != w:
                cf[wpos[w2], wpos[w]] = True

    if has_cycle(cf):
        violations.append(
            "CyclicCF: no arbitration total order satisfies the reads"
        )

    if violations and raise_on_violation:
        raise CausalViolation("\n".join(violations))
    return violations
