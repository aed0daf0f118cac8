"""Brute-force fixpoint oracles used as ground truth in tests.

Everything here is written in plain delete-and-sweep style on purpose and
shares no code with the refinement engines; independence is the point.  The
LTS oracle reads only ``Lts.transitions()``, not the CSR arrays the engines
use.  Intended for small inputs only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import Lts
from .relation import StateRelation

__all__ = ["OracleResult", "max_simulation_naive", "downward_naive", "upward_naive"]


@dataclass
class OracleResult:
    relation: StateRelation
    rounds: int


def _sweep_indices(n: int, reverse: bool):
    idx = range(n)
    return reversed(idx) if reverse else idx


def max_simulation_naive(lts: Lts, init: StateRelation, reverse_sweep: bool = False) -> OracleResult:
    """Greatest simulation contained in the preorder ``init``.

    Repeatedly deletes any pair (u,v) where some move of u has no matching
    move of v, until a full sweep deletes nothing.  The sweep order is
    row-major (or reversed when ``reverse_sweep`` is set); the greatest
    fixpoint does not depend on it.
    """
    if init.size != lts.state_count:
        raise ValueError("initial relation size does not match state count")
    init.require_preorder("initial relation")
    m = init.matrix.copy()
    n = lts.state_count
    succ = [[[] for _ in range(lts.symbol_count)] for _ in range(n)]
    for u, a, w in lts.transitions():
        succ[u][a].append(w)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for u in _sweep_indices(n, reverse_sweep):
            for v in _sweep_indices(n, reverse_sweep):
                if not m[u, v]:
                    continue
                for targets_u, targets_v in zip(succ[u], succ[v]):
                    for u2 in targets_u:
                        if not any(m[u2, v2] for v2 in targets_v):
                            m[u, v] = False
                            changed = True
                            break
                    if not m[u, v]:
                        break
    return OracleResult(StateRelation(m), rounds)


def downward_naive(ta, init: StateRelation | None = None) -> StateRelation:
    """Maximal downward simulation on a tree automaton inside ``init``
    (default: the full relation), by deletion to fixpoint from ``init``.

    (q,r) survives iff every rule with target q is matched by a rule with
    target r, the same symbol, and componentwise surviving left-hand sides.
    """
    nq = ta.state_count
    m = StateRelation.full(nq).matrix if init is None else init.matrix.copy()
    if m.shape != (nq, nq):
        raise ValueError("initial relation size does not match state count")
    by_target: dict[int, list] = {}
    for lhs, sym, tgt in ta.rules:
        by_target.setdefault(tgt, []).append((lhs, sym))
    changed = True
    while changed:
        changed = False
        for q in range(nq):
            for r in range(nq):
                if not m[q, r]:
                    continue
                for lhs, sym in by_target.get(q, ()):
                    ok = any(
                        sym2 == sym
                        and len(lhs2) == len(lhs)
                        and all(m[a, b] for a, b in zip(lhs, lhs2))
                        for lhs2, sym2 in by_target.get(r, ())
                    )
                    if not ok:
                        m[q, r] = False
                        changed = True
                        break
    return StateRelation(m)


def upward_naive(ta, d: StateRelation) -> StateRelation:
    """Maximal upward simulation induced by the downward-simulation preorder ``d``.

    (q,r) survives iff q final implies r final, and every rule with q at some
    position i is matched by a rule with r at position i, the same symbol,
    upward-related targets and d-related states at the other positions.
    """
    nq = ta.state_count
    if d.size != nq:
        raise ValueError("downward relation size does not match state count")
    dm = d.matrix
    m = StateRelation.full(nq).matrix
    for q in range(nq):
        for r in range(nq):
            if q in ta.finals and r not in ta.finals:
                m[q, r] = False
    occurrences: dict[int, list] = {}
    for lhs, sym, tgt in ta.rules:
        for i, q in enumerate(lhs):
            occurrences.setdefault(q, []).append((lhs, i, sym, tgt))
    changed = True
    while changed:
        changed = False
        for q in range(nq):
            for r in range(nq):
                if not m[q, r]:
                    continue
                for lhs, i, sym, tgt in occurrences.get(q, ()):
                    ok = any(
                        sym2 == sym
                        and i2 == i
                        and len(lhs2) == len(lhs)
                        and m[tgt, tgt2]
                        and all(
                            dm[lhs[k], lhs2[k]] for k in range(len(lhs)) if k != i
                        )
                        for lhs2, i2, sym2, tgt2 in occurrences.get(r, ())
                    )
                    if not ok:
                        m[q, r] = False
                        changed = True
                        break
    return StateRelation(m)

