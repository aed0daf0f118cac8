"""Seeded random instance generators for tests and benchmarks.

All generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import numpy as np

from .lts import Lts
from .relation import StateRelation
from .tree import TreeAutomaton, _trusted_ta

__all__ = ["random_lts", "random_preorder", "random_ta", "menu_size"]


def menu_size(n_symbols: int, sparsity: float) -> int:
    """Per-state alphabet size implied by a sparsity fraction (at least 1)."""
    return max(1, round(sparsity * n_symbols))


def random_lts(
    n_states: int,
    n_symbols: int,
    *,
    edge_prob: float | None = None,
    n_edges: int | None = None,
    sparsity: float = 1.0,
    seed: int = 0,
) -> Lts:
    """Random LTS: each state draws a symbol menu of size sparsity*|symbols|,
    then edges are drawn per (state, menu symbol, target) with ``edge_prob``,
    or approximately ``n_edges`` edges are sampled uniformly over menus.
    """
    if n_states < 1 or n_symbols < 1:
        raise ValueError("need at least one state and one symbol")
    if (edge_prob is None) == (n_edges is None):
        raise ValueError("exactly one of edge_prob and n_edges is required")
    if edge_prob is not None and not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be within [0,1]")
    if n_edges is not None and n_edges < 0:
        raise ValueError("n_edges must be nonnegative")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must be within (0,1]")

    rng = np.random.default_rng(seed)
    menu = menu_size(n_symbols, sparsity)
    menus = np.stack(
        [rng.choice(n_symbols, size=menu, replace=False) for _ in range(n_states)]
    )

    triples: set[tuple[int, int, int]] = set()
    if edge_prob is not None:
        for u in range(n_states):
            for a in sorted(int(x) for x in menus[u]):
                hits = np.flatnonzero(rng.random(n_states) < edge_prob)
                for w in hits:
                    triples.add((u, a, int(w)))
    else:
        srcs = rng.integers(0, n_states, size=n_edges)
        picks = rng.integers(0, menu, size=n_edges)
        dsts = rng.integers(0, n_states, size=n_edges)
        for u, k, w in zip(srcs, picks, dsts):
            triples.add((int(u), int(menus[u][k]), int(w)))

    state_names = [f"s{i}" for i in range(n_states)]
    symbol_names = [f"a{i}" for i in range(n_symbols)]
    return Lts.from_ids(state_names, symbol_names, sorted(triples))


def random_preorder(n: int, *, edge_prob: float = 0.3, seed: int = 0) -> StateRelation:
    """Reflexive-transitive closure of a random digraph on n states."""
    rng = np.random.default_rng(seed)
    base = StateRelation(rng.random((n, n)) < edge_prob)
    return base.reflexive_transitive_closure()


def random_ta(
    n_states: int,
    n_symbols: int,
    max_rank: int,
    n_rules: int,
    *,
    final_prob: float = 0.5,
    seed: int = 0,
) -> TreeAutomaton:
    """Random bottom-up tree automaton with explicit, seeded parameters."""
    if n_states < 1 or n_symbols < 1 or max_rank < 0 or n_rules < 0:
        raise ValueError("invalid tree automaton parameters")
    if not 0.0 <= final_prob <= 1.0:
        raise ValueError("final_prob must be within [0,1]")
    rng = np.random.default_rng(seed)
    ranks = [int(r) for r in rng.integers(0, max_rank + 1, size=n_symbols)]
    rules = set()
    for _ in range(n_rules):
        sym = int(rng.integers(0, n_symbols))
        lhs = tuple(int(q) for q in rng.integers(0, n_states, size=ranks[sym]))
        tgt = int(rng.integers(0, n_states))
        rules.add((lhs, sym, tgt))
    finals = [q for q in range(n_states) if rng.random() < final_prob]
    states, symbols = [f"q{i}" for i in range(n_states)], [f"f{i}" for i in range(n_symbols)]
    return _trusted_ta(states, symbols, ranks, rules, finals)
