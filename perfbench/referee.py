"""Expected outputs, computed without simred's engine or partition code.

LTS outputs come from a vectorized greatest fixpoint over the input text
itself; tree-automaton outputs come from the brute-force oracle.  The
referee is run untimed, once per input.
"""

from __future__ import annotations

import numpy as np


def parse_triples(text: str):
    """State names and per-label (src, dst) id arrays of an LTS text file."""
    ids: dict[str, int] = {}
    labels: dict[str, list] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        src, label, dst = line.split()
        u = ids.setdefault(src, len(ids))
        w = ids.setdefault(dst, len(ids))
        labels.setdefault(label, []).append((u, w))
    names = sorted(ids, key=ids.get)
    edges = {a: np.array(sorted(set(e)), dtype=np.int64) for a, e in labels.items()}
    return names, ids, edges


def closure(n: int, pairs: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of the (u, v) pairs on n states.

    Row u holds the states u reaches, as packed bits; every pair (u, v)
    ORs row v into row u until nothing changes.
    """
    reach = np.packbits(np.eye(n, dtype=bool), axis=1)
    if len(pairs):
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        srcs, starts = np.unique(pairs[:, 0], return_index=True)
        dsts = pairs[:, 1]
        while True:
            merged = reach[srcs] | np.bitwise_or.reduceat(reach[dsts], starts, axis=0)
            if np.array_equal(merged, reach[srcs]):
                break
            reach[srcs] = merged
    return np.unpackbits(reach, axis=1, count=n).astype(bool)


def max_simulation(n: int, edges: dict, init: np.ndarray) -> np.ndarray:
    """Greatest simulation inside ``init``.

    (u, v) survives iff every a-successor of u is related to some
    a-successor of v.  Per label, only rows of states with an a-edge can
    lose pairs, and such a row loses every column of a state without one.
    """
    rel = init.copy()
    groups = []
    for pairs in edges.values():
        srcs, starts = np.unique(pairs[:, 0], return_index=True)
        dsts = pairs[:, 1]
        rel[np.ix_(srcs, np.setdiff1d(np.arange(n), srcs))] = False
        groups.append((srcs, starts, dsts))
    changed = True
    while changed:
        changed = False
        for srcs, starts, dsts in groups:
            # reach[x, j]: dsts[x] is related to some a-successor of srcs[j]
            reach = np.logical_or.reduceat(rel[np.ix_(dsts, dsts)], starts, axis=1)
            bad = np.logical_or.reduceat(~reach, starts, axis=0)
            block = rel[np.ix_(srcs, srcs)]
            if (block & bad).any():
                rel[np.ix_(srcs, srcs)] = block & ~bad
                changed = True
    return rel


def relation_text(names, rel: np.ndarray) -> str:
    lines = sorted(f"{names[u]} {names[v]}" for u, v in zip(*np.nonzero(rel)))
    return "\n".join(lines) + "\n" if lines else ""


def sim_lts_output(lts_text: str) -> str:
    """Expected ``sim-lts FILE`` output (pairs format, full initial relation)."""
    names, _, edges = parse_triples(lts_text)
    n = len(names)
    return relation_text(names, max_simulation(n, edges, np.ones((n, n), dtype=bool)))


def minimize_output(lts_text: str, gen_text: str) -> tuple[str, str]:
    """Expected ``minimize FILE --init GEN --closure -o OUT`` file and stdout."""
    names, ids, edges = parse_triples(lts_text)
    n = len(names)
    gen = [[ids[name] for name in line.split()] for line in gen_text.splitlines() if line.strip()]
    rel = max_simulation(n, edges, closure(n, np.array(gen, dtype=np.int64).reshape(-1, 2)))
    equiv = rel & rel.T
    block_name = [min(names[v] for v in np.flatnonzero(equiv[u])) for u in range(n)]
    lines = {f"{block_name[u]} {label} {block_name[w]}"
             for label, pairs in edges.items() for u, w in pairs}
    return "".join(line + "\n" for line in sorted(lines)), f"{n} {len(set(block_name))}\n"


def ta_up_output(ta) -> str:
    """Expected ``ta-up FILE`` output, from the brute-force oracle."""
    from simred.oracle import downward_naive, upward_naive

    up = upward_naive(ta, downward_naive(ta))
    return relation_text(ta.state_names, up.matrix)
