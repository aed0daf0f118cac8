"""Seeded inputs for the three workloads.

Every input is a pure function of (workload, benchmark seed, input index).
The program only ever sees the files written from these texts; pins.json
records the parameters below and the digests of the inputs they give.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from simred.generate import random_lts, random_ta
from simred.lts import serialize_lts
from simred.tree import serialize_timbuk

# The paper's alphabet-sweep point with the costliest OLRT loop.
LOOP_PARAMS = dict(n_states=1000, n_symbols=4, n_edges=4000, sparsity=0.25)
# Kernel of the planted-clone LTS; each kernel state gets 3 to 5 clones.
MINIMIZE_PARAMS = dict(n_states=600, n_symbols=32, n_edges=2400, sparsity=0.1, clones=[3, 5])
# The random_ta(200, 6, 3, 2000) family at 100 states, so that a run holds
# a dozen ops; generator seeds are skipped until the rank multiset equals
# that of random_ta(200, 6, 3, 2000, seed=0), so every input has one shape.
TA_PARAMS = dict(n_states=100, n_symbols=6, max_rank=3, n_rules=1000, ranks=[0, 1, 1, 2, 2, 3])

# Ops cycle through this many inputs per run.  The planted-clone referee is
# the slowest, so lts-minimize reuses inputs; the others never repeat.
POOL = {"lts-loop": 64, "lts-minimize": 8, "ta-up": 64}
# Every run regenerates this seed's first input and checks its pinned digest.
CANARY_SEED = 0


def params(workload: str) -> dict:
    p = {"lts-loop": LOOP_PARAMS, "lts-minimize": MINIMIZE_PARAMS, "ta-up": TA_PARAMS}[workload]
    return {"generator": p, "pool": POOL[workload]}


@dataclass
class Input:
    gen_seed: int
    files: dict = field(default_factory=dict)  # file name -> text, main input first
    work: int = 0  # transitions (LTS) or rules (tree automaton)
    ta: object = None
    dir: Path | None = None  # where the files were written

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def _gen_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def loop_input(seed: int, index: int) -> Input:
    p = LOOP_PARAMS
    g = _gen_seed(seed, index)
    lts = random_lts(
        p["n_states"], p["n_symbols"], n_edges=p["n_edges"], sparsity=p["sparsity"], seed=g
    )
    return Input(g, {"in.lts": serialize_lts(lts)}, lts.transition_count)


def minimize_input(seed: int, index: int) -> Input:
    """A random kernel LTS whose states are each cloned 3-5 times.

    Each clone of u gets, for every kernel edge (u, a, w), one a-edge to a
    random clone of w, so all clones of a state are bisimilar.  The initial
    relation lists generating pairs only: a cycle through each clone class,
    plus one clone pair per cover of the strict subset order on kernel
    out-label sets.  ``--closure`` completes it to a preorder.
    """
    p = MINIMIZE_PARAMS
    g = _gen_seed(seed, index)
    kernel = random_lts(
        p["n_states"], p["n_symbols"], n_edges=p["n_edges"], sparsity=p["sparsity"], seed=g
    )
    rng = np.random.default_rng([g, 1])
    k = kernel.state_count
    lo, hi = p["clones"]
    counts = rng.integers(lo, hi + 1, size=k)
    clones = [[f"k{u}c{j}" for j in range(counts[u])] for u in range(k)]
    sym = kernel.symbol_names
    lines = []
    labels = np.zeros((k, kernel.symbol_count), dtype=bool)
    for u, a, w in kernel.transitions():
        labels[u, a] = True
        picks = rng.integers(0, counts[w], size=counts[u])
        lines.extend(f"{c} {sym[a]} {clones[w][j]}" for c, j in zip(clones[u], picks))
    present = {tok for line in lines for tok in line.split()[::2]}

    gen = []
    for u in range(k):
        cls = [c for c in clones[u] if c in present]
        gen.extend(f"{cls[j]} {cls[(j + 1) % len(cls)]}" for j in range(len(cls)) if len(cls) > 1)
    lf = labels.astype(np.float32)
    subset = (lf @ (1.0 - lf).T) < 0.5  # labels(u) within labels(v)
    strict = subset & ~subset.T
    sf = strict.astype(np.float32)
    cover = strict & ~((sf @ sf) > 0.5)
    for u, v in zip(*np.nonzero(cover)):
        cu = [c for c in clones[u] if c in present]
        cv = [c for c in clones[v] if c in present]
        if cu and cv:
            gen.append(f"{cu[rng.integers(len(cu))]} {cv[rng.integers(len(cv))]}")
    files = {"in.lts": "".join(line + "\n" for line in sorted(lines)),
             "gen.rel": "".join(line + "\n" for line in gen)}
    return Input(g, files, len(lines))


def ta_input(seed: int, index: int) -> Input:
    p = TA_PARAMS
    shape = (p["n_states"], p["n_symbols"], p["max_rank"])
    g = _gen_seed(seed, index) * 100
    # random_ta draws the ranks first, so a rule-less call shows them cheaply
    while sorted(random_ta(*shape, 0, seed=g).ranks) != p["ranks"]:
        g += 1
    ta = random_ta(*shape, p["n_rules"], seed=g)
    return Input(g, {"in.tmb": serialize_timbuk(ta)}, len(ta.rules), ta)


MAKERS = {"lts-loop": loop_input, "lts-minimize": minimize_input, "ta-up": ta_input}
