"""Labeled transition systems with dense state and symbol ids.

States and symbols are interned to dense integers when the system is built;
all per-symbol adjacency is kept both forward and reverse so that successor
and predecessor queries are direct lookups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .relation import StateRelation

__all__ = [
    "LtsError",
    "LtsParseError",
    "Lts",
    "InOutSets",
    "build_lts",
    "in_out_sets",
    "out_preorder",
    "is_simulation",
    "quotient",
    "parse_lts",
    "serialize_lts",
    "parse_relation",
    "serialize_relation",
]

IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class LtsError(ValueError):
    pass


class LtsParseError(LtsError):
    """Text input could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Lts:
    """Immutable labeled transition system.

    ``succ[a][u]`` is the frozen set of a-successors of u and ``pred[a][w]``
    the frozen set of a-predecessors of w; the two views are kept consistent
    by construction.
    """

    __slots__ = ("state_names", "symbol_names", "succ", "pred", "_state_ids", "_symbol_ids")

    def __init__(self, state_names, symbol_names, succ, pred):
        self.state_names = tuple(state_names)
        self.symbol_names = tuple(symbol_names)
        self.succ = succ
        self.pred = pred
        self._state_ids = {name: i for i, name in enumerate(self.state_names)}
        self._symbol_ids = {name: i for i, name in enumerate(self.symbol_names)}
        if len(self._state_ids) != len(self.state_names):
            raise LtsError("duplicate state names")
        if len(self._symbol_ids) != len(self.symbol_names):
            raise LtsError("duplicate symbol names")

    @classmethod
    def from_ids(cls, state_names, symbol_names, transitions) -> "Lts":
        """Build from (src_id, symbol_id, dst_id) triples; duplicates collapse."""
        n, m = len(state_names), len(symbol_names)
        succ_sets = [dict() for _ in range(m)]
        pred_sets = [dict() for _ in range(m)]
        for u, a, w in transitions:
            if not (0 <= u < n and 0 <= w < n):
                raise LtsError(f"state id out of range in transition ({u},{a},{w})")
            if not 0 <= a < m:
                raise LtsError(f"symbol id out of range in transition ({u},{a},{w})")
            succ_sets[a].setdefault(u, set()).add(w)
            pred_sets[a].setdefault(w, set()).add(u)
        succ = tuple({u: frozenset(s) for u, s in d.items()} for d in succ_sets)
        pred = tuple({w: frozenset(s) for w, s in d.items()} for d in pred_sets)
        return cls(state_names, symbol_names, succ, pred)

    @property
    def state_count(self) -> int:
        return len(self.state_names)

    @property
    def symbol_count(self) -> int:
        return len(self.symbol_names)

    @property
    def transition_count(self) -> int:
        return sum(len(s) for d in self.succ for s in d.values())

    def state_id(self, name: str) -> int:
        try:
            return self._state_ids[name]
        except KeyError:
            raise LtsError(f"unknown state {name!r}") from None

    def symbol_id(self, name: str) -> int:
        try:
            return self._symbol_ids[name]
        except KeyError:
            raise LtsError(f"unknown symbol {name!r}") from None

    def successors(self, u: int, a: int) -> frozenset:
        return self.succ[a].get(u, frozenset())

    def predecessors(self, w: int, a: int) -> frozenset:
        return self.pred[a].get(w, frozenset())

    def transitions(self):
        """Yield (src, symbol, dst) id triples in ascending order."""
        for a in range(self.symbol_count):
            for u in sorted(self.succ[a]):
                for w in sorted(self.succ[a][u]):
                    yield u, a, w

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lts):
            return NotImplemented
        return (
            self.state_names == other.state_names
            and self.symbol_names == other.symbol_names
            and self.succ == other.succ
        )

    def __hash__(self):
        raise TypeError("Lts is not hashable")

    def __repr__(self) -> str:
        return (
            f"Lts(states={self.state_count}, symbols={self.symbol_count}, "
            f"transitions={self.transition_count})"
        )


def build_lts(transitions, states=(), symbols=()) -> Lts:
    """Intern names and build an :class:`Lts` from (src, label, dst) name triples.

    Dense ids are assigned in first-appearance order, with explicitly declared
    ``states``/``symbols`` interned first.  Duplicate transitions collapse.
    """
    state_names: list[str] = []
    symbol_names: list[str] = []
    state_ids: dict[str, int] = {}
    symbol_ids: dict[str, int] = {}

    def intern(name, ids, names, kind):
        if not isinstance(name, str) or not name:
            raise LtsError(f"{kind} name must be a nonempty string, got {name!r}")
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    for s in states:
        intern(s, state_ids, state_names, "state")
    for s in symbols:
        intern(s, symbol_ids, symbol_names, "symbol")

    triples = []
    for src, label, dst in transitions:
        u = intern(src, state_ids, state_names, "state")
        a = intern(label, symbol_ids, symbol_names, "symbol")
        w = intern(dst, state_ids, state_names, "state")
        triples.append((u, a, w))

    if not state_names:
        raise LtsError("empty system: no transitions and no declared states")
    return Lts.from_ids(state_names, symbol_names, triples)


@dataclass(frozen=True)
class InOutSets:
    """Per-state input/output symbol sets and the per-symbol sets of emitting states.

    ``has_out[a]`` is the set of states with an outgoing a-transition.
    """

    in_syms: tuple
    out_syms: tuple
    has_out: tuple

    def block_in(self, states) -> frozenset:
        """Input symbols of a block: the union of its members' input symbols."""
        result = set()
        for v in states:
            result |= self.in_syms[v]
        return frozenset(result)


def in_out_sets(lts: Lts) -> InOutSets:
    n, m = lts.state_count, lts.symbol_count
    in_syms = [set() for _ in range(n)]
    out_syms = [set() for _ in range(n)]
    has_out = [set() for _ in range(m)]
    for a in range(m):
        for u, targets in lts.succ[a].items():
            if targets:
                out_syms[u].add(a)
                has_out[a].add(u)
        for w, sources in lts.pred[a].items():
            if sources:
                in_syms[w].add(a)
    return InOutSets(
        in_syms=tuple(frozenset(s) for s in in_syms),
        out_syms=tuple(frozenset(s) for s in out_syms),
        has_out=tuple(frozenset(s) for s in has_out),
    )


def out_preorder(lts: Lts) -> StateRelation:
    """The output preorder: (u,v) related iff out(u) is a subset of out(v)."""
    n, m = lts.state_count, lts.symbol_count
    out = np.zeros((n, m), dtype=bool)
    for a in range(m):
        for u, targets in lts.succ[a].items():
            if targets:
                out[u, a] = True
    # (u,v) fails iff u emits some symbol v does not.
    if m == 0:
        return StateRelation.full(n)
    o = out.astype(np.float32)
    bad = (o @ (1.0 - o).T) > 0.5
    return StateRelation(~bad)


def is_simulation(lts: Lts, rho: StateRelation) -> bool:
    """Check the simulation condition for every related pair directly."""
    if rho.size != lts.state_count:
        raise LtsError("relation size does not match state count")
    for u, v in rho.pairs():
        for a in range(lts.symbol_count):
            targets_v = lts.successors(v, a)
            for u2 in lts.successors(u, a):
                if not any(rho.has(u2, v2) for v2 in targets_v):
                    return False
    return True


def quotient(lts: Lts, pair) -> Lts:
    """Collapse each block of ``pair`` to one state.

    A transition (B,a,C) exists iff some member of B has an a-transition into
    C.  Block states are named after their lexicographically least member.
    """
    if pair.state_count != lts.state_count:
        raise LtsError("partition does not cover this LTS's states")
    canon = pair.canonical()
    block_names = [min(lts.state_names[v] for v in block) for block in canon.blocks]
    block_of = canon.block_of
    triples = set()
    for u, a, w in lts.transitions():
        triples.add((int(block_of[u]), a, int(block_of[w])))
    return Lts.from_ids(block_names, lts.symbol_names, sorted(triples))


# -- text formats ----------------------------------------------------------


def parse_lts(text: str) -> Lts:
    """Parse the line-based LTS format: ``SRC LABEL DST`` per line, ``#`` comments."""
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise LtsParseError(lineno, f"expected 3 tokens, got {len(tokens)}")
        for tok in tokens:
            if not IDENTIFIER_RE.match(tok):
                raise LtsParseError(lineno, f"invalid identifier {tok!r}")
        transitions.append(tuple(tokens))
    if not transitions:
        raise LtsParseError(1, "empty system: no transitions")
    return build_lts(transitions)


def serialize_lts(lts: Lts) -> str:
    lines = sorted(
        f"{lts.state_names[u]} {lts.symbol_names[a]} {lts.state_names[w]}"
        for u, a, w in lts.transitions()
    )
    return "\n".join(lines) + "\n" if lines else ""


def parse_relation(text: str, states) -> StateRelation:
    """Parse a relation file: one ``U V`` name pair per line, ``#`` comments.

    ``states`` is anything with ``state_count`` and ``state_id`` (an
    :class:`Lts` or a tree automaton).  A malformed line raises
    :class:`LtsParseError`; an unknown name re-raises the ``state_id`` error
    with the line number prefixed.
    """
    rel = StateRelation.empty(states.state_count)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise LtsParseError(lineno, f"expected 2 tokens, got {len(tokens)}")
        try:
            u = states.state_id(tokens[0])
            v = states.state_id(tokens[1])
        except ValueError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        rel.add(u, v)
    return rel


def serialize_relation(rel: StateRelation, lts: Lts) -> str:
    names = lts.state_names
    lines = sorted(f"{names[u]} {names[v]}" for u, v in rel.pairs())
    return "\n".join(lines) + "\n" if lines else ""
