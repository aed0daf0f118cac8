"""Bottom-up tree automata, Timbuk-style text I/O, and the reductions of
downward/upward simulation to LTS simulation problems.

The downward reduction adds one LTS state per automaton state and per
distinct rule left-hand side; the upward reduction adds one per automaton
state and per distinct environment (a rule with one left-hand-side position
replaced by a hole).  Position labels form their own id range after the
ranked alphabet, so they can never collide with user symbols.

Each translation also returns the coarsest partition-relation pair of its
initial preorder, built from one block label per LTS state without an n x n
matrix; the engines take it like any other initial pair, and OLRT intersects
it with the output preorder itself.  The simulations return the engine's
pair restricted to the automaton states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lts import IDENTIFIER_RE, Lts
from .partition import PartitionRelationPair, _trusted_pair, coarsest_pair
from .relation import RelationError, StateRelation

__all__ = [
    "TreeError",
    "TimbukParseError",
    "TreeAutomaton",
    "Environment",
    "TranslationResult",
    "parse_timbuk",
    "serialize_timbuk",
    "lhs_and_envs",
    "downward_translation",
    "upward_translation",
    "downward_simulation",
    "upward_simulation",
    "ta_quotient",
]

HOLE = "□"  # printed in environment descriptions


class TreeError(ValueError):
    pass


class TimbukParseError(TreeError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, order=True)
class Environment:
    """A rule with one left-hand-side position replaced by a hole.

    ``others`` lists the remaining left-hand-side states in order (the hole
    position omitted).  Environments are values: identical tuples arising
    from different rules coincide.
    """

    symbol: int
    hole: int
    others: tuple
    target: int

    @property
    def arity(self) -> int:
        return len(self.others) + 1

    def describe(self, ta: "TreeAutomaton") -> str:
        slots = [ta.state_names[q] for q in self.others]
        slots.insert(self.hole, HOLE)
        return f"{ta.symbol_names[self.symbol]}({','.join(slots)})->{ta.state_names[self.target]}"


class TreeAutomaton:
    """Bottom-up tree automaton over a ranked alphabet.

    Rules are (lhs state tuple, symbol id, target id) with the lhs length
    equal to the symbol's rank.  The constructor checks names, ranks and ids
    and raises :class:`TreeError`; :func:`parse_timbuk`, :func:`ta_quotient`
    and ``generate.random_ta`` build automata that are valid by construction
    and check nothing.
    """

    __slots__ = ("state_names", "symbol_names", "ranks", "rules", "finals", "_state_ids")

    def __init__(self, state_names, symbol_names, ranks, rules, finals):
        state_names, symbol_names = tuple(state_names), tuple(symbol_names)
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != len(symbol_names):
            raise TreeError("one rank per symbol required")
        if len(set(state_names)) != len(state_names):
            raise TreeError("duplicate state names")
        if len(set(symbol_names)) != len(symbol_names):
            raise TreeError("duplicate symbol names")
        nq = len(state_names)
        norm = []
        for lhs, sym, tgt in rules:
            lhs = tuple(int(q) for q in lhs)
            sym, tgt = int(sym), int(tgt)
            if not 0 <= sym < len(symbol_names):
                raise TreeError(f"symbol id {sym} out of range")
            if len(lhs) != ranks[sym]:
                raise TreeError(
                    f"rule lhs length {len(lhs)} does not match rank "
                    f"{ranks[sym]} of {symbol_names[sym]!r}"
                )
            for q in lhs + (tgt,):
                if not 0 <= q < nq:
                    raise TreeError(f"state id {q} out of range")
            norm.append((lhs, sym, tgt))
        finals = frozenset(int(q) for q in finals)
        if not finals <= set(range(nq)):
            raise TreeError("final state id out of range")
        self._store(state_names, symbol_names, ranks, norm, finals)

    def _store(self, state_names, symbol_names, ranks, rules, finals) -> None:
        """Store valid parts; duplicate rules and finals collapse, rules sort."""
        self.state_names = tuple(state_names)
        self.symbol_names = tuple(symbol_names)
        self.ranks = tuple(ranks)
        self.rules = tuple(sorted(set(rules)))
        self.finals = frozenset(finals)
        self._state_ids = {s: i for i, s in enumerate(self.state_names)}

    @property
    def state_count(self) -> int:
        return len(self.state_names)

    @property
    def symbol_count(self) -> int:
        return len(self.symbol_names)

    @property
    def max_rank(self) -> int:
        """Largest arity occurring in the rules (0 for a rule-less automaton)."""
        return max((len(lhs) for lhs, _, _ in self.rules), default=0)

    def state_id(self, name: str) -> int:
        try:
            return self._state_ids[name]
        except KeyError:
            raise TreeError(f"unknown state {name!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeAutomaton):
            return NotImplemented

        def named(ta):
            return (
                frozenset(ta.state_names),
                frozenset(zip(ta.symbol_names, ta.ranks)),
                frozenset(
                    (
                        tuple(ta.state_names[q] for q in lhs),
                        ta.symbol_names[sym],
                        ta.state_names[tgt],
                    )
                    for lhs, sym, tgt in ta.rules
                ),
                frozenset(ta.state_names[q] for q in ta.finals),
            )

        return named(self) == named(other)

    def __hash__(self):
        raise TypeError("TreeAutomaton is not hashable")

    def __repr__(self) -> str:
        return (
            f"TreeAutomaton(states={self.state_count}, symbols={self.symbol_count}, "
            f"rules={len(self.rules)})"
        )


def _trusted_ta(state_names, symbol_names, ranks, rules, finals) -> TreeAutomaton:
    """:class:`TreeAutomaton` without the checks, for builders whose names,
    ranks and ids are valid by construction; rules are (tuple, int, int)."""
    ta = object.__new__(TreeAutomaton)
    ta._store(state_names, symbol_names, ranks, rules, finals)
    return ta


# -- Timbuk text format ------------------------------------------------------


def _tokenize(text: str):
    """Yield (token, line) pairs; ``#`` starts a comment, punctuation splits."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for ch in "(),":
            line = line.replace(ch, f" {ch} ")
        line = line.replace("->", " -> ")
        for tok in line.split():
            yield tok, lineno


def parse_timbuk(text: str) -> TreeAutomaton:
    """Parse the Timbuk-style format (Ops / Automaton / States / Final States /
    Transitions)."""
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise TimbukParseError(tokens[-1][1] if tokens else 1, "unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(word):
        tok, line = take()
        if tok != word:
            raise TimbukParseError(line, f"expected {word!r}, got {tok!r}")
        return line

    expect("Ops")
    ranks: dict[str, int] = {}  # operator name -> rank, in declaration order
    while peek() is not None and peek() != "Automaton":
        tok, line = take()
        if ":" not in tok:
            raise TimbukParseError(line, f"expected name:rank, got {tok!r}")
        name, _, rank = tok.partition(":")
        if not IDENTIFIER_RE.match(name) or not rank.isdigit():
            raise TimbukParseError(line, f"malformed operator declaration {tok!r}")
        if name in ranks:
            raise TimbukParseError(line, f"duplicate operator {name!r}")
        ranks[name] = int(rank)
    if peek() is None:
        raise TimbukParseError(tokens[-1][1] if tokens else 1, "missing Automaton section")
    expect("Automaton")
    _, _ = take()  # automaton name, unused beyond syntax

    expect("States")
    state_ids: dict[str, int] = {}
    while peek() is not None and peek() != "Final":
        tok, line = take()
        if not IDENTIFIER_RE.match(tok):
            raise TimbukParseError(line, f"invalid state name {tok!r}")
        if tok in state_ids:
            raise TimbukParseError(line, f"duplicate state {tok!r}")
        state_ids[tok] = len(state_ids)
    if peek() is None:
        raise TimbukParseError(tokens[-1][1], "missing Final States section")
    expect("Final")
    expect("States")
    finals: list[int] = []
    while peek() is not None and peek() != "Transitions":
        tok, line = take()
        if tok not in state_ids:
            raise TimbukParseError(line, f"undeclared state {tok!r}")
        finals.append(state_ids[tok])
    if peek() is None:
        raise TimbukParseError(tokens[-1][1], "missing Transitions section")
    expect("Transitions")

    symbol_ids = {s: i for i, s in enumerate(ranks)}
    rules = []
    while pos < len(tokens):
        tok, line = take()
        if tok not in symbol_ids:
            raise TimbukParseError(line, f"undeclared symbol {tok!r}")
        lhs: list[int] = []
        if peek() == "(":
            take()
            while peek() != ")":
                if peek() is None:
                    raise TimbukParseError(line, "unterminated argument list")
                arg, argline = take()
                if arg == ",":
                    continue
                if arg not in state_ids:
                    raise TimbukParseError(argline, f"undeclared state {arg!r}")
                lhs.append(state_ids[arg])
            take()  # ')'
        expect("->")
        tgt_tok, tgt_line = take()
        if tgt_tok not in state_ids:
            raise TimbukParseError(tgt_line, f"undeclared state {tgt_tok!r}")
        if len(lhs) != ranks[tok]:
            raise TimbukParseError(
                line,
                f"arity mismatch: {tok!r} has rank {ranks[tok]}, rule has {len(lhs)} arguments",
            )
        rules.append((tuple(lhs), symbol_ids[tok], state_ids[tgt_tok]))

    return _trusted_ta(state_ids, ranks, ranks.values(), rules, finals)


def serialize_timbuk(ta: TreeAutomaton, name: str = "A") -> str:
    """Canonical text form: operators, states and rules each sorted by name."""
    ops = sorted(zip(ta.symbol_names, ta.ranks))
    states = sorted(ta.state_names)
    finals = sorted(ta.state_names[q] for q in ta.finals)
    rule_lines = sorted(
        "{}({}) -> {}".format(
            ta.symbol_names[sym],
            ",".join(ta.state_names[q] for q in lhs),
            ta.state_names[tgt],
        )
        for lhs, sym, tgt in ta.rules
    )
    lines = [
        "Ops " + " ".join(f"{s}:{r}" for s, r in ops),
        f"Automaton {name}",
        "States " + " ".join(states),
        "Final States " + " ".join(finals),
        "Transitions",
    ]
    lines.extend(rule_lines)
    return "\n".join(lines) + "\n"


# -- left-hand sides and environments ----------------------------------------


def lhs_and_envs(ta: TreeAutomaton):
    """Deduplicated left-hand sides and environments of all rules.

    Nullary rules contribute the empty left-hand side and no environments.
    Both results are sorted for deterministic downstream ids.
    """
    lhs_set = set()
    env_set = set()
    for lhs, sym, tgt in ta.rules:
        lhs_set.add(lhs)
        for i in range(len(lhs)):
            env_set.add((sym, i, lhs[:i] + lhs[i + 1 :], tgt))
    # field tuples sort as the dataclasses would, without Python-level compares
    envs = tuple(Environment(*fields) for fields in sorted(env_set))
    return tuple(sorted(lhs_set, key=lambda l: (len(l), l))), envs


@dataclass
class TranslationResult:
    """An LTS encoding of a tree-automaton simulation problem.

    ``initial`` is the coarsest pair of the reduction's initial preorder I,
    which both engines take as given: OLRT intersects it with the output
    preorder itself, LRT refines it as it is.  Automaton states keep their
    ids, so they come first and the result pair restricts to them;
    ``back_map`` tags every LTS state with its source: ("state", q),
    ("lhs", tuple) or ("env", Environment).
    """

    lts: Lts
    initial: PartitionRelationPair
    back_map: tuple


def downward_translation(
    ta: TreeAutomaton, initial: PartitionRelationPair | None = None
) -> TranslationResult:
    """LTS encoding of the downward simulation problem inside ``initial``,
    a pair over the automaton states (default: the full relation).

    Every rule (q1..qn, f, q) yields an f-edge from q to the left-hand-side
    node and a position-i edge from that node to each qi.  The initial pair
    is ``initial`` plus one block of all left-hand-side nodes, related to no
    state block: state pairs depend only on node pairs and node pairs only
    on state pairs, so no pair across the two kinds matters.
    """
    lhs_list, _ = lhs_and_envs(ta)
    lhs_ids = {l: i for i, l in enumerate(lhs_list)}
    nq = ta.state_count
    if initial is None:
        initial = PartitionRelationPair.full(nq)
    elif initial.state_count != nq:
        raise TreeError("initial pair does not cover the automaton's states")

    m = ta.symbol_count
    triples = set()
    for lhs, sym, tgt in ta.rules:
        lnode = nq + lhs_ids[lhs]
        triples.add((tgt, sym, lnode))
        for i, qi in enumerate(lhs):
            triples.add((lnode, m + i, qi))
    names = ["(" + ",".join(ta.state_names[q] for q in l) + ")" for l in lhs_list]
    k = min(len(lhs_list), 1)
    lhs_block = np.zeros(len(lhs_list), dtype=np.int64), np.ones((k, k), dtype=bool)
    return _translation(
        ta, "lhs", lhs_list, names, triples, (initial.block_of, initial.rel), lhs_block
    )


def upward_translation(ta: TreeAutomaton, d: StateRelation) -> TranslationResult:
    """LTS encoding of the upward simulation problem induced by the downward
    preorder ``d``, which is checked to be a preorder here.

    Every rule t = (q1..qn, f, q) yields, for each position i, an i-edge from
    qi to the environment t(i) and an f-edge from t(i) to q.  The initial
    preorder relates automaton states by final-state implication and
    environments with the same symbol and hole position whose remaining
    states are componentwise d-related; it never relates the two kinds.
    Its coarsest pair has at most two state blocks (non-final below final)
    and one environment block per (symbol, hole, d-classes of the others).
    """
    try:
        d_pair = coarsest_pair(d)
    except RelationError as exc:
        raise TreeError(f"downward relation rejected: {exc}") from None
    return _upward_translation(ta, d_pair)


def _upward_translation(ta: TreeAutomaton, d: PartitionRelationPair) -> TranslationResult:
    """:func:`upward_translation` from the coarsest pair of ``d``."""
    if d.state_count != ta.state_count:
        raise TreeError("downward relation size does not match state count")
    _, envs = lhs_and_envs(ta)
    env_ids = {(e.symbol, e.hole, e.others, e.target): i for i, e in enumerate(envs)}
    nq = ta.state_count
    m = ta.symbol_count
    triples = set()
    for lhs, sym, tgt in ta.rules:
        for i, qi in enumerate(lhs):
            enode = nq + env_ids[sym, i, lhs[:i] + lhs[i + 1 :], tgt]
            triples.add((qi, m + i, enode))
            triples.add((enode, sym, tgt))

    # automaton states: one block per final flag that occurs, non-final below final
    is_final = np.zeros(nq, dtype=bool)
    is_final[sorted(ta.finals)] = True
    flags, flag_of = np.unique(is_final, return_inverse=True)
    state_rel = ~flags[:, None] | flags[None, :]

    # environments: one block per (symbol, hole, d-classes of the others)
    dclass, dc = d.block_of, d.rel
    keys = np.full((len(envs), 1 + ta.max_rank), -1, dtype=np.int64)
    for i, e in enumerate(envs):
        keys[i, :2] = e.symbol, e.hole
        keys[i, 2 : 1 + e.arity] = dclass[list(e.others)]
    ukeys, env_block = np.unique(keys, axis=0, return_inverse=True)
    # blocks of one (symbol, hole) are contiguous in the sorted keys and
    # relate iff every position's d-classes do
    env_rel = np.zeros((len(ukeys), len(ukeys)), dtype=bool)
    _, starts, sizes = np.unique(ukeys[:, :2], axis=0, return_index=True, return_counts=True)
    for s, size in zip(starts.tolist(), sizes.tolist()):
        group = ukeys[s : s + size]
        sub = np.ones((size, size), dtype=bool)
        for p in range(ta.ranks[group[0, 0]] - 1):
            cls = group[:, 2 + p]
            sub &= dc[np.ix_(cls, cls)]
        env_rel[s : s + size, s : s + size] = sub

    return _translation(
        ta, "env", envs, [e.describe(ta) for e in envs], triples,
        (flag_of.ravel(), state_rel), (env_block.ravel(), env_rel),
    )


def _translation(ta, kind, nodes, node_names, triples, states, others) -> TranslationResult:
    """The LTS on the automaton states and then ``nodes`` (tagged ``kind``),
    with the initial pair whose blocks are those of ``states`` and then
    those of ``others``, each a (labels, relation); no pair crosses them."""
    symbol_names = list(ta.symbol_names) + [f"#{i}" for i in range(1, ta.max_rank + 1)]
    lts = Lts.from_ids(list(ta.state_names) + node_names, symbol_names, list(triples))
    (labels, rel), (node_labels, node_rel) = states, others
    k, kn = len(rel), len(node_rel)
    both = np.zeros((k + kn, k + kn), dtype=bool)
    both[:k, :k] = rel
    both[k:, k:] = node_rel
    labels = np.concatenate([labels, k + node_labels])
    back_map = tuple([("state", q) for q in range(ta.state_count)] + [(kind, x) for x in nodes])
    return TranslationResult(lts, _trusted_pair(labels, both), back_map)


# -- end-to-end pipelines -----------------------------------------------------

def _run_translated(tr: TranslationResult, nq: int, algorithm: str) -> PartitionRelationPair:
    """The engine's maximal simulation, restricted to the automaton states."""
    from .engine import ENGINES  # parsing and translating need no engine

    if algorithm not in ENGINES:
        raise TreeError(f"unknown algorithm {algorithm!r}")
    pair, _ = ENGINES[algorithm](tr.lts, tr.initial)
    return pair.restrict(nq)


def downward_simulation(
    ta: TreeAutomaton,
    algorithm: str = "olrt",
    initial: PartitionRelationPair | None = None,
) -> PartitionRelationPair:
    """Coarsest pair of the maximal downward simulation on Q inside
    ``initial`` (default: the full relation), via the LTS reduction."""
    return _run_translated(downward_translation(ta, initial), ta.state_count, algorithm)


def upward_simulation(
    ta: TreeAutomaton, d: PartitionRelationPair, algorithm: str = "olrt"
) -> PartitionRelationPair:
    """Coarsest pair of the maximal upward simulation induced by the
    downward preorder whose coarsest pair is ``d``, via the LTS reduction."""
    return _run_translated(_upward_translation(ta, d), ta.state_count, algorithm)


def ta_quotient(ta: TreeAutomaton, pair: PartitionRelationPair) -> TreeAutomaton:
    """Collapse each block of ``pair`` to one state; blocks are named after
    their lexicographically least member."""
    if pair.state_count != ta.state_count:
        raise TreeError("partition does not cover the automaton's states")
    block_of = pair.block_of.tolist()
    names = [min(ta.state_names[q] for q in m.tolist()) for m in pair.members]
    rules = {(tuple(block_of[q] for q in lhs), s, block_of[t]) for lhs, s, t in ta.rules}
    finals = {block_of[q] for q in ta.finals}
    return _trusted_ta(names, ta.symbol_names, ta.ranks, rules, finals)
