"""Labeled transition systems with dense state and symbol ids.

States and symbols are interned to dense integers when the system is built.
An :class:`Lts` has one representation, built once: the deduplicated
transitions as immutable id arrays sorted by (symbol, src, dst), per-symbol
forward and backward CSR offsets over them, and the derived
``out_mask``/``in_mask`` (state emits / is entered by a symbol).  Every layer
reads these arrays; nothing rebuilds adjacency.

An :class:`Lts` is checked once, where it is built: :meth:`Lts.from_ids`,
the one checked constructor, accepts only names the text formats can carry
and ids in range.  :func:`parse_lts`, :func:`quotient`,
``generate.random_lts`` and the tree translations build systems that are
valid by construction through ``_trusted_lts`` and check nothing.
"""

from __future__ import annotations

import re
from itertools import repeat

import numpy as np

from .relation import StateRelation

__all__ = [
    "LtsError",
    "LtsParseError",
    "Lts",
    "build_lts",
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _row_offsets(rows: np.ndarray, n: int, m: int):
    """Per-symbol CSR offsets for transitions grouped by symbol, then by ``rows``.

    Row ``a`` of the result indexes the symbol-``a`` slice of the data.
    """
    indptr = np.zeros((m, n + 1), dtype=np.int64)
    counts = np.bincount(rows, minlength=m * n).reshape(m, n)
    np.cumsum(counts, axis=1, out=indptr[:, 1:])
    return _frozen(indptr)


class Lts:
    """Immutable labeled transition system; build it with :meth:`from_ids`
    or :func:`build_lts`.

    ``src``/``sym``/``dst`` hold the transitions sorted by (symbol, src,
    dst).  For each symbol a, ``succ_data[a][succ_indptr[a, u]:succ_indptr[a,
    u + 1]]`` are the a-successors of u and ``pred_data[a][pred_indptr[a,
    w]:pred_indptr[a, w + 1]]`` the a-predecessors of w, both ascending.
    ``out_mask[u, a]`` (``in_mask[w, a]``) is set iff u has an outgoing
    (w an incoming) a-transition.  All arrays are read-only.
    """

    __slots__ = (
        "state_names", "symbol_names", "src", "sym", "dst",
        "succ_indptr", "succ_data", "pred_indptr", "pred_data",
        "out_mask", "in_mask", "_state_ids", "_symbol_ids",
    )

    @classmethod
    def from_ids(cls, state_names, symbol_names, transitions) -> "Lts":
        """Build from (src_id, symbol_id, dst_id) triples, given as an
        iterable or an (E, 3) array; duplicates collapse.

        The one checked constructor: every name must be a distinct ``str``
        that :data:`IDENTIFIER_RE` matches, so both text formats can carry
        it, and every id must be in range; raises :class:`LtsError`.
        """
        state_names, symbol_names = tuple(state_names), tuple(symbol_names)
        _check_names(state_names, "state", LtsError)
        _check_names(symbol_names, "symbol", LtsError)
        if len(set(state_names)) != len(state_names):
            raise LtsError("duplicate state names")
        if len(set(symbol_names)) != len(symbol_names):
            raise LtsError("duplicate symbol names")
        n, m = len(state_names), len(symbol_names)
        t = _id_array(transitions)
        u, a, w = t[:, 0], t[:, 1], t[:, 2]
        bad_state = (u < 0) | (u >= n) | (w < 0) | (w >= n)
        bad = bad_state | (a < 0) | (a >= m)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            kind = "state" if bad_state[i] else "symbol"
            raise LtsError(f"{kind} id out of range in transition ({u[i]},{a[i]},{w[i]})")
        return _trusted_lts(state_names, symbol_names, t)

    @property
    def state_count(self) -> int:
        return len(self.state_names)

    @property
    def symbol_count(self) -> int:
        return len(self.symbol_names)

    @property
    def transition_count(self) -> int:
        return len(self.src)

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

    def successors(self, u: int, a: int) -> np.ndarray:
        """The a-successors of u, ascending."""
        return self.succ_data[a][self.succ_indptr[a, u] : self.succ_indptr[a, u + 1]]

    def predecessors(self, w: int, a: int) -> np.ndarray:
        """The a-predecessors of w, ascending."""
        return self.pred_data[a][self.pred_indptr[a, w] : self.pred_indptr[a, w + 1]]

    def transitions(self):
        """Iterate over (src, symbol, dst) id triples ordered by symbol, src, dst."""
        return zip(self.src.tolist(), self.sym.tolist(), self.dst.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lts):
            return NotImplemented
        return (
            self.state_names == other.state_names
            and self.symbol_names == other.symbol_names
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.sym, other.sym)
            and np.array_equal(self.dst, other.dst)
        )

    def __hash__(self):
        raise TypeError("Lts is not hashable")

    def __repr__(self) -> str:
        return (
            f"Lts(states={self.state_count}, symbols={self.symbol_count}, "
            f"transitions={self.transition_count})"
        )


def _check_names(names, kind: str, error) -> None:
    """Raise ``error`` at the first name that is not a ``str`` matched by
    :data:`IDENTIFIER_RE`: a name the text formats cannot carry."""
    for name in names:
        if not isinstance(name, str) or not IDENTIFIER_RE.match(name):
            raise error(f"invalid {kind} name {name!r}")


def _id_array(transitions) -> np.ndarray:
    return np.asarray(
        transitions if isinstance(transitions, np.ndarray) else list(transitions),
        dtype=np.int64,
    ).reshape(-1, 3)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending; sorted and deduplicated by hand, as
    np.unique would import all of numpy.ma on its first call."""
    keys = np.sort(keys)
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _trusted_lts(state_names, symbol_names, t: np.ndarray) -> Lts:
    """:meth:`Lts.from_ids` without the checks, on an (E, 3) int64 array
    ``t``, for builders whose names are distinct and whose ids are in range
    by construction.  The tree translations' encoding LTSs use it for names
    outside the text formats' identifier rule."""
    lts = object.__new__(Lts)
    lts.state_names = tuple(state_names)
    lts.symbol_names = tuple(symbol_names)
    lts._state_ids = {name: i for i, name in enumerate(lts.state_names)}
    lts._symbol_ids = {name: i for i, name in enumerate(lts.symbol_names)}
    n, m = len(lts.state_names), len(lts.symbol_names)
    u, a, w = t[:, 0], t[:, 1], t[:, 2]

    # sorting key (symbol, src, dst)
    nn = max(n, 1)
    sym, rest = np.divmod(_distinct((a * nn + u) * nn + w), nn * nn)
    src, dst = np.divmod(rest, nn)
    lts.src, lts.sym, lts.dst = _frozen(src), _frozen(sym), _frozen(dst)

    sym_start = np.searchsorted(sym, np.arange(m + 1))
    lts.succ_indptr = _row_offsets(sym * n + src, n, m)
    lts.succ_data = tuple(dst[sym_start[b] : sym_start[b + 1]] for b in range(m))
    by_dst = np.lexsort((src, dst, sym))
    lts.pred_indptr = _row_offsets(sym * n + dst, n, m)
    pred_src = _frozen(src[by_dst])
    lts.pred_data = tuple(pred_src[sym_start[b] : sym_start[b + 1]] for b in range(m))

    lts.out_mask = np.zeros((n, m), dtype=bool)
    lts.out_mask[src, sym] = True
    lts.in_mask = np.zeros((n, m), dtype=bool)
    lts.in_mask[dst, sym] = True
    _frozen(lts.out_mask)
    _frozen(lts.in_mask)
    return lts


def build_lts(transitions, states=(), symbols=()) -> Lts:
    """Intern names and build an :class:`Lts` from (src, label, dst) name triples.

    Dense ids are assigned in first-appearance order, with explicitly declared
    ``states``/``symbols`` interned first.  Duplicate transitions collapse.
    :meth:`Lts.from_ids` checks the names that can be interned.
    """
    state_ids: dict[str, int] = {}
    symbol_ids: dict[str, int] = {}

    def intern(name, ids, kind):
        try:
            return ids.setdefault(name, len(ids))
        except TypeError:  # unhashable, so no name at all
            raise LtsError(f"invalid {kind} name {name!r}") from None

    for name in states:
        intern(name, state_ids, "state")
    for name in symbols:
        intern(name, symbol_ids, "symbol")
    triples = [
        (
            intern(src, state_ids, "state"),
            intern(label, symbol_ids, "symbol"),
            intern(dst, state_ids, "state"),
        )
        for src, label, dst in transitions
    ]
    if not state_ids:
        raise LtsError("empty system: no transitions and no declared states")
    return Lts.from_ids(state_ids, symbol_ids, triples)


def is_simulation(lts: Lts, rho: StateRelation) -> bool:
    """Check the simulation condition for every related pair directly."""
    if rho.size != lts.state_count:
        raise LtsError("relation size does not match state count")
    succ = [[[] for _ in range(lts.symbol_count)] for _ in range(lts.state_count)]
    for u, a, w in lts.transitions():
        succ[u][a].append(w)
    for u, v in rho.pairs():
        for targets_u, targets_v in zip(succ[u], succ[v]):
            for u2 in targets_u:
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
    block_names = [min(lts.state_names[v] for v in m.tolist()) for m in pair.members]
    triples = np.column_stack([pair.block_of[lts.src], lts.sym, pair.block_of[lts.dst]])
    return _trusted_lts(block_names, lts.symbol_names, triples)


# -- text formats ----------------------------------------------------------


def _bad_line_re(token: str, count: int) -> re.Pattern:
    """Finds, in lines joined by ``\\n``, the start of the first line that
    does not hold ``count`` tokens or none before an optional comment.

    A negative lookahead per line keeps no backtracking state across lines,
    where one match of the whole text would hold some for every line.
    """
    sep = r"[^\S\n]"  # whitespace within a line, exactly what str.split() splits on
    line = rf"{sep}*(?:{token}(?:{sep}+{token}){{{count - 1}}}{sep}*)?(?:#[^\n]*)?"
    return re.compile(rf"^(?!{line}$)", re.MULTILINE)


_LTS_BAD_LINE = _bad_line_re(r"[A-Za-z0-9_.\-]+", 3)
_RELATION_BAD_LINE = _bad_line_re(r"[^\s#]+", 2)
_COMMENT_RE = re.compile(r"#[^\n]*")


def _tokens(body: str) -> list[str]:
    return (_COMMENT_RE.sub("", body) if "#" in body else body).split()


def _token_lines(lines, count: int):
    """(line number, tokens) of every line holding tokens; raises at the
    first line holding another number of tokens than ``count``."""
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            if len(tokens) != count:
                raise LtsParseError(lineno, f"expected {count} tokens, got {len(tokens)}")
            yield lineno, tokens


def _interned(names: list[str]):
    """The distinct names in first-appearance order, and each name's id."""
    ids = {name: i for i, name in enumerate(dict.fromkeys(names))}
    return list(ids), np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names))


def parse_lts(text: str) -> Lts:
    """Parse the line-based LTS format: ``SRC LABEL DST`` per line; ``#``
    starts a comment that runs to the end of the line.

    One regular expression search validates the whole text; only a text it
    rejects is scanned line by line, to report the first bad line.  States and
    symbols get ids in first-appearance order, as :func:`build_lts` gives.
    """
    lines = text.splitlines()
    body = "\n".join(lines)
    if _LTS_BAD_LINE.search(body):
        for lineno, line_tokens in _token_lines(lines, 3):
            for tok in line_tokens:
                if not IDENTIFIER_RE.match(tok):
                    raise LtsParseError(lineno, f"invalid identifier {tok!r}")
    tokens = _tokens(body)
    if not tokens:
        raise LtsParseError(1, "empty system: no transitions")
    symbols, sym = _interned(tokens[1::3])
    del tokens[1::3]  # sources and targets, interleaved in input order
    states, ends = _interned(tokens)
    return _trusted_lts(states, symbols, np.column_stack([ends[0::2], sym, ends[1::2]]))


def serialize_lts(lts: Lts) -> str:
    states, symbols = lts.state_names, lts.symbol_names
    lines = sorted(f"{states[u]} {symbols[a]} {states[w]}" for u, a, w in lts.transitions())
    return "\n".join(lines) + "\n" if lines else ""


def _relation_ids(text: str, states):
    """Read a relation file: one ``U V`` name pair per line; ``#`` starts a
    comment that runs to the end of the line.

    Returns the distinct pairs as two id arrays (sources, targets) in
    row-major order.  ``states`` is anything with ``state_count``,
    ``state_names`` and ``state_id`` (an :class:`Lts` or a tree automaton).
    A malformed line raises :class:`LtsParseError`; an unknown name
    re-raises the ``state_id`` error with the line number prefixed.
    """
    lines = text.splitlines()
    body = "\n".join(lines)
    ids = {name: i for i, name in enumerate(states.state_names)}
    tokens = _tokens(body)
    pairs = np.fromiter(map(ids.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
    if _RELATION_BAD_LINE.search(body) or (pairs < 0).any():
        for lineno, line_tokens in _token_lines(lines, 2):
            try:
                for tok in line_tokens:
                    states.state_id(tok)
            except ValueError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    n = max(states.state_count, 1)
    return np.divmod(_distinct(pairs[0::2] * n + pairs[1::2]), n)


def parse_relation(text: str, states) -> StateRelation:
    """The :class:`StateRelation` of a relation file; see :func:`_relation_ids`."""
    rel = StateRelation.empty(states.state_count)
    rel.matrix[_relation_ids(text, states)] = True
    return rel


def serialize_relation(rel, states) -> str:
    """One ``U V`` name pair per line, sorted.

    ``rel`` is a partition-relation pair, written block by block, or a
    :class:`StateRelation`, written as one block per state.  ``states`` is
    anything with ``state_names`` (an :class:`Lts` or a tree automaton).
    """
    names = states.state_names
    if isinstance(rel, StateRelation):
        block_of, related = np.arange(len(names)), rel.matrix
    else:
        block_of, related = rel.block_of, rel.rel
    # without spaces in names, the lines sort as (U + " ", V) do: visit the
    # rows by that key, and gather each block's columns once, by name
    spaced = any(" " in name for name in names)
    cols = sorted(range(len(names)), key=names.__getitem__)
    col_names = np.array([names[v] for v in cols], dtype=object)
    col_block = block_of[cols]
    left = np.bincount(block_of, minlength=len(related)).tolist()  # rows to go per block
    gathered = {}
    out = []
    for u in sorted(range(len(names)), key=lambda i: names[i] + " "):
        b = int(block_of[u])
        if b not in gathered:
            gathered[b] = col_names[related[b][col_block]].tolist()
        left[b] -= 1
        above = gathered[b] if left[b] else gathered.pop(b)  # its last row drops it
        prefix = names[u] + " "
        if spaced:
            out.extend(prefix + v for v in above)
        elif above:
            out.append(prefix + ("\n" + prefix).join(above))
    if spaced:
        out.sort()
    return "\n".join(out + [""]) if out else ""  # not text + "\n": one copy less
