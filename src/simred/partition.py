"""Partition-relation pairs and the refinement operations on them.

A partition-relation pair is a partition of the state set into blocks plus a
relation on block ids; it induces the state relation that is the union of
B x C over related block pairs (B,C).  Pairs are canonical on construction:
block ids follow the blocks' least members, so equal pairs have identical
arrays.  This module is the only place that orders or groups blocks; every
other layer hands it one label per state.

It also holds the one preorder check, :func:`_preorder_pair`, on a
relation given as two id arrays; every check of a relation or of a block
relation calls it.
"""

from __future__ import annotations

import numpy as np

from .lts import Lts
from .relation import RelationError, StateRelation

__all__ = [
    "PartitionError",
    "PartitionRelationPair",
    "closure_pair",
    "coarsest_pair",
    "refine_by_out",
    "validate_coarsest",
]


class PartitionError(ValueError):
    pass


class PartitionRelationPair:
    """Blocks of dense state ids plus a boolean relation on block ids.

    ``block_of[v]`` is the block of state v, ``rel[b, c]`` relates blocks b
    and c, and ``members[b]`` lists block b's states ascending (``blocks``
    gives them as tuples, built on demand).  The pair is canonical: block b
    is the block whose least member is the b-th smallest.  All arrays are
    read-only.

    The relation is the coarsest relation of a preorder over the blocks.
    :meth:`from_labels`, the one public constructor, checks that; this
    module's producers (:meth:`full`, :meth:`restrict`,
    :func:`coarsest_pair`, :func:`closure_pair`, :func:`refine_by_out`) and
    the engines and tree translations build pairs that hold it by
    construction (an engine hands out none mid-run), so no consumer checks
    it again.
    """

    __slots__ = ("block_of", "rel", "members")

    @classmethod
    def from_labels(cls, labels, rel) -> "PartitionRelationPair":
        """The pair whose blocks are the states sharing a label.

        ``labels`` gives each state a label in 0..k-1, every label used, and
        ``rel`` is the k x k relation between labels, which must be the
        coarsest relation of a preorder (see :func:`validate_coarsest`).
        """
        labels, rel = np.asarray(labels), np.asarray(rel, dtype=bool)
        if labels.ndim != 1 or labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0):
            raise PartitionError("labels must be a 1-D array of nonnegative integers")
        # checked before _trusted_pair's bincount, which allocates up to the largest label
        if rel.ndim != 2 or labels.size and labels.max() >= len(rel):
            raise PartitionError("labels must index the rows of a 2-D relation")
        pair = _trusted_pair(labels, rel)
        validate_coarsest(pair)
        return pair

    @classmethod
    def full(cls, n: int) -> "PartitionRelationPair":
        """The pair of the full relation on n states: one block, or none
        when n is 0."""
        k = min(n, 1)
        return _trusted_pair(np.zeros(n, dtype=np.int64), np.ones((k, k), dtype=bool))

    @property
    def blocks(self) -> tuple:
        return tuple(tuple(m.tolist()) for m in self.members)

    @property
    def block_count(self) -> int:
        return self.rel.shape[0]

    @property
    def state_count(self) -> int:
        return self.block_of.shape[0]

    def restrict(self, n: int) -> "PartitionRelationPair":
        """The pair induced on states 0..n-1; blocks left empty drop out."""
        kept = np.zeros(self.block_count, dtype=bool)
        kept[self.block_of[:n]] = True
        ids = np.flatnonzero(kept)
        labels = (np.cumsum(kept) - 1)[self.block_of[:n]]
        return _trusted_pair(labels, np.take(self.rel[ids], ids, axis=1))

    def rel_pairs(self):
        """Yield related block-id pairs in row-major order."""
        for b, c in np.argwhere(self.rel):
            yield int(b), int(c)

    def induced_relation(self) -> StateRelation:
        # a slab of block rows at a time, expanded by one take: several
        # times faster than one 2-D fancy index, and the slab (~1 MB) is
        # all the memory it needs beyond the result; mode="clip" (the ids
        # are in range) writes into out where "raise" would buffer a copy
        block_of = self.block_of
        n = len(block_of)
        out = np.empty((n, n), dtype=bool)
        step = max(1, (1 << 20) // max(self.block_count, 1))
        for i in range(0, n, step):
            rows = slice(i, i + step)
            np.take(self.rel[block_of[rows]], block_of, axis=1, out=out[rows], mode="clip")
        return StateRelation(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionRelationPair):
            return NotImplemented
        return bool(
            np.array_equal(self.block_of, other.block_of)
            and np.array_equal(self.rel, other.rel)
        )

    def __hash__(self):
        raise TypeError("PartitionRelationPair is not hashable")

    def __repr__(self) -> str:
        return f"PartitionRelationPair(blocks={self.block_count}, states={self.state_count})"


def _trusted_pair(labels, rel) -> PartitionRelationPair:
    """:meth:`PartitionRelationPair.from_labels` without the preorder check,
    for producers whose pairs are coarsest by construction."""
    labels = np.asarray(labels, dtype=np.int64)
    rel = np.asarray(rel, dtype=bool)
    # renumber the labels by least member; a stable sort by label lists
    # every block ascending, its least member first
    k = len(rel)
    sizes = np.bincount(labels, minlength=k)
    if rel.shape != (k, k) or len(sizes) != k or not sizes.all():
        raise PartitionError(f"labels must use exactly the {k} ids of the relation")
    by_label = np.argsort(labels, kind="stable")
    by_label.setflags(write=False)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(by_label[starts])
    renumber = np.empty(k, dtype=np.int64)
    renumber[order] = np.arange(k)
    pair = object.__new__(PartitionRelationPair)
    pair.block_of = renumber[labels]
    pair.block_of.setflags(write=False)
    # gathering rows, then columns, beats one 2-D fancy index
    pair.rel = np.take(rel[order], order, axis=1)
    pair.rel.setflags(write=False)
    parts = np.split(by_label, starts[1:])
    pair.members = tuple(parts[b] for b in order.tolist())
    return pair


def coarsest_pair(rho: StateRelation) -> PartitionRelationPair:
    """Coarsest partition-relation pair inducing the preorder ``rho``;
    raises :class:`RelationError` if ``rho`` is not a preorder."""
    return _checked_pair(rho.size, *rho.id_pairs())


def _checked_pair(n: int, src, dst) -> PartitionRelationPair:
    """:func:`coarsest_pair` of the relation whose distinct pairs ``src``
    and ``dst`` list in row-major order."""
    pair, witness = _preorder_pair(n, src, dst)
    if witness is not None:
        raise RelationError(f"initial relation is not a preorder: {_violation(witness)}")
    return pair


def _violation(witness) -> str:
    """The message for a witness of :func:`_preorder_pair`."""
    if len(witness) == 1:
        return f"not reflexive: pair ({witness[0]},{witness[0]}) missing"
    u, v, w = witness
    return f"not transitive: ({u},{v}) and ({v},{w}) present but ({u},{w}) missing"


def _preorder_pair(n: int, src, dst):
    """(the coarsest pair of R, None) if the relation R on n states whose
    distinct pairs ``src`` and ``dst`` list in row-major order is a
    preorder, else (None, witness): ``(u,)`` for the least u without (u,u),
    or the first (u, v, w), row-major in (u, w), with (u,v) and (v,w) in R
    but not (u,w), v least.

    A reflexive R is a preorder iff it holds as many pairs as its closure,
    Σ|B|·|C| over the related blocks B, C of :func:`closure_pair`: linear
    time in n and the pairs, and no matrix product.
    """
    loops = src == dst
    if np.count_nonzero(loops) < n:
        has_loop = np.zeros(n, dtype=bool)
        has_loop[src[loops]] = True
        return None, (int(np.argmin(has_loop)),)
    if len(src) == n * n:
        return PartitionRelationPair.full(n), None
    pair = closure_pair(n, src, dst)
    k, sizes = pair.block_count, np.bincount(pair.block_of)
    # closure row sizes per block, a slab of ~1 M cells at a time
    step = max(1, (1 << 20) // k)
    reach = np.concatenate([pair.rel[i : i + step] @ sizes for i in range(0, k, step)])
    if sizes @ reach == len(src):
        return pair, None
    # the first row of R short of its closure row misses a two-step successor
    u = int(np.flatnonzero(reach[pair.block_of] > np.bincount(src, minlength=n))[0])
    in_row = np.zeros(n, dtype=bool)
    in_row[dst[src == u]] = True
    two_step = np.zeros(n, dtype=bool)
    two_step[dst[in_row[src]]] = True
    w = int(np.argmax(two_step & ~in_row))
    return None, (u, int(src[(dst == w) & in_row[src]][0]), w)


def closure_pair(n: int, src, dst) -> PartitionRelationPair:
    """Coarsest pair of the reflexive-transitive closure of the relation
    on n states whose pairs ``src`` and ``dst`` list, sources ascending.

    The blocks are the strongly connected components of the generator graph
    and the block relation is reachability between them, so the closure is
    never built as an n x n matrix.  Tarjan's algorithm, run without
    recursion, completes the components sinks first; the reach set of each
    one (a bitset over component ids) is its own bit ORed with the already
    final reach sets of the components its edges enter.  Linear time in n
    and the generator pairs, plus k^2/64 words for k components.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indptr, dst = indptr.tolist(), dst.tolist()

    index = [-1] * n  # visit order; -1 until visited
    low = [0] * n
    comp = [-1] * n  # component id; -1 while on the Tarjan stack
    reach: list[int] = []
    stack: list[int] = []
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, indptr[root])]  # (state, next edge to follow)
        while work:
            v, e = work[-1]
            end = indptr[v + 1]
            while e < end and index[dst[e]] >= 0:
                w = dst[e]
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
                e += 1
            if e < end:  # descend into unvisited w, resuming v after that edge
                w = dst[e]
                work[-1] = (v, e + 1)
                index[w] = low[w] = visited
                visited += 1
                stack.append(w)
                work.append((w, indptr[w]))
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] != index[v]:
                continue
            c = len(reach)
            members = []
            while not members or members[-1] != v:
                u = stack.pop()
                comp[u] = c
                members.append(u)
            entered = {comp[w] for u in members for w in dst[indptr[u] : indptr[u + 1]]}
            entered.discard(c)
            bits = 1 << c
            for d in entered:
                bits |= reach[d]
            reach.append(bits)

    k = len(reach)
    width = (k + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in reach), dtype=np.uint8)
    closed = np.unpackbits(packed.reshape(k, width), axis=1, count=k, bitorder="little")
    return _trusted_pair(comp, closed.view(bool))


def validate_coarsest(pair: PartitionRelationPair) -> None:
    """Require that ``pair`` is the coarsest pair of some preorder:
    its block relation is a preorder whose own coarsest pair has a block
    per block, as two mutually related blocks would be mergeable."""
    closed, witness = _preorder_pair(pair.block_count, *np.nonzero(pair.rel))
    if witness is not None and len(witness) == 1:
        raise PartitionError(f"block relation not reflexive: block {witness[0]}")
    if witness is not None:
        raise PartitionError(f"block relation not transitive at ({witness[0]},{witness[2]})")
    if closed.block_count < pair.block_count:
        # the first mutual pair, row-major: the two least blocks of the
        # first class that holds more than one
        b, c = next(m for m in closed.members if len(m) > 1)[:2].tolist()
        raise PartitionError(f"pair is not coarsest: blocks {b} and {c} are mutually related")


def _row_classes(rows: np.ndarray):
    """Group identical rows of a uint8 matrix: the index of one row per class
    and the class of every row."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
    return first, cls.ravel()


def refine_by_out(initial: PartitionRelationPair, lts: Lts) -> PartitionRelationPair:
    """Coarsest pair inducing I & Out, from the coarsest pair of a preorder I.

    Each refined block is one (initial block, ``out_mask`` row) group; two
    groups are related iff their initial blocks are and the first group's
    output symbols are a subset of the second's.  That relation is a
    preorder, and no two groups are equivalent: they would share their
    initial block (I's pair is coarsest) and their output symbols.
    """
    if initial.state_count != lts.state_count:
        raise PartitionError("pair does not cover this LTS's states")
    n = lts.state_count
    if n == 0:
        return initial
    block_of = initial.block_of
    sig = np.column_stack(
        [block_of.view(np.uint8).reshape(n, -1), np.packbits(lts.out_mask, axis=1)]
    )
    reps, group_of = _row_classes(sig)
    parents = block_of[reps]
    rel = np.take(initial.rel[parents], parents, axis=1)
    # one exact pass per byte of output symbols: a group emitting a symbol
    # the other does not is not below it
    for col in np.packbits(lts.out_mask[reps], axis=1).T:
        rel &= (col[:, None] & ~col) == 0
    return _trusted_pair(group_of, rel)
