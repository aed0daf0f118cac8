"""Partition-relation pairs and the refinement operations on them.

A partition-relation pair is a partition of the state set into blocks plus a
relation on block ids; it induces the state relation that is the union of
B x C over related block pairs (B,C).  Pairs are canonical on construction:
block ids follow the blocks' least members, so equal pairs have identical
arrays.  This module is the only place that orders or groups blocks; every
other layer hands it one label per state.
"""

from __future__ import annotations

import numpy as np

from .lts import Lts
from .relation import StateRelation

__all__ = [
    "PartitionError",
    "PartitionRelationPair",
    "closure_pair",
    "coarsest_pair",
    "refine_by_out",
    "validate_coarsest",
]

_PRODUCT_CELLS = 1 << 24  # float32 cells (64 MB) in one row chunk of the product


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
    """Coarsest partition-relation pair inducing the preorder ``rho``.

    States share a block iff they are mutually related, which in a preorder
    holds iff their rows are equal (and then so are their columns).
    """
    rho.require_preorder("initial relation")
    m = rho.matrix
    reps, block_of = _row_classes(np.packbits(m, axis=1))
    return _trusted_pair(block_of, np.take(m[reps], reps, axis=1))


def closure_pair(rel: StateRelation) -> PartitionRelationPair:
    """Coarsest pair of the reflexive-transitive closure of ``rel``.

    The blocks are the strongly connected components of the generator graph
    and the block relation is reachability between them, so the closure is
    never built as an n x n matrix.  Tarjan's algorithm, run without
    recursion, completes the components sinks first; the reach set of each
    one (a bitset over component ids) is its own bit ORed with the already
    final reach sets of the components its edges enter.  Linear time in n
    and the generator pairs, plus k^2/64 words for k components.
    """
    n = rel.size
    # row-major, so already sorted by source; far faster than 2-D np.nonzero
    src, dst = np.divmod(np.flatnonzero(rel.matrix), max(n, 1))
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


def _run(ids: np.ndarray):
    """Ascending ids as a slice when they are consecutive: indexing by it
    makes a view, not a gathered copy."""
    return slice(ids[0], ids[-1] + 1) if ids[-1] - ids[0] == len(ids) - 1 else ids


def transitivity_witness(m: np.ndarray):
    """The first (u, v, w), in row-major order of (u, w), with ``m[u, v]``
    and ``m[v, w]`` but not ``m[u, w]``; None if ``m`` is transitive.

    In a violation v differs from u and from w, so v is a middle: an id
    with a strict predecessor and a strict successor.  The boolean product
    runs only through the middles, over the rows that reach one and the
    columns one reaches, a chunk of rows at a time, and stops at the first
    chunk that holds a violation.
    """
    strict = m.copy()
    np.fill_diagonal(strict, False)
    middle = strict.any(axis=0) & strict.any(axis=1)
    mid = np.flatnonzero(middle)
    if not mid.size:
        return None
    # float32 products hit BLAS; integer ones do not.  A middle's own
    # diagonal entry is no strict step, so it comes off each count
    f = m.astype(np.float32)
    weight = middle.astype(np.float32)
    loops = weight * f.diagonal()
    rows = np.flatnonzero(f @ weight - loops > 0.5)
    cols = np.flatnonzero(weight @ f - loops > 0.5)
    # paths through the diagonal only reach pairs of m, so m composes as
    # well as strict does
    through, into = _run(mid), _run(cols)
    after = f[through][:, into]
    step = max(1, _PRODUCT_CELLS // len(cols))
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        at = _run(chunk)
        bad = ((f[at][:, through] @ after) > 0.5) & ~m[at][:, into]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            u, w = int(chunk[i]), int(cols[j])
            return u, int(np.flatnonzero(m[u] & m[:, w])[0]), w
    return None


def validate_coarsest(pair: PartitionRelationPair) -> None:
    """Require that ``pair`` is the coarsest pair of some preorder.

    Equivalent to: the block relation is reflexive, transitive and
    antisymmetric (a mutual pair of distinct blocks would be mergeable).
    """
    rel = pair.rel
    diag = rel.diagonal()
    if not diag.all():
        b = int(np.flatnonzero(~diag)[0])
        raise PartitionError(f"block relation not reflexive: block {b}")
    witness = transitivity_witness(rel)
    if witness is not None:
        b, _, c = witness
        raise PartitionError(f"block relation not transitive at ({b},{c})")
    # in a preorder two blocks are mutually related iff their rows are
    # equal; the first such pair, row-major, is the least block with a
    # twin row and the least of its twins
    reps, row_class = _row_classes(np.packbits(rel, axis=1))
    if len(reps) < len(rel):
        b = int(np.flatnonzero(np.bincount(row_class)[row_class] > 1)[0])
        c = int(np.flatnonzero(row_class == row_class[b])[1])
        raise PartitionError(
            f"pair is not coarsest: blocks {b} and {c} are mutually related"
        )


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
