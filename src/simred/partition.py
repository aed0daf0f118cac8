"""Partition-relation pairs and the refinement operations on them.

A partition-relation pair is a partition of the state set into blocks plus a
relation on block ids; it induces the state relation that is the union of
B x C over related block pairs (B,C).
"""

from __future__ import annotations

import numpy as np

from .lts import Lts
from .relation import StateRelation

__all__ = [
    "PartitionError",
    "PartitionRelationPair",
    "coarsest_pair",
    "refine_by_out",
    "validate_coarsest",
]


class PartitionError(ValueError):
    pass


class PartitionRelationPair:
    """Blocks of dense state ids plus a boolean relation on block ids.

    Instances are immutable after construction; block members are stored as
    ascending tuples and the relation matrix is frozen.
    """

    __slots__ = ("blocks", "rel", "block_of")

    def __init__(self, blocks, rel):
        blocks = tuple(tuple(sorted(int(v) for v in block)) for block in blocks)
        if any(not block for block in blocks):
            raise PartitionError("empty block")
        seen: dict[int, int] = {}
        for i, block in enumerate(blocks):
            for v in block:
                if v in seen:
                    raise PartitionError(f"state {v} occurs in blocks {seen[v]} and {i}")
                seen[v] = i
        n = len(seen)
        if seen and (min(seen) != 0 or max(seen) != n - 1):
            raise PartitionError("blocks must cover a dense id range starting at 0")
        relm = np.array(rel, dtype=bool)
        if relm.shape != (len(blocks), len(blocks)):
            raise PartitionError(
                f"relation shape {relm.shape} does not match {len(blocks)} blocks"
            )
        relm.setflags(write=False)
        self.blocks = blocks
        self.rel = relm
        block_of = np.empty(n, dtype=np.int64)
        for i, block in enumerate(blocks):
            for v in block:
                block_of[v] = i
        block_of.setflags(write=False)
        self.block_of = block_of

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def state_count(self) -> int:
        return self.block_of.shape[0]

    def rel_pairs(self):
        """Yield related block-id pairs in row-major order."""
        for b, c in np.argwhere(self.rel):
            yield int(b), int(c)

    def induced_relation(self) -> StateRelation:
        n = self.state_count
        out = np.zeros((n, n), dtype=bool)
        members = [np.fromiter(b, dtype=np.int64) for b in self.blocks]
        for b, c in self.rel_pairs():
            out[np.ix_(members[b], members[c])] = True
        return StateRelation(out)

    def canonical(self) -> "PartitionRelationPair":
        """Equivalent pair with blocks ordered by least member id."""
        order = sorted(range(len(self.blocks)), key=lambda i: self.blocks[i][0])
        if order == list(range(len(self.blocks))):
            return self
        perm = np.array(order)
        return PartitionRelationPair(
            [self.blocks[i] for i in order], self.rel[np.ix_(perm, perm)]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionRelationPair):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.blocks == b.blocks and bool(np.array_equal(a.rel, b.rel))

    def __hash__(self):
        raise TypeError("PartitionRelationPair is not hashable")

    def __repr__(self) -> str:
        return f"PartitionRelationPair(blocks={self.block_count}, states={self.state_count})"


def coarsest_pair(rho: StateRelation) -> PartitionRelationPair:
    """Coarsest partition-relation pair inducing the preorder ``rho``.

    States share a block iff they have identical up-sets and down-sets; for a
    preorder these are the equivalence classes of rho intersected with its
    inverse.  Grouping hashes the (row, column) signature of each state.
    """
    rho.require_preorder("initial relation")
    m = rho.matrix
    mt = np.ascontiguousarray(m.T)
    groups: dict[bytes, list[int]] = {}
    for v in range(rho.size):
        key = m[v].tobytes() + mt[v].tobytes()
        groups.setdefault(key, []).append(v)
    blocks = sorted(groups.values(), key=lambda g: g[0])
    reps = np.array([g[0] for g in blocks], dtype=np.int64)
    rel = m[np.ix_(reps, reps)]
    return PartitionRelationPair(blocks, rel)


def validate_coarsest(pair: PartitionRelationPair) -> None:
    """Require that ``pair`` is the coarsest pair of some preorder.

    Equivalent to: the block relation is reflexive, transitive and
    antisymmetric (a mutual pair of distinct blocks would be mergeable).
    """
    rel = pair.rel
    k = pair.block_count
    diag = rel.diagonal()
    if not diag.all():
        b = int(np.flatnonzero(~diag)[0])
        raise PartitionError(f"block relation not reflexive: block {b}")
    f = rel.astype(np.float32)
    nontrans = ((f @ f) > 0.5) & ~rel
    if nontrans.any():
        b, c = (int(x) for x in np.argwhere(nontrans)[0])
        raise PartitionError(f"block relation not transitive at ({b},{c})")
    mutual = rel & rel.T & ~np.eye(k, dtype=bool)
    if mutual.any():
        b, c = (int(x) for x in np.argwhere(mutual)[0])
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
    output symbols are a subset of the second's.  Groups with identical
    relation rows and columns then merge back into one block.
    """
    validate_coarsest(initial)
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
    o = lts.out_mask[reps].astype(np.float32)
    parents = block_of[reps]
    rel = initial.rel[np.ix_(parents, parents)] & ((o @ (1.0 - o).T) < 0.5)

    # Re-coarsen: merge groups whose relation rows and columns coincide.
    keep, merged_of = _row_classes(np.packbits(np.concatenate([rel, rel.T], axis=1), axis=1))
    label = merged_of[group_of]
    order = np.argsort(label, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(label))[:-1])
    return PartitionRelationPair(blocks, rel[np.ix_(keep, keep)]).canonical()
