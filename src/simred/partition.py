"""Partition-relation pairs and the refinement operations on them.

A partition-relation pair is a partition of the state set into blocks plus a
relation on block ids; it induces the state relation that is the union of
B x C over related block pairs (B,C).
"""

from __future__ import annotations

import numpy as np

from .lts import Lts, in_out_sets
from .relation import StateRelation

__all__ = [
    "PartitionError",
    "PartitionRelationPair",
    "coarsest_pair",
    "split",
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


def split(partition, remove):
    """Refine ``partition`` by a state set: each block B becomes B-remove and
    B&remove, empty parts discarded.

    Returns ``(blocks, parent_map)``.  Unsplit blocks and the surviving
    B-remove parts keep their index; the B&remove parts are appended in
    ascending parent order.  ``parent_map`` sends every result index to the
    index of its originating block.
    """
    remove = set(remove)
    blocks = [tuple(sorted(block)) for block in partition]
    universe = set()
    for block in blocks:
        universe.update(block)
    if not remove <= universe:
        raise PartitionError("remove set is not a subset of the partition's states")

    result: list[tuple[int, ...]] = []
    parent_map: dict[int, int] = {}
    appended: list[tuple[tuple[int, ...], int]] = []
    for i, block in enumerate(blocks):
        inside = tuple(v for v in block if v in remove)
        outside = tuple(v for v in block if v not in remove)
        if inside and outside:
            result.append(outside)
            parent_map[i] = i
            appended.append((inside, i))
        else:
            # one side empty: the block is unchanged
            result.append(block)
            parent_map[i] = i
    for inside, parent in appended:
        parent_map[len(result)] = parent
        result.append(inside)
    return result, parent_map


def refine_by_out(initial: PartitionRelationPair, lts: Lts) -> PartitionRelationPair:
    """Coarsest pair inducing I & Out, from the coarsest pair of a preorder I.

    Splits successively by the per-symbol sets of emitting states, breaking
    the block relation between emitters and non-emitters of each symbol, then
    re-coarsens by merging blocks with identical relation rows and columns.
    """
    validate_coarsest(initial)
    if initial.state_count != lts.state_count:
        raise PartitionError("pair does not cover this LTS's states")
    sets = in_out_sets(lts)
    n = lts.state_count

    members = [np.fromiter(b, dtype=np.int64) for b in initial.blocks]
    rel = np.array(initial.rel, dtype=bool)

    for a in range(lts.symbol_count):
        mask = np.zeros(n, dtype=bool)
        mask[list(sets.has_out[a])] = True
        new_members: list[np.ndarray] = []
        parents: list[int] = []
        appended: list[tuple[np.ndarray, int]] = []
        for i, mem in enumerate(members):
            inside = mem[mask[mem]]
            if inside.size == 0 or inside.size == mem.size:
                new_members.append(mem)
                parents.append(i)
                continue
            new_members.append(mem[~mask[mem]])
            parents.append(i)
            appended.append((inside, i))
        for inside, parent in appended:
            new_members.append(inside)
            parents.append(parent)
        members = new_members
        pidx = np.array(parents)
        rel = rel[np.ix_(pidx, pidx)]
        emits = np.array([bool(mask[mem[0]]) for mem in members])
        if emits.any() and (~emits).any():
            rel[np.ix_(emits, ~emits)] = False

    # Re-coarsen: merge blocks whose relation rows and columns coincide.
    relt = np.ascontiguousarray(rel.T)
    groups: dict[bytes, list[int]] = {}
    for i in range(len(members)):
        key = rel[i].tobytes() + relt[i].tobytes()
        groups.setdefault(key, []).append(i)
    merged = [np.concatenate([members[i] for i in g]) for g in groups.values()]
    reps = np.array([g[0] for g in groups.values()], dtype=np.int64)
    return PartitionRelationPair(
        [np.sort(m) for m in merged], rel[np.ix_(reps, reps)]
    ).canonical()
