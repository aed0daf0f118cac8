import tracemalloc

import numpy as np
import pytest

from simred import (
    PartitionError,
    PartitionRelationPair,
    StateRelation,
    coarsest_pair,
    refine_by_out,
)
from simred.partition import closure_pair
from simred.generate import random_lts, random_preorder
from lts_reference import out_preorder


def brute_force_coarsest(rho: StateRelation) -> PartitionRelationPair:
    """Independent grouping oracle: compare explicit up/down sets pairwise."""
    n = rho.size
    up = [frozenset(v for v in range(n) if rho.has(u, v)) for u in range(n)]
    down = [frozenset(v for v in range(n) if rho.has(v, u)) for u in range(n)]
    blocks = []
    assigned = [None] * n
    for u in range(n):
        if assigned[u] is not None:
            continue
        block = [v for v in range(n) if up[v] == up[u] and down[v] == down[u]]
        for v in block:
            assigned[v] = len(blocks)
        blocks.append(block)
    k = len(blocks)
    rel = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            rel[i, j] = rho.has(blocks[i][0], blocks[j][0])
    return PartitionRelationPair.from_labels(assigned, rel)


def test_coarsest_full_relation():
    pair = coarsest_pair(StateRelation.full(3))
    assert pair.blocks == ((0, 1, 2),)
    assert pair.rel.tolist() == [[True]]
    for n in range(4):
        assert PartitionRelationPair.full(n) == coarsest_pair(StateRelation.full(n))


def test_coarsest_identity():
    pair = coarsest_pair(StateRelation.identity(2))
    assert pair.blocks == ((0,), (1,))
    assert np.array_equal(pair.rel, np.eye(2, dtype=bool))


def test_coarsest_out_of_l3(l3):
    # out-set inclusion on {a},{a},{} groups p with r, s alone below them
    pair = coarsest_pair(out_preorder(l3))
    assert pair == brute_force_coarsest(out_preorder(l3))
    assert pair.blocks == ((0, 1), (2,))
    assert sorted(pair.rel_pairs()) == [(0, 0), (1, 0), (1, 1)]


def test_coarsest_rejects_non_preorder():
    bad = StateRelation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    with pytest.raises(Exception, match="not transitive"):
        coarsest_pair(bad)


def test_coarsest_matches_brute_force_on_randoms():
    for seed in range(40):
        rho = random_preorder(6, edge_prob=0.3, seed=seed)
        assert coarsest_pair(rho) == brute_force_coarsest(rho)


def test_induced_one_block():
    pair = PartitionRelationPair.from_labels([0, 0], [[True]])
    assert pair.induced_relation() == StateRelation.full(2)


def test_induced_identity_blocks():
    pair = PartitionRelationPair.from_labels([0, 1], np.eye(2, dtype=bool))
    assert pair.induced_relation() == StateRelation.identity(2)


def test_induced_relation_is_not_held_twice():
    pair = PartitionRelationPair.from_labels(np.arange(2000), np.eye(2000, dtype=bool))
    tracemalloc.start()
    try:
        rel = pair.induced_relation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rel == StateRelation.identity(2000)
    assert peak < 1.5 * rel.matrix.nbytes


def test_closure_pair_of_a_long_chain():
    # a recursive component search would overflow the interpreter stack here
    n = 5000
    chain = StateRelation.from_pairs(n, zip(range(n - 1), range(1, n)))
    pair = closure_pair(n, *chain.id_pairs())
    assert pair.block_count == n
    assert np.array_equal(pair.rel, np.triu(np.ones((n, n), dtype=bool)))


def test_closure_pair_allocates_less_than_the_dense_closure():
    # four cycles of 1 000 states, each cycle entering the next
    n, length = 4000, 1000
    succ = np.arange(1, n + 1) % length + np.arange(n) // length * length
    rel = StateRelation.from_pairs(n, zip(range(n), succ.tolist()))
    rel.matrix[np.arange(0, n - length, length), np.arange(length, n, length)] = True
    src, dst = rel.id_pairs()
    tracemalloc.start()
    try:
        pair = closure_pair(n, src, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.block_of.tolist() == (np.arange(n) // length).tolist()
    assert np.array_equal(pair.rel, np.triu(np.ones((4, 4), dtype=bool)))
    assert peak < n * n


def test_round_trip_on_random_preorders():
    for seed in range(200):
        n = 1 + seed % 7
        rho = random_preorder(n, edge_prob=0.35, seed=seed)
        assert coarsest_pair(rho).induced_relation() == rho


def test_coarsest_block_law():
    # within a block all states share up/down sets; across blocks they differ
    for seed in range(30):
        rho = random_preorder(6, edge_prob=0.3, seed=seed)
        pair = coarsest_pair(rho)
        m = rho.matrix
        reps = [b[0] for b in pair.blocks]
        for bid, block in enumerate(pair.blocks):
            for v in block:
                assert np.array_equal(m[v], m[reps[bid]])
                assert np.array_equal(m[:, v], m[:, reps[bid]])
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not (
                    np.array_equal(m[reps[i]], m[reps[j]])
                    and np.array_equal(m[:, reps[i]], m[:, reps[j]])
                )


def test_pair_validates_structure():
    eye = np.eye(2, dtype=bool)
    for labels, rel in [
        ([0, 0], eye),  # label 1 names an empty block
        ([0], eye),
        ([0, 2], [[True]]),  # label 2 is past the relation
        ([0, 1], [[True]]),
        ([0, 1], [True, True]),  # the relation is not square
        ([-1, 0], eye),
        ([[0, 1]], eye),
        ([0, 1.5], eye),
    ]:
        with pytest.raises(PartitionError):
            PartitionRelationPair.from_labels(labels, rel)


def test_validate_coarsest_rejects_mergeable():
    with pytest.raises(PartitionError, match="not coarsest"):
        PartitionRelationPair.from_labels([0, 1], [[True, True], [True, True]])


def test_canonical_equality_ignores_block_order():
    a = PartitionRelationPair.from_labels([1, 1, 0], [[True, False], [False, True]])
    b = PartitionRelationPair.from_labels([0, 0, 1], [[True, False], [False, True]])
    assert a == b


# -- refine_by_out -------------------------------------------------------------


def test_refine_by_out_l3_full(l3):
    initial = coarsest_pair(StateRelation.full(3))
    refined = refine_by_out(initial, l3)
    assert refined == coarsest_pair(out_preorder(l3))
    assert refined.blocks == ((0, 1), (2,))
    assert sorted(refined.rel_pairs()) == [(0, 0), (1, 0), (1, 1)]


def test_refine_by_out_identity_unchanged(l3):
    initial = coarsest_pair(StateRelation.identity(3))
    assert refine_by_out(initial, l3) == initial


def test_refine_by_out_l1_full(l1):
    initial = coarsest_pair(StateRelation.full(3))
    refined = refine_by_out(initial, l1)
    assert refined.blocks == ((0, 2), (1,))
    assert sorted(refined.rel_pairs()) == [(0, 0), (1, 1)]


def test_refine_by_out_equals_coarsest_of_intersection():
    for seed in range(60):
        n = 1 + seed % 7
        lts = random_lts(n, 1 + seed % 3, edge_prob=[0.1, 0.3, 0.6][seed % 3], seed=seed)
        rho = random_preorder(n, edge_prob=0.35, seed=seed + 1000)
        refined = refine_by_out(coarsest_pair(rho), lts)
        intersected = StateRelation(rho.matrix & out_preorder(lts).matrix)
        assert refined == coarsest_pair(intersected)
        assert refined.induced_relation() == intersected


def test_refine_by_out_over_nine_bytes_of_symbols():
    # 70 symbols pack into nine bytes, the last one partial; sparse menus
    # make output sets that differ in one byte only
    for seed in range(12):
        n = 12 + 3 * seed
        lts = random_lts(n, 70, n_edges=4 * n, sparsity=[0.03, 0.1, 0.5][seed % 3], seed=seed)
        rho = random_preorder(n, edge_prob=[0.0, 0.05, 0.3][seed % 3], seed=seed + 2000)
        intersected = StateRelation(rho.matrix & out_preorder(lts).matrix)
        assert refine_by_out(coarsest_pair(rho), lts) == coarsest_pair(intersected)
