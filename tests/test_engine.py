import itertools
from dataclasses import replace

import numpy as np
import pytest

from simred import (
    EngineError,
    EngineState,
    Lts,
    PartitionError,
    PartitionRelationPair,
    StateRelation,
    coarsest_pair,
    downward_simulation,
    engine_step,
    is_simulation,
    lrt,
    max_simulation_naive,
    olrt,
    run_engine,
    upward_translation,
    validate_coarsest,
)
from simred.engine import _Adjacency
from simred.generate import random_lts, random_preorder, random_ta
from simred.partition import closure_pair

LRT_FLAGS = dict(out_init=False, restrict_to_in=False, restrict_remove=False)
FLAG_NAMES = ("out_init", "restrict_to_in", "restrict_remove")


def full_init(n):
    return coarsest_pair(StateRelation.full(n))


def test_lrt_l1_full(l1):
    pair, _ = lrt(l1, full_init(3))
    assert pair.blocks == ((0, 2), (1,))
    assert sorted(pair.rel_pairs()) == [(0, 0), (1, 1)]
    assert pair.induced_relation() == max_simulation_naive(l1, StateRelation.full(3)).relation


def test_lrt_l3_full(l3):
    pair, _ = lrt(l3, full_init(3))
    assert pair.blocks == ((0,), (1,), (2,))
    assert pair.induced_relation() == max_simulation_naive(l3, StateRelation.full(3)).relation


def test_identity_initial_is_returned_unchanged(l1):
    init = coarsest_pair(StateRelation.identity(3))
    pair, _ = lrt(l1, init)
    assert pair == init
    pair, metrics = olrt(l1, init)
    assert pair == init


def test_olrt_matches_lrt_on_fixtures(l1, l3):
    for lts in (l1, l3):
        init = full_init(3)
        pair, _ = olrt(lts, init)
        assert pair == lrt(lts, init)[0]


def test_olrt_l1_zero_iterations(l1):
    # the output-preorder refinement already separates {p,r} from {q}
    pair, metrics = olrt(l1, full_init(3))
    assert metrics.iterations == 0
    assert pair.blocks == ((0, 2), (1,))


def test_olrt_l3_single_pruning_iteration(l3):
    pair, metrics = olrt(l3, full_init(3))
    assert metrics.iterations == 1
    assert metrics.splits == 1
    assert pair.blocks == ((0,), (1,), (2,))
    assert sorted(pair.rel_pairs()) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


def test_engine_rejects_bad_initial(l1):
    # a bad initial pair cannot be built, so no engine ever receives one
    with pytest.raises(PartitionError, match="not coarsest"):
        PartitionRelationPair.from_labels([0, 1, 2], np.ones((3, 3), dtype=bool))
    with pytest.raises(PartitionError, match="not reflexive"):
        PartitionRelationPair.from_labels([0, 1, 2], np.zeros((3, 3), dtype=bool))
    with pytest.raises(EngineError):
        olrt(l1, PartitionRelationPair.full(2))


# -- stepping -------------------------------------------------------------------


def test_step_false_at_fixpoint(l1):
    state = EngineState(l1, full_init(3))
    assert not engine_step(state)  # L1 needs zero iterations
    before = state.current_pair()
    assert not engine_step(state)
    assert state.current_pair() == before


def test_step_l3_trace(l3):
    state = EngineState(l3, full_init(3))
    start = state.current_pair()
    assert start.blocks == ((0, 1), (2,))  # {p,r} and {s} after the Out refinement
    assert engine_step(state)
    after = state.current_pair()
    assert after.blocks == ((0,), (1,), (2,))
    assert (0, 1) not in set(after.rel_pairs())  # ({p},{r}) was pruned
    assert not engine_step(state)


def working_relation(state):
    # the engine's live relation on states; mid-run it need not be a preorder,
    # so current_pair() refuses it and this reads the working arrays directly
    return StateRelation(state._rel[np.ix_(state._block_of, state._block_of)])


def test_stepping_monotone_and_bounded():
    for seed in range(25):
        n = 2 + seed % 6
        lts = random_lts(n, 2, edge_prob=0.4, seed=seed)
        init = coarsest_pair(random_preorder(n, edge_prob=0.5, seed=seed))
        state = EngineState(lts, init)
        prev = working_relation(state)
        oracle = max_simulation_naive(lts, init.induced_relation()).relation
        steps = 0
        bound = n * lts.symbol_count * n + n + 1
        while engine_step(state):
            steps += 1
            assert steps <= bound
            cur = working_relation(state)
            assert cur.issubset(prev)
            assert oracle.issubset(cur)  # always a superset of the fixpoint
            prev = cur
        assert prev == oracle


def test_current_pair_is_coarsest_or_refused():
    # a pair is handed out before the first step and once no Remove set is
    # pending; between steps with one pending the call raises, since the
    # working relation may be neither coarsest nor transitive there
    refused = 0
    for seed in range(300):
        lts = random_lts(6, 2, n_edges=8, seed=seed)
        for flags in itertools.product((True, False), repeat=3):
            state = EngineState(lts, full_init(6), **dict(zip(FLAG_NAMES, flags)))
            validate_coarsest(state.current_pair())
            pending = False
            while engine_step(state):
                try:
                    pair = state.current_pair()
                except EngineError:
                    refused += 1
                    pending = True  # so the next step must progress
                    continue
                validate_coarsest(pair)
                assert not engine_step(state)  # handed out mid-run only at the fixpoint
                pending = False
                break
            assert not pending
            validate_coarsest(state.current_pair())
    assert refused


# -- equivalence and variant sweeps ----------------------------------------------


VARIANTS = {
    "skip_off": dict(out_init=True, restrict_to_in=False, restrict_remove=True),
    "remove_restriction_off": dict(out_init=True, restrict_to_in=True, restrict_remove=False),
    "plain_init_full_allocation": dict(out_init=False, restrict_to_in=False, restrict_remove=False),
}


def test_engines_agree_with_oracle_random():
    for seed in range(60):
        n = 1 + seed % 8
        m = 1 + seed % 4
        lts = random_lts(n, m, edge_prob=[0.1, 0.3, 0.6][seed % 3], seed=seed)
        init_rel = random_preorder(n, edge_prob=0.4, seed=seed + 500)
        init = coarsest_pair(init_rel)
        oracle = max_simulation_naive(lts, init_rel).relation
        pair_o, _ = olrt(lts, init)
        pair_l, _ = lrt(lts, init)
        assert pair_o.induced_relation() == oracle
        assert pair_l.induced_relation() == oracle
        assert pair_o == pair_l == coarsest_pair(oracle)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_disabled_optimizations_preserve_result(variant):
    for seed in range(25):
        n = 2 + seed % 7
        lts = random_lts(n, 1 + seed % 3, edge_prob=0.35, seed=seed)
        init = coarsest_pair(random_preorder(n, edge_prob=0.45, seed=seed + 77))
        reference, _ = olrt(lts, init)
        pair, _ = run_engine(lts, init, **VARIANTS[variant])
        assert pair.induced_relation() == reference.induced_relation()


def test_output_laws_random():
    for seed in range(40):
        n = 2 + seed % 7
        lts = random_lts(n, 2, edge_prob=0.35, seed=seed)
        init_rel = random_preorder(n, edge_prob=0.5, seed=seed)
        pair, _ = olrt(lts, coarsest_pair(init_rel))
        rel = pair.induced_relation()
        assert is_simulation(lts, rel)
        assert rel.issubset(init_rel)
        # coarseness: relation on blocks is antisymmetric, no mergeable blocks
        k = pair.block_count
        mutual = pair.rel & pair.rel.T & ~np.eye(k, dtype=bool)
        assert not mutual.any()
        for i in range(k):
            for j in range(i + 1, k):
                assert not (
                    np.array_equal(pair.rel[i], pair.rel[j])
                    and np.array_equal(pair.rel[:, i], pair.rel[:, j])
                )


# -- audits and metrics -----------------------------------------------------------


def test_optimized_mode_allocates_only_entering_symbols():
    # no Remove set or counter segment may exist for a symbol outside in(B);
    # both live at the block's offsets, so an unset offset means neither
    for seed in range(12):
        n = 3 + seed % 6
        lts = random_lts(n, 3, edge_prob=0.3, seed=seed, sparsity=0.7)
        state = EngineState(lts, full_init(n))
        while True:
            for bid in range(state._nb):
                entering = lts.in_mask[state._members[bid]].any(axis=0)
                allocated = state._off[bid] >= 0
                assert not (allocated & ~entering).any()
            if not engine_step(state):
                break


def test_counter_audit_runs_clean():
    for seed in range(20):
        n = 2 + seed % 7
        lts = random_lts(n, 1 + seed % 3, edge_prob=0.4, seed=seed)
        init = coarsest_pair(random_preorder(n, edge_prob=0.4, seed=seed))
        run_engine(lts, init, audit=True)
        run_engine(
            lts, init, out_init=False, restrict_to_in=False, restrict_remove=False,
            audit=True,
        )


def test_batched_prune_multi_block_groups():
    # A step that cuts several D blocks under one C that the same symbol
    # enters decrements them in one scatter; counts are those of
    # per-(C, D, b) updates.
    lts = random_lts(100, 3, n_edges=150, sparsity=0.67, seed=1)
    init = full_init(lts.state_count)
    oracle = max_simulation_naive(lts, StateRelation.full(lts.state_count)).relation
    corners = {
        "olrt": ({}, (2702, 3305, 104, 56, 52)),
        "lrt": (LRT_FLAGS, (18900, 9120, 235, 62, 0)),
    }
    for flags, expected in corners.values():
        state = EngineState(lts, init, audit=True, **flags)
        widest = []
        prune = state._prune

        def spy(a, b_pre, remove, d_blocks):
            # per cut C: the most cut D blocks one allocated symbol enters
            for cid in np.unique(state._block_of[state._preds_of(a, b_pre)]):
                cut = [d for d in d_blocks if state._rel[cid, d]]
                entered = sum(lts.in_mask[state._members[d]].any(axis=0) for d in cut)
                widest.append(int(np.max(entered * (state._off[cid] >= 0), initial=0)))
            return prune(a, b_pre, remove, d_blocks)

        state._prune = spy
        state.run()
        assert max(widest) >= 2
        assert state.current_pair().induced_relation() == oracle
        m = state.metrics
        assert (
            m.counters_allocated, m.remove_enqueued, m.iterations, m.splits,
            m.skipped_iterations,
        ) == expected


def test_counter_pin_loop_shaped_input():
    # the counters of a refinement-heavy run, as the per-(block, symbol)
    # engine counted them; a change of the activation order moves them
    lts = random_lts(300, 4, n_edges=1200, sparsity=0.25, seed=7)
    init = PartitionRelationPair.full(300)
    pins = [
        ({}, (56834, 51301, 1165, 292, 158)),
        (LRT_FLAGS, (356400, 180785, 1706, 296, 0)),
    ]
    pairs = []
    for flags, expected in pins:
        pair, m = run_engine(lts, init, **flags)
        assert (
            m.counters_allocated, m.remove_enqueued, m.iterations, m.splits,
            m.skipped_iterations,
        ) == expected
        pairs.append(pair)
    assert pairs[0] == pairs[1]
    assert pairs[0].block_count == 297


def _clone_start(k=120, clones=3, seed=3):
    """A minimize-shaped start: each kernel state of a random LTS cloned,
    one in ten clone edges redirected at random, and the initial pair the
    closure of a cycle through each clone class plus a few cross pairs."""
    kernel = random_lts(k, 8, n_edges=4 * k, sparsity=0.25, seed=seed)
    rng = np.random.default_rng(seed)
    n = k * clones
    triples = [
        (
            u * clones + j,
            a,
            int(rng.integers(n)) if rng.random() < 0.1 else w * clones + int(rng.integers(clones)),
        )
        for u, a, w in kernel.transitions()
        for j in range(clones)
    ]
    lts = Lts.from_ids([f"s{i}" for i in range(n)], kernel.symbol_names, triples)
    gen = StateRelation.empty(n)
    for u in range(k):
        for j in range(clones):
            gen.add(u * clones + j, u * clones + (j + 1) % clones)
    out = kernel.out_mask
    below = ~(out[:, None, :] & ~out[None, :, :]).any(axis=2)
    for u, v in np.argwhere(below & (rng.random((k, k)) < 0.05)):
        gen.add(u * clones, v * clones + 1)
    return lts, closure_pair(n, *gen.id_pairs())


def _upward_start():
    ta = random_ta(100, 6, 3, 1000, seed=0)
    tr = upward_translation(ta, downward_simulation(ta).induced_relation())
    return tr.lts, tr.initial


@pytest.mark.parametrize(
    "start, blocks, pins, final",
    [
        (_clone_start, 120, [(68310, 74063, 1056, 222, 159), (984960, 876763, 2875, 222, 0)], 342),
        (
            _upward_start,
            812,
            [(235910, 229430, 1993, 589, 78), (17740944, 15597356, 11610, 592, 0)],
            1404,
        ),
    ],
    ids=["clone-closure", "upward-ta"],
)
def test_counter_pin_multi_block_start(start, blocks, pins, final):
    # starts with hundreds of initial blocks: the counter initialization
    # activates them in ascending order, and any other order moves these
    lts, init = start()
    assert init.block_count == blocks
    pairs = []
    for flags, expected in zip(({}, LRT_FLAGS), pins):
        pair, m = run_engine(lts, init, **flags)
        assert (
            m.counters_allocated, m.remove_enqueued, m.iterations, m.splits,
            m.skipped_iterations,
        ) == expected
        pairs.append(pair)
    assert pairs[0] == pairs[1]
    assert pairs[0].block_count == final


def test_initial_counters_match_definition():
    # over 255 transitions per symbol with uint8 counters, so the prefix
    # sums of the counter initialization wrap
    lts = random_lts(60, 2, n_edges=700, seed=4)
    init = coarsest_pair(random_preorder(60, edge_prob=0.05, seed=4))
    for flags in ({}, LRT_FLAGS):
        state = EngineState(lts, init, **flags)
        assert state._cnt.dtype == np.uint8
        assert min(len(lts.succ_data[a]) for a in range(2)) > 255
        enqueued = 0
        for b in range(state._nb):
            above = [bool(state._rel[b, c]) for c in state._block_of.tolist()]
            for a in np.flatnonzero(state._off[b] >= 0).tolist():
                expected = [
                    sum(above[w] for w in lts.successors(u, a).tolist())
                    for u in state._adj.slot_state[a].tolist()
                ]
                seg = state._segment(b, a)
                assert state._cnt[seg].tolist() == expected
                assert state._rmv[seg].tolist() == [c == 0 for c in expected]
                assert (a in state._pending[b]) == (0 in expected)
                enqueued += expected.count(0)
        assert state.metrics.remove_enqueued == enqueued
        assert state._stack == [b for b in range(state._nb) if state._pending[b]]


@pytest.mark.parametrize("few_states", [0, 10**9], ids=["row-index", "slices"])
def test_chunked_init_and_either_predecessor_gather_agree(monkeypatch, few_states):
    # one block per initialization chunk, and every block on one side of the
    # predecessor-gather threshold: same pair, same counters
    import simred.engine

    lts, init = _clone_start()
    expected = [run_engine(lts, init, **flags) for flags in ({}, LRT_FLAGS)]
    monkeypatch.setattr(simred.engine, "_GATHER_CELLS", 1)
    monkeypatch.setattr(simred.engine, "_FEW_STATES", few_states)
    for flags, (pair, metrics) in zip(({}, LRT_FLAGS), expected):
        got, got_metrics = run_engine(lts, init, **flags)
        assert got == pair
        assert replace(got_metrics, wall_time_ms=0) == replace(metrics, wall_time_ms=0)


def test_validate_coarsest_once_per_run(l3, monkeypatch):
    # the pair was checked when it was built; no run checks it again
    import simred.partition

    calls = []
    monkeypatch.setattr(simred.partition, "validate_coarsest", calls.append)
    init = full_init(3)
    for engine in (olrt, lrt):
        engine(l3, init)
    for flags in itertools.product((True, False), repeat=3):
        run_engine(l3, init, **dict(zip(FLAG_NAMES, flags)))
    assert calls == []


def test_counter_arena_holds_live_segments_only():
    # live segments lie inside the arena, apart from each other and from
    # every free-listed segment; offset rows past the last block stay unset
    lts = random_lts(200, 3, n_edges=600, sparsity=0.67, seed=3)
    for flags in ({}, LRT_FLAGS):
        state = EngineState(lts, full_init(lts.state_count), **flags)
        freed = False
        while True:
            nb = state._nb
            assert (state._off[nb:] == -1).all()
            live = [(state._segment(bid, a), a) for bid, a in np.argwhere(state._off[:nb] >= 0)]
            assert sum(seg.stop - seg.start for seg, _ in live) == state._cells
            assert not any(seg.start in state._free[a] for seg, a in live)
            width = state._adj.width
            free = [slice(o, o + width[a]) for a, offs in enumerate(state._free) for o in offs]
            spans = sorted(
                (seg.start, seg.stop) for seg in [s for s, _ in live] + free if seg.stop > seg.start
            )
            assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))
            assert all(stop <= state._top <= len(state._cnt) for _, stop in spans)
            freed = freed or bool(free)
            if not engine_step(state):
                break
        assert state.metrics.splits > 0
        assert freed == state.restrict_to_in  # only OLRT drops segments


def test_counter_dtype_follows_out_degree():
    # s0 has 300 a-successors, 256 of them with a b-move, so its counter
    # against that block reads 0 in 8 bits and would wrongly drop s302
    # (whose a-successors are among s0's) from below s0
    n = 303
    edges = [(0, 0, w) for w in range(1, 301)]
    edges += [(302, 0, w) for w in range(45, 101)]
    edges += [(w, 1, 301) for w in range(45, 301)]
    lts = Lts.from_ids([f"s{i}" for i in range(n)], ["a", "b"], edges)
    oracle = max_simulation_naive(lts, StateRelation.full(n)).relation
    for flags in ({}, LRT_FLAGS):
        state = EngineState(lts, full_init(n), **flags).run()
        assert state._cnt.dtype == np.uint16
        assert state.current_pair().induced_relation() == oracle
    small = random_lts(20, 2, n_edges=60, seed=0)
    assert EngineState(small, full_init(20))._cnt.dtype == np.uint8
    star = Lts.from_ids(
        [f"s{i}" for i in range(70_000)], ["a"], [(0, 0, w) for w in range(70_000)]
    )
    assert _Adjacency(star, True).count_dtype == np.int32


def test_block_capacity_stays_within_state_count():
    # on a 21-state a-chain every state is its own class, so the blocks
    # outgrow the initial capacity of 4 and doubling would reach 32
    n = 21
    lts = Lts.from_ids(
        [f"s{i}" for i in range(n)], ["a"], [(i, 0, i + 1) for i in range(n - 1)]
    )
    state = EngineState(lts, full_init(n)).run()
    assert state._rel.shape[0] <= max(4, n)
    pair, metrics = olrt(lts, full_init(n))
    assert pair.block_count == n
    assert state.current_pair() == pair
    assert state.metrics == replace(metrics, wall_time_ms=0.0)


def test_lrt_counter_allocation_formula():
    for seed in range(10):
        n = 3 + seed % 5
        m = 1 + seed % 3
        lts = random_lts(n, m, edge_prob=0.4, seed=seed)
        pair, metrics = run_engine(
            lts, full_init(n), out_init=False, restrict_to_in=False,
            restrict_remove=False,
        )
        assert metrics.counters_allocated == m * pair.block_count * n


def test_resource_dominance_and_strictness():
    strict_seen = False
    for seed in range(20):
        n = 3 + seed % 6
        m = 2 + seed % 3
        lts = random_lts(n, m, edge_prob=0.25, seed=seed, sparsity=0.6)
        init = full_init(n)
        _, om = olrt(lts, init)
        _, lm = run_engine(
            lts, init, out_init=False, restrict_to_in=False, restrict_remove=False
        )
        assert om.counters_allocated <= lm.counters_allocated
        some_gap = bool((lts.out_mask.sum(axis=1) < m).any())
        if some_gap and om.counters_allocated < lm.counters_allocated:
            strict_seen = True
    assert strict_seen


def test_metrics_fields_nonnegative(l3):
    _, metrics = olrt(l3, full_init(3))
    d = metrics.as_dict()
    assert set(d) == {
        "counters_allocated", "remove_enqueued", "iterations", "splits",
        "skipped_iterations", "wall_time_ms",
    }
    assert all(v >= 0 for v in d.values())
