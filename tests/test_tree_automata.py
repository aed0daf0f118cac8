import numpy as np
import pytest

from simred import (
    Environment,
    PartitionRelationPair,
    StateRelation,
    TreeAutomaton,
    TreeError,
    coarsest_pair,
    downward_naive,
    downward_simulation,
    downward_translation,
    lhs_and_envs,
    serialize_timbuk,
    ta_quotient,
    upward_naive,
    upward_simulation,
    upward_translation,
)
from simred.generate import random_preorder, random_ta
from ta_reference import initial_pair_matches


def lts_names(tr):
    return tr.lts.state_names


def edges_by_name(lts):
    return {
        (lts.state_names[u], lts.symbol_names[a], lts.state_names[w])
        for u, a, w in lts.transitions()
    }


def test_lhs_and_envs_t1(t1):
    lhs, envs = lhs_and_envs(t1)
    assert set(lhs) == {(), (0,), (1,)}
    # both g-rules share the single environment with the hole in position 1
    assert envs == (Environment(symbol=1, hole=0, others=(), target=1),)


def test_lhs_and_envs_nullary_only():
    ta = TreeAutomaton(["q"], ["a"], [0], [((), 0, 0)], [])
    lhs, envs = lhs_and_envs(ta)
    assert lhs == ((),)
    assert envs == ()


def test_envs_of_binary_rule():
    ta = TreeAutomaton(["q0", "q1", "q2"], ["f"], [2], [((0, 1), 0, 2)], [])
    _, envs = lhs_and_envs(ta)
    assert set(envs) == {
        Environment(symbol=0, hole=0, others=(1,), target=2),
        Environment(symbol=0, hole=1, others=(0,), target=2),
    }


def test_downward_translation_t1(t1):
    tr = downward_translation(t1)
    assert len(lts_names(tr)) == 5
    assert edges_by_name(tr.lts) == {
        ("q0", "a", "()"),
        ("q1", "g", "(q0)"),
        ("q1", "g", "(q1)"),
        ("(q0)", "#1", "q0"),
        ("(q1)", "#1", "q1"),
    }
    kinds = [kind for kind, _ in tr.back_map]
    assert kinds == ["state", "state", "lhs", "lhs", "lhs"]


def test_downward_translation_single_nullary_rule():
    ta = TreeAutomaton(["q"], ["a"], [0], [((), 0, 0)], [0])
    tr = downward_translation(ta)
    assert tr.lts.state_count == 2
    assert edges_by_name(tr.lts) == {("q", "a", "()")}


def test_downward_translation_structure_random():
    for seed in range(25):
        ta = random_ta(5, 3, 2, 9, seed=seed)
        tr = downward_translation(ta)
        lhs, _ = lhs_and_envs(ta)
        assert tr.lts.state_count == ta.state_count + len(lhs)
        for sid, (kind, payload) in enumerate(tr.back_map):
            if kind == "lhs":
                expect = {ta.symbol_count + i for i in range(len(payload))}
                assert set(np.flatnonzero(tr.lts.out_mask[sid]).tolist()) == expect


def test_specialized_init_equals_generic_downward(t1):
    tas = [t1] + [random_ta(5, 3, 2, 9, seed=s) for s in range(30)]
    for seed, ta in enumerate(tas):
        assert initial_pair_matches(ta, downward_translation(ta))
        d = random_preorder(ta.state_count, edge_prob=0.3, seed=seed)
        assert initial_pair_matches(ta, downward_translation(ta, coarsest_pair(d)), init=d)


def test_upward_translation_t1(t1):
    d = downward_naive(t1)
    tr = upward_translation(t1, d)
    assert tr.lts.state_count == 3
    env_name = tr.lts.state_names[2]
    assert edges_by_name(tr.lts) == {
        ("q0", "#1", env_name),
        ("q1", "#1", env_name),
        (env_name, "g", "q1"),
    }
    # initial preorder: final-state implication plus reflexive environment pair
    assert sorted(tr.initial.induced_relation().pairs()) == [(0, 0), (0, 1), (1, 1), (2, 2)]


def test_upward_translation_requires_reflexive_d(t1):
    with pytest.raises(TreeError, match="reflexive"):
        upward_translation(t1, StateRelation.empty(2))


def test_upward_translation_rejects_non_transitive_d():
    # reflexive but not transitive: (0,1) and (1,2) without (0,2); the
    # witness names automaton states, not blocks of the translated LTS
    d = StateRelation.identity(5)
    d.add(0, 1)
    d.add(1, 2)
    for seed in range(20):
        ta = random_ta(5, 3, 2, 10, seed=seed)
        with pytest.raises(TreeError, match=r"not transitive: \(0,1\) and \(1,2\)"):
            upward_translation(ta, d)


def test_envs_with_distinct_symbols_not_out_related():
    ta = TreeAutomaton(
        ["q0", "q"], ["f", "g"], [1, 1], [((0,), 0, 1), ((0,), 1, 1)], []
    )
    tr = upward_translation(ta, StateRelation.identity(2))
    env_ids = [sid for sid, (kind, _) in enumerate(tr.back_map) if kind == "env"]
    assert len(env_ids) == 2
    e1, e2 = env_ids
    assert not np.array_equal(tr.lts.out_mask[e1], tr.lts.out_mask[e2])
    induced = tr.initial.induced_relation()
    assert not induced.has(e1, e2) and not induced.has(e2, e1)


def test_specialized_init_equals_generic_upward(t1):
    tas = [t1] + [random_ta(5, 3, 2, 9, seed=s) for s in range(30)]
    for ta in tas:
        d = downward_naive(ta)
        assert initial_pair_matches(ta, upward_translation(ta, d), d)


def test_downward_simulation_t1(t1):
    d = downward_simulation(t1)
    assert set(d.induced_relation().pairs()) == {(0, 0), (1, 1)}


def test_downward_simulation_no_rules_full():
    ta = TreeAutomaton(["x", "y"], ["f"], [1], [], [])
    assert downward_simulation(ta) == PartitionRelationPair.full(2)


def test_downward_simulation_matches_oracle_random():
    for seed in range(60):
        ta = random_ta(1 + seed % 6, 1 + seed % 3, 2, seed % 11, seed=seed)
        expect = coarsest_pair(downward_naive(ta))
        for algorithm in ("olrt", "lrt"):
            assert downward_simulation(ta, algorithm=algorithm) == expect, algorithm


def test_downward_inside_a_preorder_matches_oracle_and_the_cli_check(tmp_path, capsys):
    # inside a random preorder D, and inside the maximal simulation in D,
    # which is a downward simulation and so is accepted as --init
    from simred.cli import main
    from simred.lts import serialize_relation

    accepted = rejected = 0
    for seed in range(40):
        ta = random_ta(1 + seed % 6, 1 + seed % 3, 2, seed % 11, seed=seed)
        path = tmp_path / "a.timbuk"
        path.write_text(serialize_timbuk(ta))
        d = random_preorder(ta.state_count, edge_prob=0.4, seed=seed)
        for given in (d, downward_naive(ta, init=d)):
            expect = coarsest_pair(downward_naive(ta, init=given))
            rel = tmp_path / "d.rel"
            rel.write_text(serialize_relation(given, ta))
            for algorithm in ("olrt", "lrt"):
                got = downward_simulation(ta, algorithm, coarsest_pair(given))
                assert got == expect, (seed, algorithm)
                code = main(["ta-up", str(path), "--init", str(rel), "--algo", algorithm])
                capsys.readouterr()
                assert code == (0 if expect == coarsest_pair(given) else 3), (seed, algorithm)
                accepted += code == 0
                rejected += code == 3
    assert accepted and rejected


def test_upward_simulation_t1(t1):
    d = coarsest_pair(downward_naive(t1))
    u = upward_simulation(t1, d)
    assert set(u.induced_relation().pairs()) == {(0, 0), (0, 1), (1, 1)}


def test_upward_simulation_vacuous_case():
    # no finals and no left-hand-side occurrences: everything relates
    ta = TreeAutomaton(["x", "y"], ["a"], [0], [((), 0, 0)], [])
    u = upward_simulation(ta, coarsest_pair(StateRelation.identity(2)))
    assert u == PartitionRelationPair.full(2)


def test_upward_simulation_matches_oracle_random():
    for seed in range(60):
        ta = random_ta(1 + seed % 6, 1 + seed % 3, 2, seed % 11, seed=seed)
        for algorithm in ("olrt", "lrt"):
            d = downward_simulation(ta, algorithm=algorithm)
            u = upward_simulation(ta, d, algorithm=algorithm)
            assert u == coarsest_pair(upward_naive(ta, d.induced_relation())), algorithm


def test_lhs_extension_correspondence():
    # equal-length lhs nodes relate in the computed simulation iff
    # componentwise downward-related; shorter ones additionally embed as
    # prefixes (their position moves are a subset)
    for seed in range(20):
        ta = random_ta(4, 2, 2, 8, seed=seed)
        tr = downward_translation(ta)
        from simred import olrt

        pair, _ = olrt(tr.lts, tr.initial)
        sim = pair.induced_relation()
        d = downward_naive(ta)
        lhs_ids = {
            payload: sid for sid, (kind, payload) in enumerate(tr.back_map) if kind == "lhs"
        }
        for l1, i1 in lhs_ids.items():
            for l2, i2 in lhs_ids.items():
                expected = len(l1) <= len(l2) and all(
                    d.has(a, b) for a, b in zip(l1, l2)
                )
                assert sim.has(i1, i2) == expected


def test_simulations_are_preorders_random():
    for seed in range(25):
        ta = random_ta(5, 2, 2, 8, seed=seed)
        d = downward_simulation(ta)
        assert d.induced_relation().is_preorder()
        u = upward_simulation(ta, d)
        assert u.induced_relation().is_preorder()


# -- quotienting -------------------------------------------------------------


def test_ta_quotient_identity(t1):
    assert ta_quotient(t1, coarsest_pair(StateRelation.identity(2))) == t1


def test_ta_quotient_by_downward_equivalence_t1(t1):
    pair = coarsest_pair(downward_naive(t1))
    assert ta_quotient(t1, pair) == t1  # D is the identity here


def test_ta_quotient_single_block(t1):
    reduced = ta_quotient(t1, PartitionRelationPair.full(2))
    assert reduced.state_count == 1
    assert serialize_timbuk(reduced) == (
        "Ops a:0 g:1\nAutomaton A\nStates q0\nFinal States q0\nTransitions\n"
        "a() -> q0\ng(q0) -> q0\n"
    )


def test_ta_quotient_validates(t1):
    # a pair cannot repeat a state (test_partition.py), but it can miss some
    with pytest.raises(TreeError):
        ta_quotient(t1, PartitionRelationPair.full(1))
