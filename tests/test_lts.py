import numpy as np
import pytest

from simred import (
    Lts,
    LtsError,
    LtsParseError,
    StateRelation,
    build_lts,
    coarsest_pair,
    is_simulation,
    parse_lts,
    parse_relation,
    quotient,
    serialize_lts,
    serialize_relation,
)
from simred.cli import main
from simred.generate import random_lts, random_ta
from simred.tree import downward_translation, serialize_timbuk, upward_translation
from lts_reference import out_preorder


def names(lts, ids):
    return {lts.state_names[v] for v in ids}


def out_syms(lts, v):
    return frozenset(np.flatnonzero(lts.out_mask[v]).tolist())


def in_syms(lts, v):
    return frozenset(np.flatnonzero(lts.in_mask[v]).tolist())


def emitters(lts, a):
    return np.flatnonzero(lts.out_mask[:, a]).tolist()


def block_in(lts, states):
    return frozenset(np.flatnonzero(lts.in_mask[list(states)].any(axis=0)).tolist())


def test_build_single_edge():
    lts = build_lts([("p", "a", "q")])
    assert lts.state_count == 2
    assert lts.symbol_count == 1
    assert list(lts.transitions()) == [(0, 0, 1)]


def test_build_deduplicates():
    once = build_lts([("p", "a", "q")])
    twice = build_lts([("p", "a", "q"), ("p", "a", "q")])
    assert once == twice


def test_build_l1_reverse_adjacency(l1):
    q = l1.state_id("q")
    a = l1.symbol_id("a")
    assert names(l1, l1.predecessors(q, a)) == {"p", "r"}


def test_build_empty_errors():
    with pytest.raises(LtsError, match="empty system"):
        build_lts([])


def test_build_declared_states_only():
    lts = build_lts([], states=["x"])
    assert lts.state_count == 1 and lts.symbol_count == 0
    assert lts.transition_count == 0


def test_forward_reverse_consistency():
    lts = random_lts(12, 3, edge_prob=0.2, seed=5)
    for a in range(lts.symbol_count):
        for u in range(lts.state_count):
            for w in lts.successors(u, a):
                assert u in lts.predecessors(w, a)
        for w in range(lts.state_count):
            for u in lts.predecessors(w, a):
                assert w in lts.successors(u, a)


def test_in_out_sets_l1(l1):
    p, q, r = (l1.state_id(s) for s in "pqr")
    a, b = l1.symbol_id("a"), l1.symbol_id("b")
    assert out_syms(l1, p) == {a}
    assert out_syms(l1, q) == {b}
    assert out_syms(l1, r) == {a}
    assert in_syms(l1, q) == {a, b}
    assert in_syms(l1, p) == frozenset() and in_syms(l1, r) == frozenset()
    assert names(l1, emitters(l1, a)) == {"p", "r"}
    assert names(l1, emitters(l1, b)) == {"q"}
    assert block_in(l1, [p, r]) == frozenset()
    assert block_in(l1, [p, q]) == {a, b}


def test_in_out_sets_edgeless():
    lts = build_lts([], states=["x"], symbols=["a"])
    assert out_syms(lts, 0) == frozenset()
    assert in_syms(lts, 0) == frozenset()
    assert emitters(lts, 0) == []


def test_out_preorder_l1(l1):
    p, q, r = (l1.state_id(s) for s in "pqr")
    expected = StateRelation.from_pairs(3, [(p, p), (q, q), (r, r), (p, r), (r, p)])
    assert out_preorder(l1) == expected


def test_out_preorder_edgeless_full():
    lts = build_lts([], states=["x", "y"], symbols=["a"])
    assert out_preorder(lts) == StateRelation.full(2)


def test_out_preorder_l3(l3):
    p, r, s = (l3.state_id(x) for x in "prs")
    expected = StateRelation.from_pairs(
        3, [(p, p), (r, r), (s, s), (p, r), (r, p), (s, p), (s, r)]
    )
    assert out_preorder(l3) == expected


def test_out_preorder_always_preorder():
    for seed in range(20):
        lts = random_lts(8, 3, edge_prob=0.3, seed=seed)
        assert out_preorder(lts).is_preorder()


def test_is_simulation_empty_and_identity(l1):
    assert is_simulation(l1, StateRelation.empty(3))
    assert is_simulation(l1, StateRelation.identity(3))


def test_is_simulation_l1_cases(l1):
    p, q, r = (l1.state_id(s) for s in "pqr")
    good = StateRelation.identity(3)
    good.add(p, r)
    assert is_simulation(l1, good)
    bad = StateRelation.identity(3)
    bad.add(q, p)
    assert not is_simulation(l1, bad)


def test_quotient_identity_partition(l1):
    pair = coarsest_pair(StateRelation.identity(3))
    assert quotient(l1, pair) == l1


def test_quotient_l1_merge(l1):
    p, q, r = (l1.state_id(s) for s in "pqr")
    from simred import PartitionRelationPair

    labels = np.zeros(3, dtype=np.int64)
    labels[q] = 1
    pair = PartitionRelationPair.from_labels(labels, [[True, False], [False, True]])
    reduced = quotient(l1, pair)
    assert reduced.state_count == 2
    assert serialize_lts(reduced) == "p a q\nq b q\n"


def test_quotient_single_block(l1):
    from simred import PartitionRelationPair

    pair = PartitionRelationPair.from_labels([0, 0, 0], [[True]])
    reduced = quotient(l1, pair)
    assert reduced.state_count == 1
    assert serialize_lts(reduced) == "p a p\np b p\n"


# -- text formats ------------------------------------------------------------


def test_parse_serialize_round_trip(l1):
    text = serialize_lts(l1)
    assert parse_lts(text) == l1
    assert serialize_lts(parse_lts(text)) == text


def test_parse_comments_and_blank_lines():
    lts = parse_lts("# header\n\n  p a q  \n# trailing\n")
    assert lts.state_count == 2


def test_parse_inline_comment():
    # identifiers cannot hold '#', so a comment may follow a transition
    lts = parse_lts("p a q # note\nq b p#x\n")
    assert lts == parse_lts("p a q\nq b p\n")


def test_parse_wrong_token_count():
    with pytest.raises(LtsParseError, match="expected 3 tokens") as err:
        parse_lts("p a q\np a\n")
    assert err.value.line == 2


def test_parse_bad_identifier():
    with pytest.raises(LtsParseError, match="invalid identifier"):
        parse_lts("p a* q\n")


def test_parse_empty_file():
    with pytest.raises(LtsParseError, match="empty system"):
        parse_lts("# nothing here\n")


def test_relation_file_round_trip(l1):
    rel = StateRelation.from_pairs(3, [(0, 1), (2, 2)])
    text = serialize_relation(rel, l1)
    assert text == "p q\nr r\n"
    assert parse_relation(text, l1) == rel


def test_relation_file_inline_comment(l1):
    rel = parse_relation("p q # note\nr r#x\n", l1)
    assert rel == StateRelation.from_pairs(3, [(0, 1), (2, 2)])


def test_relation_file_errors(l1):
    with pytest.raises(LtsParseError, match="expected 2 tokens"):
        parse_relation("p q r\n", l1)
    with pytest.raises(LtsError, match="unknown state"):
        parse_relation("p zz\n", l1)


def test_lts_from_ids_range_checks():
    # the public constructor is where a hand-built LTS is checked
    cases = [
        ((["x", "x"], ["a"], []), "duplicate state names"),
        ((["x"], ["a", "a"], []), "duplicate symbol names"),
        ((["x"], ["a"], [(0, 0, 5)]), "state id out of range in transition (0,0,5)"),
        ((["x"], ["a"], [(-1, 0, 0)]), "state id out of range in transition (-1,0,0)"),
        ((["x"], ["a"], [(0, 3, 0)]), "symbol id out of range in transition (0,3,0)"),
        ((["x y"], ["a"], []), "invalid state name 'x y'"),
        ((["x"], [""], []), "invalid symbol name ''"),
        (([1], ["a"], []), "invalid state name 1"),
        ((["(q0)"], ["#1"], []), "invalid state name '(q0)'"),
    ]
    for args, message in cases:
        with pytest.raises(LtsError) as err:
            Lts.from_ids(*args)
        assert str(err.value) == message


def test_build_lts_checks_names_through_from_ids():
    for triple, message in (
        (("a b", "x", "c"), "invalid state name 'a b'"),
        (("a", "x", ""), "invalid state name ''"),
        (("a", "x#", "c"), "invalid symbol name 'x#'"),
        (("a", None, "c"), "invalid symbol name None"),
        # unhashable, so never interned
        (("a", ["x"], "c"), "invalid symbol name ['x']"),
        (({"a"}, "x", "c"), "invalid state name {'a'}"),
    ):
        with pytest.raises(LtsError) as err:
            build_lts([triple])
        assert str(err.value) == message
    with pytest.raises(LtsError, match="invalid state name 'p q'"):
        build_lts([], states=["p q"])
    with pytest.raises(LtsError, match=r"invalid symbol name \['a'\]"):
        build_lts([], states=["p"], symbols=[["a"]])


def test_builders_never_enter_the_checked_constructor(monkeypatch, tmp_path, capsys):
    # parse_lts, quotient, random_lts and the tree translations build valid
    # systems by construction, so neither they nor any command re-checks one
    def refuse(*args):
        raise AssertionError("Lts.from_ids entered")

    monkeypatch.setattr(Lts, "from_ids", refuse)
    lts = parse_lts("p a q\nq b q\nr a q\n")
    assert quotient(lts, coarsest_pair(StateRelation.full(3))).state_count == 1
    assert random_lts(30, 3, n_edges=90, seed=1).state_count == 30
    ta = random_ta(6, 3, 2, 14, seed=3)
    assert downward_translation(ta).lts.state_count >= ta.state_count
    assert upward_translation(ta, StateRelation.identity(6)).lts.state_count >= ta.state_count
    lts_path, ta_path = tmp_path / "in.lts", tmp_path / "in.tmb"
    lts_path.write_text(serialize_lts(random_lts(30, 3, n_edges=90, seed=1)))
    ta_path.write_text(serialize_timbuk(ta))
    rel_path = tmp_path / "in.rel"
    rel_path.write_text("s0 s1\ns1 s0\n")
    for algo in ("olrt", "lrt", "oracle"):
        for argv in (
            ["sim-lts", str(lts_path)],
            ["sim-lts", str(lts_path), "--format", "blocks", "--init", str(rel_path), "--closure"],
            ["minimize", str(lts_path)],
            ["ta-down", str(ta_path)],
            ["ta-up", str(ta_path)],
            ["minimize", str(ta_path)],
        ):
            assert main(argv + ["--algo", algo]) == 0, argv
    capsys.readouterr()
    monkeypatch.undo()
    # without the patch, the public constructors still check
    with pytest.raises(LtsError, match="state id out of range"):
        Lts.from_ids(["x"], ["a"], [(0, 0, 1)])
    with pytest.raises(LtsError, match="invalid state name"):
        build_lts([("a b", "x", "c")])
