"""Property tests of the array-backed Lts, the canonical partition-relation
pair, the closure of generator pairs, the transitivity check, the
out-preorder refinement, the engine configurations, metamorphic relations
of both engines and the text formats."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from simred import (  # noqa: E402
    EngineState,
    Lts,
    LtsError,
    LtsParseError,
    PartitionError,
    PartitionRelationPair,
    RelationError,
    StateRelation,
    coarsest_pair,
    downward_translation,
    engine_step,
    lrt,
    max_simulation_naive,
    olrt,
    parse_lts,
    parse_relation,
    quotient,
    refine_by_out,
    run_engine,
    serialize_lts,
    serialize_relation,
    upward_translation,
    validate_coarsest,
)
from simred.tree import (  # noqa: E402
    TreeAutomaton,
    TreeError,
    downward_simulation,
    parse_timbuk,
    serialize_timbuk,
    ta_quotient,
)
from simred.generate import random_ta  # noqa: E402
from simred.lts import IDENTIFIER_RE, build_lts  # noqa: E402
from simred.partition import _preorder_pair, closure_pair  # noqa: E402
from lts_reference import out_preorder  # noqa: E402

small = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def lts_parts(draw, min_edges=0):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, n - 1))
    triples = draw(st.lists(triple, min_size=min_edges, max_size=20))
    return [f"s{i}" for i in range(n)], [f"a{j}" for j in range(m)], triples


@st.composite
def relation_bits(draw, n):
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return StateRelation(np.array(bits, dtype=bool).reshape(n, n))


@st.composite
def lts_and_preorder(draw):
    states, symbols, triples = draw(lts_parts())
    base = draw(relation_bits(len(states)))
    return Lts.from_ids(states, symbols, triples), base.reflexive_transitive_closure()


@st.composite
def preorders(draw):
    return draw(relation_bits(draw(st.integers(0, 8)))).reflexive_transitive_closure()


@small
@given(preorders(), st.randoms(use_true_random=False))
def test_coarsest_pair_is_canonical(rho, rnd):
    pair = coarsest_pair(rho)
    assert pair.induced_relation() == rho
    heads = [block[0] for block in pair.blocks]
    assert heads == sorted(heads)
    for i, block in enumerate(pair.blocks):
        assert list(block) == sorted(block)
        assert (pair.block_of[list(block)] == i).all()
    # the same blocks under any block ids give identical arrays
    order = rnd.sample(range(pair.block_count), pair.block_count)
    label_of = np.argsort(order)  # block order[j] gets label j
    shuffled = PartitionRelationPair.from_labels(
        label_of[pair.block_of], pair.rel[np.ix_(order, order)]
    )
    assert shuffled.blocks == pair.blocks
    assert np.array_equal(shuffled.block_of, pair.block_of)
    assert np.array_equal(shuffled.rel, pair.rel)


@small
@given(lts_parts(), st.randoms(use_true_random=False))
def test_from_ids_ignores_order_and_duplicates(parts, rnd):
    states, symbols, triples = parts
    shuffled = triples + rnd.sample(triples, len(triples) // 2)
    rnd.shuffle(shuffled)
    lts = Lts.from_ids(states, symbols, triples)
    assert Lts.from_ids(states, symbols, shuffled) == lts
    assert list(lts.transitions()) == sorted(set(triples), key=lambda t: (t[1], t[0], t[2]))


@small
@given(lts_parts(min_edges=1))
def test_parse_serialize_round_trip(parts):
    lts = parse_lts(serialize_lts(Lts.from_ids(*parts)))
    assert parse_lts(serialize_lts(lts)) == lts


@small
@given(lts_parts())
def test_adjacency_matches_triple_set(parts):
    states, symbols, triples = parts
    lts = Lts.from_ids(states, symbols, triples)
    model = set(triples)
    assert lts.transition_count == len(model)
    for u in range(len(states)):
        for a in range(len(symbols)):
            succ = sorted(w for x, b, w in model if (x, b) == (u, a))
            pred = sorted(x for x, b, w in model if (w, b) == (u, a))
            assert lts.successors(u, a).tolist() == succ
            assert lts.predecessors(u, a).tolist() == pred
            assert lts.out_mask[u, a] == bool(succ)
            assert lts.in_mask[u, a] == bool(pred)


@small
@given(lts_parts())
def test_quotient_by_identity_is_identity(parts):
    lts = Lts.from_ids(*parts)
    identity = coarsest_pair(StateRelation.identity(lts.state_count))
    assert quotient(lts, identity) == lts


@small
@given(lts_and_preorder())
def test_refine_by_out_is_coarsest_pair_of_intersection(case):
    lts, init = case
    expected = coarsest_pair(StateRelation(init.matrix & out_preorder(lts).matrix))
    assert refine_by_out(coarsest_pair(init), lts) == expected


@small
@given(lts_and_preorder())
@example(  # s1 cannot follow s0's a-loop; Remove sets restricted to emitters
    # miss s1 unless the pair is first refined by Out, whatever out_init says
    (
        Lts.from_ids(["s0", "s1"], ["a"], [(0, 0, 0)]),
        StateRelation(np.array([[1, 1], [0, 1]], dtype=bool)),
    )
)
def test_every_engine_configuration_matches_the_oracle(case):
    # all 8 run_engine flag combinations, audited after every step
    lts, init = case
    expected = coarsest_pair(max_simulation_naive(lts, init).relation)
    for out_init, restrict_to_in, restrict_remove in itertools.product((True, False), repeat=3):
        pair, _ = run_engine(
            lts, coarsest_pair(init), out_init=out_init, restrict_to_in=restrict_to_in,
            restrict_remove=restrict_remove, audit=True,
        )
        assert pair == expected


@small
@given(lts_parts(), st.data())
def test_every_pair_the_package_builds_is_coarsest(parts, data):
    # no consumer re-checks a pair, so every producer must build coarsest
    # ones; the engine hands its pair out before its first step and at its
    # fixpoint only
    lts = Lts.from_ids(*parts)
    n = lts.state_count
    gen = data.draw(relation_bits(n))
    start = coarsest_pair(gen.reflexive_transitive_closure())
    pairs = [start, closure_pair(n, *gen.id_pairs()), refine_by_out(start, lts)]
    pairs.append(PartitionRelationPair.full(n))
    pairs.append(start.restrict(data.draw(st.integers(0, n))))
    for out_init, restrict_to_in, restrict_remove in itertools.product((True, False), repeat=3):
        state = EngineState(
            lts, start, out_init=out_init, restrict_to_in=restrict_to_in,
            restrict_remove=restrict_remove,
        )
        pairs.append(state.current_pair())
        while engine_step(state):
            pass
        pairs.append(state.current_pair())
    ta = random_ta(
        data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)),
        data.draw(st.integers(0, 16)), seed=data.draw(st.integers(0, 1 << 16)),
    )
    d = data.draw(relation_bits(ta.state_count)).reflexive_transitive_closure()
    pairs += [
        downward_translation(ta).initial,
        downward_translation(ta, coarsest_pair(d)).initial,
        upward_translation(ta, d).initial,
    ]
    for pair in pairs:
        validate_coarsest(pair)


# -- metamorphic relations: each engine against itself ---------------------------


@small
@given(lts_and_preorder(), st.randoms(use_true_random=False))
def test_renaming_states_only_renames_the_pair(case, rnd):
    lts, init = case
    n = lts.state_count
    new_id = np.array(rnd.sample(range(n), n), dtype=np.int64)  # state u becomes new_id[u]
    old_id = np.argsort(new_id)
    renamed = Lts.from_ids(
        [lts.state_names[u] for u in old_id.tolist()],
        lts.symbol_names,
        np.column_stack([new_id[lts.src], lts.sym, new_id[lts.dst]]),
    )
    renamed_init = StateRelation(init.matrix[np.ix_(old_id, old_id)])
    for engine in (olrt, lrt):
        pair, _ = engine(lts, coarsest_pair(init))
        got, _ = engine(renamed, coarsest_pair(renamed_init))
        assert got == PartitionRelationPair.from_labels(pair.block_of[old_id], pair.rel)


@small
@given(lts_and_preorder(), st.data())
def test_a_symbol_without_transitions_leaves_the_pair_unchanged(case, data):
    lts, init = case
    j = data.draw(st.integers(0, lts.symbol_count), label="position of the new symbol")
    symbols = list(lts.symbol_names)
    symbols.insert(j, "unused")
    wider = Lts.from_ids(
        lts.state_names, symbols, np.column_stack([lts.src, lts.sym + (lts.sym >= j), lts.dst])
    )
    for engine in (olrt, lrt):
        assert engine(wider, coarsest_pair(init))[0] == engine(lts, coarsest_pair(init))[0]


@small
@given(lts_and_preorder(), lts_and_preorder(), st.booleans())
def test_each_part_of_a_disjoint_union_keeps_its_own_result(first, second, below):
    # no transition crosses the parts, so the union's maximal simulation
    # restricted to a part is that part's own; pairs across the parts are
    # legitimate (a deadlock state is simulated by every state), so the
    # result need not be block-diagonal, and the initial preorder may put
    # all of the first part below the second
    (lts1, init1), (lts2, init2) = first, second
    n1, n2 = lts1.state_count, lts2.state_count
    symbols = max(lts1.symbol_names, lts2.symbol_names, key=len)
    union = Lts.from_ids(
        lts1.state_names + tuple(f"t{i}" for i in range(n2)),
        symbols,
        np.concatenate([
            np.column_stack([lts1.src, lts1.sym, lts1.dst]),
            np.column_stack([n1 + lts2.src, lts2.sym, n1 + lts2.dst]),
        ]),
    )
    init = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    init[:n1, :n1], init[n1:, n1:], init[:n1, n1:] = init1.matrix, init2.matrix, below
    for engine in (olrt, lrt):
        pair, _ = engine(union, coarsest_pair(StateRelation(init)))
        whole = pair.induced_relation().matrix
        assert pair.restrict(n1) == engine(lts1, coarsest_pair(init1))[0]
        assert coarsest_pair(StateRelation(whole[n1:, n1:])) == engine(lts2, coarsest_pair(init2))[0]


@small
@given(lts_parts())
@example(  # s2 has two successors in one Remove set: its counter falls by two
    (["s0", "s1", "s2", "s3"], ["a0"], [(0, 0, 1), (2, 0, 1), (2, 0, 3)])
)
def test_quotienting_by_simulation_equivalence_is_idempotent(parts):
    # the quotient's simulation preorder is a partial order, so quotienting
    # it again collapses nothing
    lts = Lts.from_ids(*parts)
    for engine in (olrt, lrt):
        once = quotient(lts, engine(lts, PartitionRelationPair.full(lts.state_count))[0])
        twice = quotient(once, engine(once, PartitionRelationPair.full(once.state_count))[0])
        assert twice == once


# -- the downward quotient keeps the language ------------------------------------


def reached_sets(tas, depth):
    """For each tree of depth at most ``depth`` (a leaf has depth 1) over
    the automata's shared ranked alphabet, the tuple of the state sets it
    reaches in each automaton.  Two trees with the same tuple are
    interchangeable as subtrees, so the tuples of one depth combine into
    those of the next."""
    reached = set()
    for _ in range(depth):
        grown = set(reached)
        for f, rank in enumerate(tas[0].ranks):
            for children in itertools.product(reached, repeat=rank):
                grown.add(tuple(
                    frozenset(
                        tgt for lhs, sym, tgt in ta.rules
                        if sym == f and all(q in child[i] for q, child in zip(lhs, children))
                    )
                    for i, ta in enumerate(tas)
                ))
        reached = grown
    return reached


@small
@given(st.integers(2, 6), st.integers(2, 4), st.integers(1, 2), st.integers(6, 30),
       st.integers(0, 1 << 16))
def test_downward_quotient_accepts_the_same_trees(n_states, n_symbols, max_rank, n_rules, seed):
    # every block reaches a tree iff one of its states does, so the
    # quotient accepts a tree iff the automaton does
    ta = random_ta(n_states, n_symbols, max_rank, n_rules, seed=seed)
    pair = downward_simulation(ta)
    small_ta = ta_quotient(ta, pair)
    for here, there in reached_sets((ta, small_ta), 3):
        assert there == {int(pair.block_of[q]) for q in here}
        assert bool(here & ta.finals) == bool(there & small_ta.finals)


# -- names: accepted iff the text formats carry them ------------------------------


NAMES = st.one_of(
    st.text("ab_.-0 #\t\n(),:\xe9", max_size=3),
    st.sampled_from(["Final", "Transitions", "States", "Ops", "(q0)", "#1", 1, None]),
)


def carried(name):
    return isinstance(name, str) and IDENTIFIER_RE.match(name) is not None


def named_transitions(lts):
    names, symbols = lts.state_names, lts.symbol_names
    return {(names[u], symbols[a], names[w]) for u, a, w in lts.transitions()}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    st.lists(NAMES, min_size=1, max_size=4, unique=True),
    st.lists(NAMES, min_size=1, max_size=3, unique=True),
    st.data(),
)
@example(["a b", "c"], ["x"], None)  # one LTS line of four tokens
@example(["a b", ""], ["f"], None)  # "States  a b": one name vanishes, one splits
@example(["q", "Final"], ["f"], None)  # ends the States list early
@example(["Transitions", "q"], ["f"], None)  # ends the Final States list early
@example(["q", "Transitions"], ["f"], None)  # a non-final state of that name is carried
def test_a_name_is_accepted_iff_the_text_formats_carry_it(states, symbols, data):
    n, m = len(states), len(symbols)
    if data is None:
        triples = [(0, 0, n - 1)]
    else:
        triple = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, n - 1))
        triples = data.draw(st.lists(triple, min_size=1, max_size=6))
    ok = all(map(carried, states + symbols))

    lts = outcome(Lts.from_ids, states, symbols, triples)
    built = outcome(build_lts, [(states[u], symbols[a], states[w]) for u, a, w in triples],
                    states, symbols)
    if ok:
        assert named_transitions(parse_lts(serialize_lts(lts))) == named_transitions(lts)
        assert built == lts
    else:
        assert lts[0] is built[0] is LtsError
        assert lts[2].startswith("invalid ") and built[2].startswith("invalid ")

    # rank a % 3; rule (u, a, w) has w at every position and u as target
    ranks = [a % 3 for a in range(m)]
    rules = [((w,) * ranks[a], a, u) for u, a, w in triples]
    ta = outcome(TreeAutomaton, states, symbols, ranks, rules, [0])
    # state 0 is final
    if ok and "Final" not in states and states[0] != "Transitions":
        assert parse_timbuk(serialize_timbuk(ta)) == ta
    else:
        assert ta[0] is TreeError and ta[2].startswith("invalid ")


# -- preorder check against the full product ----------------------------------


def reference_witness(m):
    """The first (u, v, w), in row-major order of (u, w), with (u,v) and
    (v,w) in ``m`` but not (u,w), v least; None if ``m`` is transitive."""
    f = m.astype(np.int64)
    bad = np.argwhere(((f @ f) > 0) & ~m)
    if not len(bad):
        return None
    u, w = bad[0].tolist()
    return u, int(np.flatnonzero(m[u] & m[:, w])[0]), w


@small
@given(st.integers(0, 9).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda bits: np.array(bits, dtype=bool).reshape(n, n) | np.eye(n, dtype=bool)
    )
))
@example(np.triu(np.ones((6, 6), dtype=bool)))  # a chain: every inner state a middle
@example(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool))  # (0,1,2) violates
def test_transitivity_witness_is_the_first_of_the_full_product(m):
    pair, witness = _preorder_pair(len(m), *np.nonzero(m))
    assert witness == reference_witness(m)
    assert (pair is None) == (witness is not None)


def reference_preorder_message(m):
    """The rejection message of a relation, from its diagonal and the
    dense product."""
    missing = np.flatnonzero(~m.diagonal())
    if len(missing):
        return "not reflexive: pair (%d,%d) missing" % (missing[0], missing[0])
    witness = reference_witness(m)
    if witness is None:
        return None
    return "not transitive: (%d,%d) and (%d,%d) present but (%d,%d) missing" % (
        witness[0], witness[1], witness[1], witness[2], witness[0], witness[2]
    )


@st.composite
def near_preorders(draw):
    """A relation drawn as it is, made reflexive, closed, or closed and then
    short of one pair."""
    n = draw(st.integers(0, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    m = np.array(bits, dtype=bool).reshape(n, n)
    kind = draw(st.sampled_from(["as drawn", "reflexive", "closed", "closed minus one"]))
    if kind == "reflexive":
        m |= np.eye(n, dtype=bool)
    elif kind != "as drawn":
        m = dense_closure(n, np.argwhere(m).tolist())
        if kind == "closed minus one" and n:
            u, v = draw(st.sampled_from(np.argwhere(m).tolist()))
            m[u, v] = False
    return m


@small
@given(near_preorders())
@example(np.ones((4, 4), dtype=bool))  # the full relation's shortcut
@example(~np.eye(3, k=2, dtype=bool))  # all pairs but (0,2): (0,1,2) violates
def test_preorder_check_accepts_exactly_the_closed_relations(m):
    n = len(m)
    rel = StateRelation(m)
    expected = reference_preorder_message(m)
    assert (expected is None) == np.array_equal(m, dense_closure(n, np.argwhere(m).tolist()))
    assert rel.preorder_violation() == expected
    try:
        pair = coarsest_pair(rel)
    except RelationError as exc:
        assert str(exc) == f"initial relation is not a preorder: {expected}"
    else:
        assert expected is None
        assert pair.induced_relation() == rel


def reference_validate_message(rel):
    """validate_coarsest's message for a reflexive block relation, from the
    dense product and the dense mutual-pair mask."""
    f = rel.astype(np.int64)
    nontrans = np.argwhere(((f @ f) > 0) & ~rel)
    if len(nontrans):
        return "block relation not transitive at (%d,%d)" % tuple(nontrans[0])
    mutual = np.argwhere(rel & rel.T & ~np.eye(len(rel), dtype=bool))
    if len(mutual):
        return "pair is not coarsest: blocks %d and %d are mutually related" % tuple(mutual[0])
    return None


@small
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda bits: np.array(bits, dtype=bool).reshape(n, n)
        )
    ),
    st.booleans(),
)
def test_validate_coarsest_reports_the_first_dense_violation(m, closed):
    # the closure is transitive, so only the mutual-pair check can fail it
    rel = StateRelation(m).reflexive_transitive_closure().matrix if closed else m | np.eye(len(m), dtype=bool)
    try:
        validate_coarsest(PartitionRelationPair.from_labels(np.arange(len(rel)), rel))
        got = None
    except PartitionError as exc:
        got = str(exc)
    assert got == reference_validate_message(rel)


def dense_closure(n, pairs):
    """Reference closure: square the matrix until it stops growing."""
    m = np.eye(n, dtype=bool)
    for u, v in pairs:
        m[u, v] = True
    while True:
        f = m.astype(np.int64)
        grown = m | ((f @ f) > 0)
        if np.array_equal(grown, m):
            return m
        m = grown


@st.composite
def generator_pairs(draw):
    n = draw(st.integers(0, 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    return n, draw(st.lists(pair, max_size=3 * n))


@small
@given(generator_pairs())
@example((0, []))
@example((3, []))
@example((3, [(1, 1), (2, 2)]))  # self-loops only
@example((4, [(0, 1), (0, 1), (1, 0), (2, 3), (2, 3)]))  # duplicates, a 2-cycle
@example((6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 4), (3, 4)]))  # cycles in a line
def test_closure_pair_is_coarsest_pair_of_dense_closure(case):
    n, pairs = case
    rel = StateRelation.from_pairs(n, pairs)
    closed = StateRelation(dense_closure(n, pairs))
    assert closure_pair(n, *rel.id_pairs()) == coarsest_pair(closed)
    assert rel.reflexive_transitive_closure() == closed


# -- text formats against line-by-line references ------------------------------


def reference_parse_lts(text):
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise LtsParseError(lineno, f"expected 3 tokens, got {len(tokens)}")
        for tok in tokens:
            if not IDENTIFIER_RE.match(tok):
                raise LtsParseError(lineno, f"invalid identifier {tok!r}")
        transitions.append(tuple(tokens))
    if not transitions:
        raise LtsParseError(1, "empty system: no transitions")
    return build_lts(transitions)


def reference_parse_relation(text, states):
    rel = StateRelation.empty(states.state_count)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise LtsParseError(lineno, f"expected 2 tokens, got {len(tokens)}")
        try:
            u = states.state_id(tokens[0])
            v = states.state_id(tokens[1])
        except ValueError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        rel.add(u, v)
    return rel


def outcome(fn, *args):
    """The result, or the error's class, line and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


# where str.splitlines, str.split and a regex \s could disagree
TOKENS = ["p", "q", "r", "s0", "x.1", "a-b", "_"] * 3 + ["a*", "\xe9", "p#q", "\x00"]
SEPARATORS = [" ", "\t", "  ", "\x1f", "\xa0", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
COMMENTS = ["", "", "#", "# note", "#x y z", " # p q r"]
RELATION_STATES = Lts.from_ids(["p", "q", "r", "s0", "x.1"], ["a"], [])


@st.composite
def texts(draw, count):
    pick = st.sampled_from
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.lists(pick(TOKENS), min_size=count + 1, max_size=count + 1))
        tokens = tokens[: draw(pick([0, count - 1, count, count, count, count + 1]))]
        body = "".join(tok + draw(pick(SEPARATORS)) for tok in tokens)
        line = draw(pick(["", " ", "\t", "\xa0"])) + body + draw(pick(COMMENTS))
        lines.append(line + draw(pick(BREAKS)))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text[: -len(draw(pick([b for b in BREAKS if text.endswith(b)])))]
    return text


texts_settings = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@texts_settings
@given(texts(3))
@example("p a q\r\nq b p")  # no final newline
@example("p a q\x1cq\x85b\x1fp\n")
@example("p\xa0a\u3000q # c\x1dq b r\n")
@example("\n\n# only comments\n  \t\n")
@example("p a q\np a# q\n")
def test_parse_lts_matches_line_reference(text):
    assert outcome(parse_lts, text) == outcome(reference_parse_lts, text)


@texts_settings
@given(texts(2))
@example("p q\r\nr x.1")
@example("p q\x0bzz r\n")  # an unknown name after a break splitlines sees
@example("p q r # three\np zz\n")
def test_parse_relation_matches_line_reference(text):
    expected = outcome(reference_parse_relation, text, RELATION_STATES)
    assert outcome(parse_relation, text, RELATION_STATES) == expected


@small
@given(
    st.lists(st.text("ab !~\t\xe9", min_size=1, max_size=3), min_size=1, max_size=6, unique=True),
    st.data(),
)
@example(["a", "a!", "a b", "ab"], None)  # a space orders "a b ..." before "a! ..."
@example(["a", "a\t"], None)  # "a\t a" sorts before "a a"
def test_serialize_relation_matches_sorted_lines(names, data):
    n = len(names)
    if data is None:
        bits = [True] * (n * n)
    else:
        bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rel = StateRelation(np.array(bits, dtype=bool).reshape(n, n))
    states = SimpleNamespace(state_names=tuple(names))
    # a StateRelation as it is, and the pair of its closure block by block
    closure = rel.reflexive_transitive_closure()
    for written, reference in ((rel, rel), (closure_pair(n, *rel.id_pairs()), closure)):
        lines = sorted(f"{names[u]} {names[v]}" for u, v in reference.pairs())
        expected = "\n".join(lines) + "\n" if lines else ""
        assert serialize_relation(written, states) == expected
