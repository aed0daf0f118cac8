import pytest

from simred import (
    TimbukParseError,
    TreeAutomaton,
    TreeError,
    downward_simulation,
    parse_timbuk,
    serialize_timbuk,
    ta_quotient,
)
from simred.cli import main
from simred.generate import random_ta


def test_parse_t1(t1):
    assert t1.state_names == ("q0", "q1")
    assert dict(zip(t1.symbol_names, t1.ranks)) == {"a": 0, "g": 1}
    assert t1.finals == {1}
    assert set(t1.rules) == {((), 0, 0), ((0,), 1, 1), ((1,), 1, 1)}


def test_parse_nullary_without_parens():
    ta = parse_timbuk(
        "Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\na -> q\n"
    )
    assert ta.rules == (((), 0, 0),)


def test_parse_whitespace_and_comments():
    ta = parse_timbuk(
        "Ops  f:2  a:0   # ranked alphabet\n"
        "Automaton A\n"
        "States q0 q1 q2\n"
        "Final States q2\n"
        "Transitions\n"
        "  a()->q0   # nullary\n"
        "f( q0 , q1 )  ->  q2\n"
    )
    assert (("q0", "q1"), "f", "q2") == (
        tuple(ta.state_names[q] for q in ta.rules[1][0]),
        ta.symbol_names[ta.rules[1][1]],
        ta.state_names[ta.rules[1][2]],
    )


def test_arity_mismatch_errors():
    text = (
        "Ops g:1\nAutomaton A\nStates q0 q1 q2\nFinal States q2\nTransitions\n"
        "g(q0,q1) -> q2\n"
    )
    with pytest.raises(TimbukParseError, match="arity mismatch") as err:
        parse_timbuk(text)
    assert err.value.line == 6


def test_undeclared_state_and_symbol():
    with pytest.raises(TimbukParseError, match="undeclared symbol"):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\nb -> q\n")
    with pytest.raises(TimbukParseError, match="undeclared state"):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\na -> zz\n")
    with pytest.raises(TimbukParseError, match="undeclared state"):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States zz\nTransitions\na -> q\n")


def test_missing_sections():
    with pytest.raises(TimbukParseError, match="missing Automaton"):
        parse_timbuk("Ops a:0\n")
    with pytest.raises(TimbukParseError, match="missing Final States"):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\n")
    with pytest.raises(TimbukParseError, match="missing Transitions"):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\n")


def test_round_trip_identity(t1, t1_text):
    assert parse_timbuk(serialize_timbuk(t1)) == t1
    assert parse_timbuk(t1_text) == t1


def test_canonicalization_idempotent(t1_text):
    texts = [t1_text]
    for seed in range(10):
        texts.append(serialize_timbuk(random_ta(5, 3, 2, 8, seed=seed)))
    for text in texts:
        once = serialize_timbuk(parse_timbuk(text))
        twice = serialize_timbuk(parse_timbuk(once))
        assert once == twice


def test_constructor_validates():
    # the public constructor is where a hand-built automaton is checked
    cases = [
        ((["q"], ["f", "g"], [0], [], []), "one rank per symbol required"),
        ((["q", "q"], ["f"], [0], [], []), "duplicate state names"),
        ((["q"], ["f", "f"], [0, 0], [], []), "duplicate symbol names"),
        ((["q"], ["f"], [0], [((), 1, 0)], []), "symbol id 1 out of range"),
        ((["q"], ["f"], [0], [((), -1, 0)], []), "symbol id -1 out of range"),
        ((["q"], ["f"], [2], [((0,), 0, 0)], []), "rule lhs length 1 does not match rank 2 of 'f'"),
        ((["q"], ["f"], [1], [((5,), 0, 0)], []), "state id 5 out of range"),
        ((["q"], ["f"], [0], [((), 0, -1)], []), "state id -1 out of range"),
        ((["q"], ["f"], [0], [((), 0, 0)], [1]), "final state id out of range"),
        ((["a b", ""], ["f"], [0], [((), 0, 0)], [0]), "invalid state name 'a b'"),
        ((["q"], ["f:1"], [1], [], []), "invalid symbol name 'f:1'"),
        ((["q", 7], ["f"], [0], [], []), "invalid state name 7"),
        # the text format's States list ends at Final, its Final States list
        # at Transitions
        ((["q", "Final"], ["f"], [0], [], []), "invalid state name 'Final'"),
        ((["Transitions"], ["f"], [0], [], [0]), "invalid final state name 'Transitions'"),
    ]
    for args, message in cases:
        with pytest.raises(TreeError) as err:
            TreeAutomaton(*args)
        assert str(err.value) == message


def test_a_non_final_state_named_transitions_round_trips():
    # only the Final States list ends at the word Transitions
    text = (
        "Ops a:0 g:1\nAutomaton A\nStates q Transitions\nFinal States q\nTransitions\n"
        "a -> Transitions\ng(Transitions) -> q\n"
    )
    ta = parse_timbuk(text)
    assert ta == TreeAutomaton(["q", "Transitions"], ["a", "g"], [0, 1],
                               [((), 0, 1), ((1,), 1, 0)], [0])
    assert parse_timbuk(serialize_timbuk(ta)) == ta


HEAD = "Ops a:0 g:1\nAutomaton A\nStates q0 q1\nFinal States q1\nTransitions\na -> q0\n"


@pytest.mark.parametrize("text, line, message", [
    ("Opz a:0\n", 1, "expected 'Ops', got 'Opz'"),
    ("Ops a\n", 1, "expected name:rank, got 'a'"),
    ("Ops a:x\n", 1, "malformed operator declaration 'a:x'"),
    ("Ops a:0 a:1\n", 1, "duplicate operator 'a'"),
    ("Ops a:0\nAutomaton", 2, "unexpected end of input"),
    ("Ops a:0\nAutomaton A\nStates q!\n", 3, "invalid state name 'q!'"),
    ("Ops a:0\nAutomaton A\nStates q q\n", 3, "duplicate state 'q'"),
    ("Ops a:0\nAutomaton A\nStates q\nFinal States zz\n", 4, "undeclared state 'zz'"),
    (HEAD + "b -> q0\n", 7, "undeclared symbol 'b'"),
    (HEAD + "g(q0 -> q1\n", 7, "undeclared state '->'"),
    (HEAD + "g(zz) -> q1\n", 7, "undeclared state 'zz'"),
    (HEAD + "g(q0) -> zz\n", 7, "undeclared state 'zz'"),
    (HEAD + "g(q0) q1\n", 7, "expected '->', got 'q1'"),
    (HEAD + "g(q0,\nq1) -> q1\n", 7, "arity mismatch: 'g' has rank 1, rule has 2 arguments"),
    (HEAD + "\ng(q0) ->", 8, "unexpected end of input"),
])
def test_parse_error_messages_and_lines(text, line, message):
    # the parser is where a Timbuk automaton is checked, token by token
    with pytest.raises(TimbukParseError) as err:
        parse_timbuk(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_builders_never_enter_the_checked_constructor(monkeypatch, tmp_path, capsys, t1_text):
    # parse_timbuk, random_ta and ta_quotient build valid automata by
    # construction, so neither they nor the tree commands re-check one
    def refuse(self, *args):
        raise AssertionError("TreeAutomaton.__init__ entered")

    monkeypatch.setattr(TreeAutomaton, "__init__", refuse)
    t1 = parse_timbuk(t1_text)
    ta = random_ta(6, 3, 2, 14, seed=3)
    assert ta_quotient(ta, downward_simulation(ta)).state_count <= ta.state_count
    assert ta_quotient(t1, downward_simulation(t1)).state_count <= t1.state_count
    path = tmp_path / "in.tmb"
    path.write_text(serialize_timbuk(ta))
    for command in ("ta-down", "ta-up", "minimize"):
        for algo in ("olrt", "lrt", "oracle"):
            assert main([command, str(path), "--algo", algo]) == 0
    capsys.readouterr()
