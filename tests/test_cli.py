import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simred import (
    StateRelation,
    coarsest_pair,
    olrt,
    parse_lts,
    quotient,
    serialize_lts,
    serialize_relation,
)
from simred import cli
from simred.cli import main
from simred.generate import random_lts, random_preorder

from conftest import T1_TEXT

L1_TEXT = "p a q\nq b q\nr a q\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sim_lts_default_full(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    code, out, _ = run(["sim-lts", lts], capsys)
    assert code == 0
    assert out == "p p\np r\nq q\nr p\nr r\n"


def test_sim_lts_identity_init(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    init = write(tmp_path / "id.rel", "p p\nq q\nr r\n")
    code, out, _ = run(["sim-lts", lts, "--init", init], capsys)
    assert code == 0
    assert out == "p p\nq q\nr r\n"


def test_sim_lts_algorithms_agree(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    outputs = set()
    for algo in ("olrt", "lrt", "oracle"):
        code, out, _ = run(["sim-lts", lts, "--algo", algo], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_sim_lts_blocks_format(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    code, out, _ = run(["sim-lts", lts, "--format", "blocks"], capsys)
    assert code == 0
    assert out == "{p,r} -> {0}\n{q} -> {1}\n"


def test_blocks_format_expands_to_pairs_format(tmp_path, capsys):
    # with 12+ states named s0.. the name order (s10 before s2) is not the id order
    for seed in range(8):
        lts = random_lts(12 + seed, 2, edge_prob=0.12, seed=seed)
        path = write(tmp_path / f"{seed}.lts", serialize_lts(lts))
        code, pairs, _ = run(["sim-lts", path], capsys)
        assert code == 0
        code, blocks, _ = run(["sim-lts", path, "--format", "blocks"], capsys)
        assert code == 0
        line_re = re.compile(r"\{(.*)\} -> \{(.*)\}")
        rows = [line_re.fullmatch(line).groups() for line in blocks.splitlines()]
        members = [m.split(",") for m, _ in rows]
        assert all(m == sorted(m) for m in members)
        assert [m[0] for m in members] == sorted(m[0] for m in members)
        expanded = sorted(
            f"{u} {v}\n"
            for m, (_, above) in zip(members, rows)
            for c in above.split(",")
            for u in m
            for v in members[int(c)]
        )
        assert "".join(expanded) == pairs


def test_sim_lts_parse_error_exit_2(tmp_path, capsys):
    lts = write(tmp_path / "bad.lts", "p a\n")
    code, _, err = run(["sim-lts", lts], capsys)
    assert code == 2
    assert "expected 3 tokens" in err


def test_sim_lts_bad_init_exit_3(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    init = write(tmp_path / "bad.rel", "p q\n")  # not reflexive
    code, _, err = run(["sim-lts", lts, "--init", init], capsys)
    assert code == 3
    assert "not a preorder" in err or "not reflexive" in err


def test_sim_lts_closure_repairs_init(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    init = write(tmp_path / "partial.rel", "p r\n")
    code, out, _ = run(["sim-lts", lts, "--init", init, "--closure"], capsys)
    assert code == 0
    assert out == "p p\np r\nq q\nr r\n"


def test_sim_lts_metrics_side_channel(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    metrics = tmp_path / "metrics.txt"
    code, out, _ = run(["sim-lts", lts, "--metrics", str(metrics)], capsys)
    assert code == 0
    entries = dict(
        line.split("=", 1) for line in metrics.read_text().splitlines()
    )
    assert entries["algorithm"] == "olrt"
    assert entries["iterations"] == "0"
    assert entries["states"] == "3"
    assert list(entries) == [
        "algorithm", "counters_allocated", "remove_enqueued", "iterations", "splits",
        "skipped_iterations", "wall_time_ms", "final_blocks", "states", "symbols", "transitions",
    ]


def test_sim_lts_output_into_missing_dir_exit_3(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    out = tmp_path / "missing" / "out.txt"
    code, _, err = run(["sim-lts", lts, "-o", str(out)], capsys)
    assert code == 3
    assert err.startswith("simred: cannot write")


def test_sim_lts_unwritable_metrics_exit_3(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    code, _, err = run(["sim-lts", lts, "--metrics", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("simred: cannot write")


def test_sim_lts_non_utf8_input_exit_2(tmp_path, capsys):
    lts = tmp_path / "latin1.lts"
    lts.write_bytes("p a q\nq b \u00e9\n".encode("latin-1"))
    code, _, err = run(["sim-lts", str(lts)], capsys)
    assert code == 2
    assert "not UTF-8" in err


def test_ta_down_t1(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    for algo in ("olrt", "lrt"):
        code, out, _ = run(["ta-down", ta, "--algo", algo], capsys)
        assert code == 0
        assert out == "q0 q0\nq1 q1\n"


def test_ta_up_t1(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    for algo in ("olrt", "lrt"):
        code, out, _ = run(["ta-up", ta, "--algo", algo], capsys)
        assert code == 0
        assert out == "q0 q0\nq0 q1\nq1 q1\n"


def test_ta_up_rejects_bad_downward_file(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    full = write(tmp_path / "full.rel", "q0 q0\nq0 q1\nq1 q0\nq1 q1\n")
    code, _, err = run(["ta-up", ta, "--init", full], capsys)
    assert code == 3
    assert "not a downward simulation" in err


def test_ta_up_accepts_valid_downward_file(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    ident = write(tmp_path / "d.rel", "q0 q0\nq1 q1\n")
    code, out, _ = run(["ta-up", ta, "--init", ident], capsys)
    assert code == 0
    assert out == "q0 q0\nq0 q1\nq1 q1\n"


# every state has a() and one g-rule, so the full relation is a downward
# simulation; only r is final
CYCLE_TEXT = """\
Ops a:0 g:1
Automaton C
States p q r s
Final States r
Transitions
a() -> p
a() -> q
a() -> r
a() -> s
g(p) -> q
g(q) -> r
g(r) -> s
g(s) -> p
"""


@pytest.mark.parametrize("algo", ["olrt", "lrt", "oracle"])
def test_ta_up_accepts_dense_downward_file(tmp_path, capsys, algo):
    from simred import parse_timbuk, upward_naive

    ta = parse_timbuk(CYCLE_TEXT)
    path = write(tmp_path / "c.timbuk", CYCLE_TEXT)
    full = StateRelation.full(ta.state_count)
    init = write(tmp_path / "full.rel", serialize_relation(full, ta))
    code, out, _ = run(["ta-up", path, "--init", init, "--algo", algo], capsys)
    assert code == 0
    assert out == serialize_relation(upward_naive(ta, full), ta)


@pytest.mark.parametrize("algo", ["olrt", "lrt", "oracle"])
@pytest.mark.parametrize(
    "ta_text, d_text, reason",
    [
        (CYCLE_TEXT, "p p\nq q\nr r\ns s\np q\nq r\n",
         "initial relation is not a preorder: not transitive: (0,1) and (1,2) present "
         "but (0,2) missing"),
        (T1_TEXT, "q0 q0\nq0 q1\n",
         "initial relation is not a preorder: not reflexive: pair (1,1) missing"),
        (T1_TEXT, "q0 q0\nq0 q1\nq1 q0\nq1 q1\n",
         "the maximal downward simulation inside it drops (q0,q1)"),
        (T1_TEXT, "q0 q0\nq1 q0\nq1 q1\n",
         "the maximal downward simulation inside it drops (q1,q0)"),
    ],
    ids=["not-transitive", "not-reflexive", "full", "below"],
)
def test_ta_up_rejects_init_under_each_algorithm(tmp_path, capsys, algo, ta_text, d_text, reason):
    ta = write(tmp_path / "a.timbuk", ta_text)
    init = write(tmp_path / "d.rel", d_text)
    code, out, err = run(["ta-up", ta, "--init", init, "--algo", algo], capsys)
    assert code == 3
    assert out == ""
    assert err == f"simred: {init}: not a downward simulation: {reason}\n"


def test_ta_parse_error_exit_2(tmp_path, capsys):
    ta = write(tmp_path / "bad.timbuk",
               "Ops g:1\nAutomaton A\nStates q\nFinal States q\nTransitions\ng(q,q) -> q\n")
    code, _, err = run(["ta-down", ta], capsys)
    assert code == 2
    assert "arity mismatch" in err


@pytest.mark.parametrize(
    "error, error_args, code", [("TimbukParseError", (1, "bad"), 2), ("TreeError", ("bad",), 3)]
)
def test_tree_errors_escaping_a_command_map_to_exit_codes(
    monkeypatch, capsys, error, error_args, code
):
    # main names the tree errors only once a command has loaded simred.tree
    import simred.tree

    def failing(args):
        raise getattr(simred.tree, error)(*error_args)

    monkeypatch.setitem(cli._COMMANDS, "ta-down", failing)
    got, _, err = run(["ta-down", "unused"], capsys)
    assert got == code
    assert err.startswith("simred: ") and "bad" in err


def test_minimize_lts(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    code, out, err = run(["minimize", lts], capsys)
    assert code == 0
    assert out == "p a q\nq b q\n"  # p and r merge
    assert err == "3 2\n"


def test_minimize_lts_whose_first_state_is_ops(tmp_path, capsys):
    # a first line of three identifiers is a transition, not an Ops declaration
    lts = write(tmp_path / "ops.lts", "Ops a b\nb a Ops\n")
    code, out, err = run(["minimize", lts], capsys)
    assert code == 0
    assert out == "Ops a Ops\n"  # Ops and b simulate each other
    assert err == "2 1\n"


def test_minimize_idempotent(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    out_file = tmp_path / "reduced.lts"
    code, out, _ = run(["minimize", lts, "-o", str(out_file)], capsys)
    assert code == 0 and out == "3 2\n"
    code, out, _ = run(["minimize", str(out_file)], capsys)
    assert code == 0
    assert out == out_file.read_text()


def test_minimize_ta_unchanged(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    code, out, err = run(["minimize", ta], capsys)
    assert code == 0
    assert err == "2 2\n"
    assert "Ops a:0 g:1" in out


@pytest.mark.parametrize(
    "extra", [["--init", "/nonexistent/init.rel"], ["--init", "BAD"], ["--closure"]]
)
def test_minimize_ta_rejects_init_and_closure(tmp_path, capsys, t1_text, extra):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    if extra[-1] == "BAD":
        extra = ["--init", write(tmp_path / "bad.rel", "q0 q1\n"), "--closure"]
    code, out, err = run(["minimize", ta, *extra], capsys)
    assert code == 4
    assert out == ""
    assert err == "simred: --init/--closure apply to LTS input only\n"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.lts"
    b = tmp_path / "b.lts"
    for path in (a, b):
        code, _, _ = run(
            ["gen", "--kind", "lts", "--states", "30", "--symbols", "4",
             "--edge-prob", "0.1", "--seed", "7", "-o", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text()  # nonempty


def test_gen_probability_zero_edgeless(tmp_path, capsys):
    code, out, _ = run(
        ["gen", "--kind", "lts", "--states", "5", "--symbols", "2",
         "--edge-prob", "0", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert out == ""


def test_gen_bad_params_exit_4(capsys):
    code, _, err = run(["gen", "--kind", "lts", "--states", "0"], capsys)
    assert code == 4
    code, _, _ = run(["gen", "--kind", "lts", "--edge-prob", "1.5"], capsys)
    assert code == 4
    code, _, _ = run(["gen", "--kind", "ta", "--states", "-3"], capsys)
    assert code == 4


def test_generator_out_of_memory_exit_4(capsys, monkeypatch):
    # an instance too large to allocate is a parameter error; the patched
    # generator raises at once, so the test allocates nothing
    import simred.generate

    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(simred.generate, "random_lts", too_large)
    for command in ("gen", "bench"):
        code, out, err = run(
            [command, "--states", "3", "--symbols", "1", "--edges", "100000000000"], capsys
        )
        assert code == 4
        assert out == ""
        assert err == "simred: not enough memory to generate this instance\n"


def test_gen_sparsity_menu_statistics(tmp_path, capsys):
    # sparsity 0.25 with 16 symbols: each state draws from a 4-symbol menu
    from simred import parse_lts

    sizes = []
    for seed in range(100):
        code, out, _ = run(
            ["gen", "--kind", "lts", "--states", "12", "--symbols", "16",
             "--edge-prob", "0.9", "--sparsity", "0.25", "--seed", str(seed)],
            capsys,
        )
        assert code == 0
        lts = parse_lts(out)
        by_name = {lts.state_names[v]: lts.out_mask[v] for v in range(lts.state_count)}
        sizes.extend(int(row.sum()) for row in by_name.values())
    mean = sum(sizes) / len(sizes)
    # with edge probability 0.9 nearly the whole 4-symbol menu is used
    assert 4 * 0.8 <= mean <= 4 * 1.2


def test_gen_ta_round_trips(tmp_path, capsys):
    from simred import parse_timbuk

    code, out, _ = run(
        ["gen", "--kind", "ta", "--states", "6", "--symbols", "3",
         "--max-rank", "2", "--rules", "9", "--seed", "3"],
        capsys,
    )
    assert code == 0
    parse_timbuk(out)


def test_bench_row_count_and_dominance(tmp_path, capsys):
    code, out, _ = run(
        ["bench", "--states", "60", "--edges", "150", "--symbols", "1,4,16,64",
         "--sparsity", "0.25", "--seed", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["instance", "states", "symbols", "transitions", "algorithm"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8  # 4 instances x 2 algorithms
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["instance"], {})[row["algorithm"]] = row
    for pair in by_instance.values():
        assert int(pair["olrt"]["counters_allocated"]) <= int(pair["lrt"]["counters_allocated"])
        assert pair["olrt"]["final_block_count"] == pair["lrt"]["final_block_count"]


def test_bench_bad_params_exit_4(capsys):
    code, _, _ = run(["bench", "--symbols", "0"], capsys)
    assert code == 4
    code, _, _ = run(["bench", "--symbols", "x"], capsys)
    assert code == 4


def test_outputs_deterministic_across_runs(tmp_path, capsys, t1_text):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    ta = write(tmp_path / "t1.timbuk", t1_text)
    commands = [
        ["sim-lts", lts],
        ["sim-lts", lts, "--format", "blocks"],
        ["ta-down", ta],
        ["ta-up", ta],
        ["minimize", lts],
        ["gen", "--kind", "lts", "--states", "20", "--symbols", "3", "--seed", "5"],
    ]
    for argv in commands:
        digests = set()
        for _ in range(2):
            code, out, _ = run(argv, capsys)
            assert code == 0
            digests.add(hashlib.sha256(out.encode()).hexdigest())
        assert len(digests) == 1


# -- each input is checked once, and minimize quotients by the engine's pair ------


def test_preorder_checked_once_per_run(tmp_path, capsys, monkeypatch):
    import simred.partition

    calls = []
    original = simred.partition._preorder_pair

    def counting(n, src, dst):
        calls.append(n)
        return original(n, src, dst)

    monkeypatch.setattr(simred.partition, "_preorder_pair", counting)
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    preorder = write(tmp_path / "pre.rel", "p p\nq q\nr r\np r\n")
    generators = write(tmp_path / "gen.rel", "p r\n")
    # a given preorder is checked once; a closure is one by construction
    for algo in ("olrt", "lrt"):
        for argv, checks in (
            (["sim-lts", lts, "--init", preorder], 1),
            (["minimize", lts, "--init", generators, "--closure"], 0),
        ):
            calls.clear()
            code, _, _ = run(argv + ["--algo", algo], capsys)
            assert code == 0
            assert len(calls) == checks, argv


def test_no_init_path_builds_a_state_relation(tmp_path, capsys, monkeypatch):
    # a relation file goes to the engine as id arrays and a pair: neither a
    # dense StateRelation nor a pair's expansion is built on the way
    from simred.partition import PartitionRelationPair

    lts = write(tmp_path / "l1.lts", L1_TEXT)
    preorder = write(tmp_path / "pre.rel", "p p\nq q\nr r\np r\n")
    generators = write(tmp_path / "gen.rel", "p r\nq p\n")
    intransitive = write(tmp_path / "bad.rel", "p p\nq q\nr r\np q\nq r\n")
    ta = write(tmp_path / "t1.tmb", T1_TEXT)
    code, out, _ = run(["ta-down", ta], capsys)
    assert code == 0
    downward = write(tmp_path / "down.rel", out)
    full = write(tmp_path / "full.rel", "q0 q0\nq0 q1\nq1 q0\nq1 q1\n")

    def refuse(*args, **kwargs):
        raise AssertionError("n x n relation built")

    monkeypatch.setattr(StateRelation, "__init__", refuse)
    monkeypatch.setattr(PartitionRelationPair, "induced_relation", refuse)
    rejected = ": initial relation is not a preorder: not transitive: (0,1) and (1,2) present"
    for algo in ("olrt", "lrt"):
        for argv, code, err in (
            (["sim-lts", lts, "--init", preorder], 0, ""),
            (["sim-lts", lts, "--init", preorder, "--format", "blocks"], 0, ""),
            (["sim-lts", lts, "--init", generators, "--closure"], 0, ""),
            (["sim-lts", lts, "--init", generators, "--closure", "--format", "blocks"], 0, ""),
            (["sim-lts", lts, "--init", intransitive], 3, f"simred: {intransitive}{rejected}"),
            (["minimize", lts, "--init", generators, "--closure"], 0, "3 "),
            (["ta-up", ta, "--init", downward], 0, ""),
            (["ta-up", ta, "--init", full], 3, f"simred: {full}: not a downward simulation"),
        ):
            got = run(argv + ["--algo", algo], capsys)
            assert got[0] == code and got[2].startswith(err), (argv, algo, got)


def test_no_cli_path_checks_a_built_pair(tmp_path, capsys, monkeypatch):
    # every pair is checked where it is built; the CLI builds none through
    # from_labels, so no valid input reaches validate_coarsest
    import simred.partition

    calls = []
    monkeypatch.setattr(simred.partition, "validate_coarsest", calls.append)
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    preorder = write(tmp_path / "pre.rel", "p p\nq q\nr r\np r\n")
    generators = write(tmp_path / "gen.rel", "p r\n")
    ta = write(tmp_path / "t1.tmb", T1_TEXT)
    code, out, _ = run(["ta-down", ta], capsys)
    assert code == 0
    downward = write(tmp_path / "down.rel", out)
    for algo in ("olrt", "lrt", "oracle"):
        for argv in (
            ["sim-lts", lts],
            ["sim-lts", lts, "--format", "blocks"],
            ["sim-lts", lts, "--init", preorder],
            ["sim-lts", lts, "--init", generators, "--closure"],
            ["minimize", lts],
            ["minimize", lts, "--init", generators, "--closure"],
            ["ta-down", ta],
            ["ta-up", ta],
            ["ta-up", ta, "--init", downward],
            ["minimize", ta],
        ):
            code, _, _ = run(argv + ["--algo", algo], capsys)
            assert code == 0, argv
            assert calls == [], argv


def test_no_engine_cli_path_expands_a_pair(tmp_path, capsys, monkeypatch):
    # relation output is written from the engine's pair; only the oracle
    # branches need the state relation
    from simred.partition import PartitionRelationPair

    calls = []
    expand = PartitionRelationPair.induced_relation

    def spy(pair):
        calls.append(pair)
        return expand(pair)

    monkeypatch.setattr(PartitionRelationPair, "induced_relation", spy)
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    preorder = write(tmp_path / "pre.rel", "p p\nq q\nr r\np r\n")
    generators = write(tmp_path / "gen.rel", "p r\n")
    ta = write(tmp_path / "t1.tmb", T1_TEXT)
    code, out, _ = run(["ta-down", ta], capsys)
    assert code == 0
    downward = write(tmp_path / "down.rel", out)
    for algo in ("olrt", "lrt"):
        for argv in (
            ["sim-lts", lts],
            ["sim-lts", lts, "--format", "blocks"],
            ["sim-lts", lts, "--init", preorder],
            ["sim-lts", lts, "--init", preorder, "--format", "blocks"],
            ["sim-lts", lts, "--init", generators, "--closure"],
            ["sim-lts", lts, "--init", generators, "--closure", "--format", "blocks"],
            ["ta-down", ta],
            ["ta-up", ta],
            ["ta-up", ta, "--init", downward],
            ["minimize", lts],
            ["minimize", ta],
        ):
            code, _, _ = run(argv + ["--algo", algo], capsys)
            assert code == 0, argv
            assert calls == [], argv


def test_closed_stdout_exits_3(tmp_path):
    # a pipe whose read end is closed fails every write to it
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simred.cli", "sim-lts", lts],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.startswith("simred: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


def test_minimize_quotients_by_engine_pair(tmp_path, capsys):
    for seed in range(6):
        lts = parse_lts(serialize_lts(random_lts(6 + seed, 2, edge_prob=0.3, seed=seed)))
        init = random_preorder(lts.state_count, edge_prob=0.3, seed=seed + 40)
        pair, _ = olrt(lts, coarsest_pair(init))
        reduced = quotient(lts, coarsest_pair(pair.induced_relation()))
        expected = serialize_lts(reduced)
        lts_path = write(tmp_path / f"{seed}.lts", serialize_lts(lts))
        rel_path = write(tmp_path / f"{seed}.rel", serialize_relation(init, lts))
        for algo in ("olrt", "lrt", "oracle"):
            code, out, err = run(
                ["minimize", lts_path, "--init", rel_path, "--algo", algo], capsys
            )
            assert code == 0
            assert out == expected
            assert err == f"{lts.state_count} {reduced.state_count}\n"


def test_non_transitive_init_exit_3_names_file(tmp_path, capsys):
    lts = write(tmp_path / "l1.lts", L1_TEXT)
    init = write(tmp_path / "bad.rel", "p p\nq q\nr r\np q\nq r\n")
    for command in ("sim-lts", "minimize"):
        for algo in ("olrt", "lrt", "oracle"):
            code, out, err = run([command, lts, "--init", init, "--algo", algo], capsys)
            assert code == 3
            assert out == ""
            assert err.startswith(
                f"simred: {init}: initial relation is not a preorder: not transitive"
            )


def test_ta_up_init_unknown_state_exit_3(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    init = write(tmp_path / "d.rel", "q0 q0\n# comment\nq1 qx\n")
    code, _, err = run(["ta-up", ta, "--init", init], capsys)
    assert code == 3
    assert err == f"simred: {init}: line 3: unknown state 'qx'\n"


def test_ta_up_init_three_tokens_exit_2(tmp_path, capsys, t1_text):
    ta = write(tmp_path / "t1.timbuk", t1_text)
    init = write(tmp_path / "d.rel", "q0 q0\nq1 q1 q0\n")
    code, _, err = run(["ta-up", ta, "--init", init], capsys)
    assert code == 2
    assert err.startswith(f"simred: {init}: line 2: expected 2 tokens")


def test_zero_state_automaton_matches_oracle(tmp_path, capsys):
    ta = write(tmp_path / "empty.timbuk",
               "Ops a:0\nAutomaton A\nStates\nFinal States\nTransitions\n")
    for command in ("ta-down", "ta-up", "minimize"):
        expected = run([command, ta, "--algo", "oracle"], capsys)
        assert expected[0] == 0
        for algo in ("olrt", "lrt"):
            assert run([command, ta, "--algo", algo], capsys) == expected, (command, algo)


def test_minimize_reads_input_once(tmp_path, capsys, monkeypatch, t1_text):
    calls = []
    original = cli._read

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(cli, "_read", counting)
    for path in (write(tmp_path / "l1.lts", L1_TEXT), write(tmp_path / "t1.timbuk", t1_text)):
        calls.clear()
        code, _, _ = run(["minimize", path], capsys)
        assert code == 0
        assert calls == [path]
