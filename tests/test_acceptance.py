"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
criterion is a single test so the pytest report carries the verdict too.
"""

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import pytest

import simred
from simred import (
    EngineState,
    StateRelation,
    coarsest_pair,
    downward_naive,
    downward_simulation,
    downward_translation,
    is_simulation,
    max_simulation_naive,
    olrt,
    run_engine,
    upward_naive,
    upward_simulation,
    upward_translation,
)
from simred.cli import main as cli_main
from simred.generate import random_lts, random_preorder, random_ta
from ta_reference import initial_pair_matches

EDGE_PROBS = (0.1, 0.3, 0.6)
N_LTS = 500
PREORDERS_PER_LTS = 3
N_TA = 200


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@dataclass
class LtsCase:
    lts: object
    init_rel: StateRelation
    init_pair: object
    oracle: StateRelation
    olrt_pair: object
    lrt_pair: object


@pytest.fixture(scope="session")
def lts_cases():
    t0 = time.perf_counter()
    cases = []
    for k in range(N_LTS):
        rng = np.random.default_rng(10_000 + k)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        lts = random_lts(n, m, edge_prob=EDGE_PROBS[k % 3], seed=20_000 + k)
        for j in range(PREORDERS_PER_LTS):
            init_rel = random_preorder(n, edge_prob=0.4, seed=30_000 + 7 * k + j)
            init_pair = coarsest_pair(init_rel)
            oracle = max_simulation_naive(lts, init_rel).relation
            olrt_pair, _ = olrt(lts, init_pair)
            lrt_pair, _ = run_engine(
                lts, init_pair, out_init=False, restrict_to_in=False,
                restrict_remove=False,
            )
            cases.append(LtsCase(lts, init_rel, init_pair, oracle, olrt_pair, lrt_pair))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


@pytest.fixture(scope="session")
def ta_cases():
    cases = []
    for k in range(N_TA):
        rng = np.random.default_rng(40_000 + k)
        ta = random_ta(
            int(rng.integers(1, 7)),
            int(rng.integers(1, 4)),
            2,
            int(rng.integers(0, 11)),
            final_prob=0.5,
            seed=50_000 + k,
        )
        cases.append(ta)
    return cases


def test_criterion_1_oracle_equivalence_lts(lts_cases):
    cases, elapsed = lts_cases
    assert len(cases) >= 500 * 3
    mismatches = sum(
        1
        for c in cases
        if not (
            c.olrt_pair.induced_relation() == c.oracle
            and c.lrt_pair.induced_relation() == c.oracle
        )
    )
    report(
        "criterion 1: olrt = lrt = oracle on the random LTS set",
        mismatches == 0 and elapsed < 300.0,
        f"{len(cases)} runs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_coarsest_pair_laws(lts_cases):
    cases, _ = lts_cases
    bad = 0
    for c in cases:
        for pair in (c.olrt_pair, c.lrt_pair):
            expected_blocks = coarsest_pair(c.oracle).blocks
            k = pair.block_count
            rel = pair.rel
            ok = (
                pair.blocks == expected_blocks
                and rel.diagonal().all()
                and not (rel & rel.T & ~np.eye(k, dtype=bool)).any()
                and is_simulation(c.lts, pair.induced_relation())
                and pair.induced_relation().issubset(c.init_rel)
            )
            if not ok:
                bad += 1
    report(
        "criterion 2: engine outputs satisfy the coarsest-pair laws",
        bad == 0,
        f"{2 * len(cases)} pair checks, {bad} violations",
    )


def test_criterion_3_tree_automata_reductions(ta_cases, t1):
    bad = 0
    for ta in ta_cases:
        d = coarsest_pair(downward_naive(ta))
        if downward_simulation(ta) != d:
            bad += 1
            continue
        if upward_simulation(ta, d) != coarsest_pair(upward_naive(ta, d.induced_relation())):
            bad += 1
    d1 = downward_simulation(t1).induced_relation()
    u1 = upward_simulation(t1, coarsest_pair(d1)).induced_relation()
    fixture_ok = set(d1.pairs()) == {(0, 0), (1, 1)} and set(u1.pairs()) == {
        (0, 0), (0, 1), (1, 1),
    }
    report(
        "criterion 3: downward/upward reductions match the oracles",
        bad == 0 and fixture_ok,
        f"{len(ta_cases)} automata, {bad} mismatches, fixture ok: {fixture_ok}",
    )


def test_criterion_4_optimizations_are_conservative(lts_cases):
    cases, _ = lts_cases
    variants = (
        dict(out_init=True, restrict_to_in=False, restrict_remove=True),
        dict(out_init=True, restrict_to_in=True, restrict_remove=False),
        dict(out_init=False, restrict_to_in=False, restrict_remove=False),
    )
    bad = 0
    for c in cases:
        reference = c.olrt_pair.induced_relation()
        for flags in variants:
            pair, _ = run_engine(c.lts, c.init_pair, **flags)
            if pair.induced_relation() != reference:
                bad += 1
    report(
        "criterion 4: each disabled optimization preserves the result",
        bad == 0,
        f"{3 * len(cases)} variant runs, {bad} mismatches",
    )


def test_criterion_5_resource_dominance_sweep():
    rows = []
    for m in (1, 4, 16, 64):
        lts = random_lts(1000, m, n_edges=4000, sparsity=0.25, seed=0)
        init = coarsest_pair(StateRelation.full(1000))
        o_pair, o_metrics = olrt(lts, init)
        l_pair, l_metrics = run_engine(
            lts, init, out_init=False, restrict_to_in=False, restrict_remove=False
        )
        rows.append((m, o_metrics, l_metrics, o_pair, l_pair))
    dominance = all(
        om.counters_allocated <= lm.counters_allocated for _, om, lm, _, _ in rows
    )
    in_time = all(
        om.wall_time_ms < 60_000 and lm.wall_time_ms < 60_000
        for _, om, lm, _, _ in rows
    )
    ratios = [lm.counters_allocated / om.counters_allocated for _, om, lm, _, _ in rows]
    monotone = all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))
    agree = all(
        op.induced_relation() == lp.induced_relation() for _, _, _, op, lp in rows
    )
    formula = all(
        lm.counters_allocated == m * lp.block_count * 1000
        for m, _, lm, _, lp in rows
    )
    report(
        "criterion 5: counter allocation dominance over the alphabet sweep",
        dominance and in_time and monotone and ratios[-1] >= 2.0 and agree and formula,
        "ratios " + ", ".join(f"{m}:{r:.2f}" for (m, _, _, _, _), r in zip(rows, ratios)),
    )


def test_criterion_6_counter_audit():
    violations = 0
    steps_checked = 0
    for k in range(50):
        rng = np.random.default_rng(60_000 + k)
        n = int(rng.integers(4, 29))
        m = int(rng.integers(1, 5))
        lts = random_lts(n, m, edge_prob=0.3, seed=61_000 + k)
        init = coarsest_pair(random_preorder(n, edge_prob=0.25, seed=62_000 + k))
        for flags in (
            dict(),
            dict(out_init=False, restrict_to_in=False, restrict_remove=False),
        ):
            try:
                state = EngineState(lts, init, audit=True, **flags)
                for _ in range(1000):
                    if not state.step():
                        break
                    steps_checked += 1
            except simred.AuditError:
                violations += 1
    report(
        "criterion 6: counter audits clean after init and every step",
        violations == 0,
        f"50 instances, {steps_checked} audited steps, {violations} violations",
    )


def test_criterion_7_specialized_init_equality(ta_cases):
    bad = 0
    for ta in ta_cases:
        d = downward_naive(ta)
        if not (
            initial_pair_matches(ta, downward_translation(ta))
            and initial_pair_matches(ta, upward_translation(ta, d), d)
        ):
            bad += 1
    report(
        "criterion 7: specialized initial pairs equal the generic refinement",
        bad == 0,
        f"{len(ta_cases)} automata, {bad} mismatches",
    )


def _corpus_digest(tmp_path, tag: str) -> str:
    """Run the CLI corpus once; digest all outputs (bench time column masked)."""
    digest = hashlib.sha256()
    root = tmp_path / tag
    root.mkdir()

    lts_file = root / "corpus.lts"
    ta_file = root / "corpus.timbuk"
    assert cli_main(
        ["gen", "--kind", "lts", "--states", "40", "--symbols", "4",
         "--edge-prob", "0.08", "--seed", "9", "-o", str(lts_file)]
    ) == 0
    assert cli_main(
        ["gen", "--kind", "ta", "--states", "6", "--symbols", "3", "--max-rank",
         "2", "--rules", "10", "--seed", "9", "-o", str(ta_file)]
    ) == 0

    outputs = []
    for name, argv in (
        ("pairs", ["sim-lts", str(lts_file)]),
        ("pairs-lrt", ["sim-lts", str(lts_file), "--algo", "lrt"]),
        ("blocks", ["sim-lts", str(lts_file), "--format", "blocks"]),
        ("down", ["ta-down", str(ta_file)]),
        ("up", ["ta-up", str(ta_file)]),
        ("min-lts", ["minimize", str(lts_file)]),
        ("min-ta", ["minimize", str(ta_file)]),
        ("bench", ["bench", "--states", "80", "--edges", "200", "--symbols",
                   "1,4", "--sparsity", "0.5", "--seed", "3"]),
    ):
        out_file = root / f"{name}.out"
        assert cli_main(argv + ["-o", str(out_file)]) == 0
        outputs.append((name, out_file))

    for name, path in outputs:
        text = path.read_text()
        if name == "bench":
            # wall time is the one permitted nondeterministic column
            lines = text.splitlines()
            header = lines[0].split(",")
            t_idx = header.index("time_ms")
            masked = [lines[0]]
            for line in lines[1:]:
                cells = line.split(",")
                cells[t_idx] = "-"
                masked.append(",".join(cells))
            text = "\n".join(masked)
        digest.update(name.encode())
        digest.update(text.encode())
    digest.update((lts_file.read_text() + ta_file.read_text()).encode())
    return digest.hexdigest()


def test_criterion_8_determinism(tmp_path):
    first = _corpus_digest(tmp_path, "run1")
    second = _corpus_digest(tmp_path, "run2")
    report(
        "criterion 8: repeated CLI runs are byte-identical",
        first == second,
        f"digest {first[:12]}",
    )
