"""Command line interface: compute simulations, reduce, generate, benchmark.

Exit codes: 0 success, 2 parse error (including input that is not UTF-8),
3 semantic input error or a file or stdout that cannot be read or written,
4 bad parameters.  Relation/structure output goes to stdout (or --output);
metrics go to a separate file so the main output stays pipe-clean.

Each command imports the modules it needs when it runs: an LTS command
never loads the tree-automaton, oracle or generator code, and ``gen`` loads
no engine.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .lts import (
    IDENTIFIER_RE,
    Lts,
    LtsError,
    LtsParseError,
    _relation_ids,
    parse_lts,
    quotient,
    serialize_lts,
    serialize_relation,
)
from .partition import PartitionRelationPair, _checked_pair, closure_pair, coarsest_pair
from .relation import RelationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_PARAMS = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_SEMANTIC, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: not UTF-8 text: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_SEMANTIC, f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write(output, text)


def _load_lts(path: str, text: str) -> Lts:
    """Parse ``text``, read from ``path``, mapping parse errors to exit 2."""
    try:
        return parse_lts(text)
    except LtsError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_relation(path: str, states):
    """The distinct pairs of a relation file over the state names of an LTS
    or a tree automaton, as id arrays in row-major order."""
    try:
        return _relation_ids(_read(path), states)
    except LtsParseError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc
    except ValueError as exc:  # an unknown state name
        raise _CliError(EXIT_SEMANTIC, f"{path}: {exc}") from exc


def _initial_pair(lts: Lts, args) -> PartitionRelationPair:
    """The initial pair: one block without --init, else the coarsest pair of
    the --init relation, which _checked_pair checks to be a preorder.  The
    closure of --init --closure is one by construction and goes unchecked."""
    if args.init is None:
        return PartitionRelationPair.full(lts.state_count)
    ids = _load_relation(args.init, lts)
    if args.closure:
        return closure_pair(lts.state_count, *ids)
    try:
        return _checked_pair(lts.state_count, *ids)
    except RelationError as exc:
        raise _CliError(EXIT_SEMANTIC, f"{args.init}: {exc}") from exc


def _write_metrics(path: str | None, entries: dict) -> None:
    if path is None:
        return
    _write(path, "".join(f"{k}={v}\n" for k, v in entries.items()))


def _blocks_text(pair: PartitionRelationPair, names) -> str:
    """One line per block, blocks and members ordered by name; each line
    lists the positions of the blocks above it."""
    members = [sorted(names[v] for v in m.tolist()) for m in pair.members]
    order = sorted(range(pair.block_count), key=lambda b: members[b][0])
    position = np.empty(pair.block_count, dtype=np.int64)
    position[order] = np.arange(pair.block_count)
    lines = []
    for bid in order:
        above = np.sort(position[np.flatnonzero(pair.rel[bid])]).tolist()
        lines.append("{%s} -> {%s}" % (",".join(members[bid]), ",".join(map(str, above))))
    return "\n".join(lines) + "\n"


def _run_lts_algorithm(lts: Lts, args):
    """Returns (coarsest pair of the maximal simulation, metrics dict)."""
    initial = _initial_pair(lts, args)
    if args.algo == "oracle":
        from .oracle import max_simulation_naive

        result = max_simulation_naive(lts, initial.induced_relation())
        pair = coarsest_pair(result.relation)
        return pair, {"algorithm": "oracle", "rounds": result.rounds}
    from .engine import ENGINES

    pair, metrics = ENGINES[args.algo](lts, initial)
    entries = {"algorithm": args.algo, **metrics.as_dict()}
    entries["final_blocks"] = pair.block_count
    return pair, entries


def _cmd_sim_lts(args) -> int:
    lts = _load_lts(args.input, _read(args.input))
    pair, metrics = _run_lts_algorithm(lts, args)
    if args.format == "pairs":
        _emit(serialize_relation(pair, lts), args.output)
    else:
        _emit(_blocks_text(pair, lts.state_names), args.output)
    metrics.update(
        states=lts.state_count,
        symbols=lts.symbol_count,
        transitions=lts.transition_count,
    )
    _write_metrics(args.metrics, metrics)
    return EXIT_OK


def _load_ta(path: str, text: str):
    """Parse ``text``, read from ``path``, mapping parse errors to exit 2."""
    from .tree import TreeError, parse_timbuk

    try:
        return parse_timbuk(text)
    except TreeError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _downward_for(ta, algo: str, initial=None) -> PartitionRelationPair:
    """Coarsest pair of the maximal downward simulation inside ``initial``
    (a pair over the automaton states; default: the full relation)."""
    if algo == "oracle":
        from .oracle import downward_naive

        init = None if initial is None else initial.induced_relation()
        return coarsest_pair(downward_naive(ta, init))
    from .tree import downward_simulation

    return downward_simulation(ta, algo, initial)


def _cmd_ta_down(args) -> int:
    ta = _load_ta(args.input, _read(args.input))
    pair = _downward_for(ta, args.algo)
    _emit(serialize_relation(pair, ta), args.output)
    return EXIT_OK


def _given_downward(ta, path: str, algo: str) -> PartitionRelationPair:
    """The pair of the --init relation D, accepted iff D is a preorder and
    the maximal downward simulation inside D, computed by ``algo``, is D."""
    u, v = _load_relation(path, ta)
    try:
        pair = _checked_pair(ta.state_count, u, v)
    except RelationError as exc:
        raise _CliError(EXIT_SEMANTIC, f"{path}: not a downward simulation: {exc}") from exc
    inside = _downward_for(ta, algo, pair)
    if inside != pair:
        i = np.flatnonzero(~inside.rel[inside.block_of[u], inside.block_of[v]])[0]
        q, r = ta.state_names[u[i]], ta.state_names[v[i]]
        raise _CliError(EXIT_SEMANTIC, f"{path}: not a downward simulation: the maximal "
                        f"downward simulation inside it drops ({q},{r})")
    return pair


def _cmd_ta_up(args) -> int:
    ta = _load_ta(args.input, _read(args.input))
    d = (_downward_for(ta, args.algo) if args.init is None
         else _given_downward(ta, args.init, args.algo))
    if args.algo == "oracle":
        from .oracle import upward_naive

        rel = upward_naive(ta, d.induced_relation())
    else:
        from .tree import upward_simulation

        rel = upward_simulation(ta, d, args.algo)
    _emit(serialize_relation(rel, ta), args.output)
    return EXIT_OK


def _sniff_is_ta(text: str) -> bool:
    """Timbuk input starts with ``Ops``.  A first line of three identifiers
    is an LTS transition even so: operator declarations hold a ``:``, which
    identifiers cannot."""
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            return tokens[0] == "Ops" and not (
                len(tokens) == 3 and all(IDENTIFIER_RE.match(t) for t in tokens)
            )
    return False


def _cmd_minimize(args) -> int:
    text = _read(args.input)
    if _sniff_is_ta(text):
        from .tree import serialize_timbuk, ta_quotient

        if args.init is not None or args.closure:
            raise _CliError(EXIT_PARAMS, "--init/--closure apply to LTS input only")
        ta = _load_ta(args.input, text)
        reduced = ta_quotient(ta, _downward_for(ta, args.algo))
        before, after = ta.state_count, reduced.state_count
        _emit(serialize_timbuk(reduced), args.output)
    else:
        lts = _load_lts(args.input, text)
        pair, _ = _run_lts_algorithm(lts, args)
        reduced = quotient(lts, pair)
        before, after = lts.state_count, reduced.state_count
        _emit(serialize_lts(reduced), args.output)
    ratio_line = f"{before} {after}\n"
    # keep the structure output pipe-clean when it goes to stdout
    if args.output is None:
        sys.stderr.write(ratio_line)
    else:
        sys.stdout.write(ratio_line)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generate import random_lts, random_ta
    from .tree import serialize_timbuk

    try:
        if args.kind == "lts":
            lts = random_lts(
                args.states,
                args.symbols,
                edge_prob=None if args.edges is not None else args.edge_prob,
                n_edges=args.edges,
                sparsity=args.sparsity,
                seed=args.seed,
            )
            _emit(serialize_lts(lts), args.output)
        else:
            ta = random_ta(
                args.states,
                args.symbols,
                args.max_rank,
                args.rules,
                final_prob=args.final_prob,
                seed=args.seed,
            )
            _emit(serialize_timbuk(ta), args.output)
    except ValueError as exc:
        raise _CliError(EXIT_PARAMS, str(exc)) from exc
    except MemoryError as exc:
        raise _CliError(EXIT_PARAMS, "not enough memory to generate this instance") from exc
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .engine import ENGINES
    from .generate import random_lts

    try:
        symbol_counts = [int(tok) for tok in args.symbols.split(",") if tok]
    except ValueError as exc:
        raise _CliError(EXIT_PARAMS, f"bad symbol list {args.symbols!r}") from exc
    if not symbol_counts or min(symbol_counts) < 1 or args.states < 1 or args.edges < 0:
        raise _CliError(EXIT_PARAMS, "invalid benchmark parameters")
    algos = [tok for tok in args.algos.split(",") if tok]
    for algo in algos:
        if algo not in ENGINES:
            raise _CliError(EXIT_PARAMS, f"unknown benchmark algorithm {algo!r}")

    # CSV whose fields are names and numbers, none needing quotes
    lines = ["instance,states,symbols,transitions,algorithm,time_ms,"
             "counters_allocated,remove_enqueued,iterations,final_block_count\n"]
    for m in symbol_counts:
        try:
            lts = random_lts(
                args.states,
                m,
                n_edges=args.edges,
                sparsity=args.sparsity,
                seed=args.seed,
            )
        except ValueError as exc:
            raise _CliError(EXIT_PARAMS, str(exc)) from exc
        except MemoryError as exc:
            raise _CliError(EXIT_PARAMS, "not enough memory to generate this instance") from exc
        instance = f"n{args.states}-m{m}-seed{args.seed}"
        initial = PartitionRelationPair.full(lts.state_count)
        for algo in algos:
            pair, metrics = ENGINES[algo](lts, initial)
            lines.append(
                f"{instance},{lts.state_count},{lts.symbol_count},{lts.transition_count},"
                f"{algo},{metrics.wall_time_ms:.3f},{metrics.counters_allocated},"
                f"{metrics.remove_enqueued},{metrics.iterations},{pair.block_count}\n"
            )
    _emit("".join(lines), args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simred",
        description="Simulation preorders over LTSs and tree automata, and "
        "simulation-equivalence reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algos=("olrt", "lrt", "oracle")):
        p.add_argument("input", help="input file")
        p.add_argument("--algo", choices=algos, default="olrt")
        p.add_argument("--output", "-o", default=None, help="write output here instead of stdout")

    p = sub.add_parser("sim-lts", help="maximal simulation preorder of an LTS")
    common(p)
    p.add_argument("--init", default=None, help="initial relation file (default: full)")
    p.add_argument("--closure", action="store_true",
                   help="close the initial relation reflexively and transitively first")
    p.add_argument("--format", choices=("pairs", "blocks"), default="pairs")
    p.add_argument("--metrics", default=None, help="write key=value metrics to this file")

    p = sub.add_parser("ta-down", help="maximal downward simulation of a tree automaton")
    common(p)

    p = sub.add_parser("ta-up", help="maximal upward simulation of a tree automaton")
    common(p)
    p.add_argument("--init", default=None,
                   help="downward simulation pairs file (default: compute it)")

    p = sub.add_parser("minimize", help="quotient by simulation equivalence")
    common(p)
    p.add_argument("--init", default=None, help="initial relation file (LTS input only)")
    p.add_argument("--closure", action="store_true")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=("lts", "ta"), default="lts")
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--symbols", type=int, default=2)
    p.add_argument("--edge-prob", type=float, default=0.1)
    p.add_argument("--edges", type=int, default=None,
                   help="sample approximately this many edges instead of using --edge-prob")
    p.add_argument("--sparsity", type=float, default=1.0,
                   help="fraction of the alphabet available to each state")
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--rules", type=int, default=10)
    p.add_argument("--final-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("bench", help="compare engine configurations on random LTSs")
    p.add_argument("--states", type=int, default=1000)
    p.add_argument("--edges", type=int, default=4000)
    p.add_argument("--symbols", default="1,4,16,64",
                   help="comma-separated alphabet sizes to sweep")
    p.add_argument("--sparsity", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algos", default="lrt,olrt")
    p.add_argument("--output", "-o", default=None)

    return parser


_COMMANDS = {
    "sim-lts": _cmd_sim_lts,
    "ta-down": _cmd_ta_down,
    "ta-up": _cmd_ta_up,
    "minimize": _cmd_minimize,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def _tree_errors(name: str) -> tuple:
    """The tree module's exception class ``name``, or nothing when no
    command has loaded that module: then none of its errors can arise."""
    tree = sys.modules.get(f"{__package__}.tree")
    return () if tree is None else (getattr(tree, name),)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"simred: cannot write stdout: {exc}\n")
        return EXIT_SEMANTIC
    except _CliError as exc:
        sys.stderr.write(f"simred: {exc}\n")
        return exc.code
    except (LtsParseError, *_tree_errors("TimbukParseError")) as exc:
        sys.stderr.write(f"simred: {exc}\n")
        return EXIT_PARSE
    except (LtsError, RelationError, *_tree_errors("TreeError")) as exc:
        sys.stderr.write(f"simred: {exc}\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
