"""In-process pipelines that mirror the CLI, with spans around each layer.

Each pipeline calls the same public functions as the matching ``simred``
subcommand, in the same order.  With a :class:`Tracer` it records one span
per layer call (name, start, end, parent, op id) in memory; with
``Tracer(enabled=False)`` it records nothing and runs the engine through
``olrt()`` exactly as the CLI does, which gives the untraced baseline for
the tracing overhead and the reference counts for the step-driven engine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from simred.engine import EngineState, engine_step, olrt
from simred.lts import parse_lts, parse_relation, quotient, serialize_lts, serialize_relation
from simred.partition import coarsest_pair, refine_by_out
from simred.relation import StateRelation
from simred.tree import (
    downward_translation,
    parse_timbuk,
    upward_translation,
)

ENGINE_COUNTS = ("counters_allocated", "remove_enqueued", "iterations", "splits", "skipped_iterations")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.steps_ns: list[int] = []
        self._open: list[int] = []
        self.op = None

    def span(self, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()


class OpResult:
    def __init__(self):
        self.output = ""
        self.stdout = ""
        self.counts: dict[str, float] = {}
        self.engine_metrics: list[dict] = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _require_preorder(violation) -> None:
    if violation is not None:
        raise RuntimeError(f"generated initial relation {violation}")


def _engine(t: Tracer, res: OpResult, lts, initial):
    """The ``olrt`` run, split into its layers when tracing."""
    res.add("partition.initial_blocks", initial.block_count)
    if not t.enabled:
        pair, metrics = olrt(lts, initial)
    else:
        with t.span("partition.refine_by_out"):
            refined = refine_by_out(initial, lts)
        res.add("partition.out_blocks", refined.block_count)
        with t.span("engine.init"):
            state = EngineState(lts, refined, out_init=False)
        steps = t.steps_ns
        with t.span("engine.loop"):
            while True:
                t0 = time.perf_counter_ns()
                progressed = engine_step(state)
                if not progressed:
                    break
                steps.append(time.perf_counter_ns() - t0)
        with t.span("engine.current_pair"):
            pair = state.current_pair()
        metrics = state.metrics
    counts = {k: getattr(metrics, k) for k in ENGINE_COUNTS}
    res.engine_metrics.append(counts)
    for k, v in counts.items():
        res.add(f"engine.{k}", v)
    res.add("engine.final_blocks", pair.block_count)
    return pair


def _read(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(res: OpResult, text: str, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    res.output = text


def sim_lts(t: Tracer, d: Path, out: Path) -> OpResult:
    """``simred sim-lts in.lts -o OUT``: pairs format, OLRT, full initial relation."""
    res = OpResult()
    with t.span("cli.op"):
        text = _read(d / "in.lts")
        with t.span("lts.parse"):
            lts = parse_lts(text)
        with t.span("partition.coarsest_pair"):
            initial = coarsest_pair(StateRelation.full(lts.state_count))
        pair = _engine(t, res, lts, initial)
        with t.span("partition.induced_relation"):
            rel = pair.induced_relation()
        with t.span("lts.serialize"):
            text = serialize_relation(rel, lts)
        _emit(res, text, out)
    return res


def minimize(t: Tracer, d: Path, out: Path) -> OpResult:
    """``simred minimize in.lts --init gen.rel --closure -o OUT``."""
    res = OpResult()
    with t.span("cli.op"):
        text = _read(d / "in.lts")
        with t.span("lts.parse"):
            lts = parse_lts(text)
        text = _read(d / "gen.rel")
        with t.span("lts.parse_relation"):
            init = parse_relation(text, lts)
        with t.span("relation.closure"):
            init = init.reflexive_transitive_closure()
        with t.span("relation.preorder_check"):
            violation = init.preorder_violation()
        _require_preorder(violation)
        with t.span("partition.coarsest_pair"):
            initial = coarsest_pair(init)
        pair = _engine(t, res, lts, initial)
        with t.span("partition.induced_relation"):
            rel = pair.induced_relation()
        with t.span("partition.coarsest_pair"):
            blocks = coarsest_pair(rel)
        with t.span("lts.quotient"):
            reduced = quotient(lts, blocks)
        with t.span("lts.serialize"):
            text = serialize_lts(reduced)
        _emit(res, text, out)
        res.stdout = f"{lts.state_count} {reduced.state_count}\n"
        res.add("lts.reduction_ratio", lts.state_count / reduced.state_count)
    return res


def ta_up(t: Tracer, d: Path, out: Path) -> OpResult:
    """``simred ta-up in.tmb -o OUT``: downward, then upward simulation (OLRT)."""
    res = OpResult()
    with t.span("cli.op"):
        text = _read(d / "in.tmb")
        with t.span("tree.parse"):
            ta = parse_timbuk(text)
        nq = ta.state_count
        with t.span("tree.down_translation"):
            tr = downward_translation(ta)
        res.add("tree.down_lts_states", tr.lts.state_count)
        pair = _engine(t, res, tr.lts, tr.initial)
        with t.span("partition.induced_relation"):
            down = StateRelation(pair.induced_relation().matrix[:nq, :nq])
        with t.span("tree.up_translation"):
            tr = upward_translation(ta, down)
        res.add("tree.up_lts_states", tr.lts.state_count)
        pair = _engine(t, res, tr.lts, tr.initial)
        with t.span("partition.induced_relation"):
            up = StateRelation(pair.induced_relation().matrix[:nq, :nq])
        names = ta.state_names
        lines = sorted(f"{names[q]} {names[r]}" for q, r in up.pairs())
        _emit(res, "\n".join(lines) + "\n" if lines else "", out)
    return res


def layer_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per op id: seconds spent in each span name, plus ``cli.self``.

    ``cli.self`` is the root span's duration minus the time its direct
    children cover; ``cli.op`` is the root span's duration.
    """
    per_op: dict[int, dict[str, float]] = {}
    for name, start, end, parent, op in spans:
        times = per_op.setdefault(op, {})
        times[name] = times.get(name, 0.0) + (end - start)
        if parent is not None and spans[parent][0] == "cli.op":
            times["cli.children"] = times.get("cli.children", 0.0) + (end - start)
    for times in per_op.values():
        times["cli.self"] = times["cli.op"] - times.pop("cli.children", 0.0)
    return per_op
