"""simred benchmark: one closed-loop client driving the CLI, or a traced run.

    python3 perfbench/run.py --workload lts-loop --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is taken from ``src/``.  With
``--trace 0`` every operation is a fresh ``python -m simred.cli`` process on
a generated input, timed from process start to exit, and the end-to-end
metrics are printed.  With ``--trace 1`` the same inputs go through
in-process pipelines that record a span per layer, and the per-layer
metrics are printed.  Every output is checked against an independent
referee.  The last line of stdout is one JSON object with the result.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("lts-loop", "lts-minimize", "ta-up")
# setup_s: fresh interpreters spread over the run, dealt into groups so that
# each group spans the whole run; the median of the group means.  Single probes
# fall in fast and slow phases of a shared machine, and a median of such a mix
# jumps between them.
SETUP_PROBES = 24
SETUP_GROUPS = 8
TRACE_INPUTS = 3  # inputs in a traced run; their counts must repeat exactly
# LRT against OLRT counter allocation, on an instance both finish quickly.
LRT_SIDE = dict(n_states=200, n_symbols=64, n_edges=800, sparsity=0.25)


class PinError(RuntimeError):
    """A generated input no longer matches its committed digest."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_at_start) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


# -- inputs --------------------------------------------------------------------


class Inputs:
    """Inputs of one workload and seed, generated once, pinned, refereed once."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import referee
        import workloads

        self.make = workloads.MAKERS[workload]
        self.pool = workloads.POOL[workload]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.referee = referee
        pins = json.loads((HERE / "pins.json").read_text())
        if pins["params"][workload] != workloads.params(workload):
            raise PinError(f"{workload}: generator parameters differ from pins.json")
        self.pins = pins["digests"][workload]
        self._inputs: dict[int, object] = {}
        self._expected: dict[str, tuple] = {}
        self._check(workloads.CANARY_SEED, 0, self.make(workloads.CANARY_SEED, 0))

    def _check(self, seed: int, index: int, inp) -> None:
        pinned = self.pins.get(f"{seed}:{index}")
        if pinned is not None and pinned != inp.digest:
            raise PinError(
                f"{self.workload} seed {seed} input {index}: digest {inp.digest} "
                f"!= pinned {pinned}; simred.generate changed the workload"
            )

    def get(self, op: int):
        index = op % self.pool
        inp = self._inputs.get(index)
        if inp is None:
            inp = self.make(self.seed, index)
            self._check(self.seed, index, inp)
            inp.dir = self.workdir / f"in{index}"
            inp.dir.mkdir()
            for name, text in inp.files.items():
                (inp.dir / name).write_text(text, encoding="utf-8")
            self._inputs[index] = inp
        return inp

    def expected(self, inp) -> tuple:
        """(output file digest, stdout) the referee expects; untimed, cached."""
        exp = self._expected.get(inp.digest)
        if exp is None:
            f = inp.files
            if self.workload == "lts-loop":
                exp = (sha256(self.referee.sim_lts_output(f["in.lts"])), "")
            elif self.workload == "lts-minimize":
                out, line = self.referee.minimize_output(f["in.lts"], f["gen.rel"])
                exp = (sha256(out), line)
            else:
                exp = (sha256(self.referee.ta_up_output(inp.ta)), "")
            self._expected[inp.digest] = exp
        return exp


# -- end-to-end run ------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list, env: dict, cwd: Path):
    """Run to exit; return (wall seconds, peak RSS bytes, exit code, stdout, stderr)."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss * 1024, proc.returncode,
            out.decode("utf-8", "replace"), err_path.read_text(errors="replace"))


def cli_argv(workload: str, d: Path) -> list:
    base = [sys.executable, "-m", "simred.cli"]
    if workload == "lts-loop":
        return base + ["sim-lts", str(d / "in.lts"), "-o", str(d / "out")]
    if workload == "lts-minimize":
        return base + ["minimize", str(d / "in.lts"), "--init", str(d / "gen.rel"),
                       "--closure", "-o", str(d / "out")]
    return base + ["ta-up", str(d / "in.tmb"), "-o", str(d / "out")]


SETUP_CODE = {
    "lts-loop": "import sys, simred; simred.parse_lts(open(sys.argv[1], encoding='utf-8').read())",
    "lts-minimize": (
        "import sys, simred; lts = simred.parse_lts(open(sys.argv[1], encoding='utf-8').read()); "
        "simred.parse_relation(open(sys.argv[2], encoding='utf-8').read(), lts)"
    ),
    "ta-up": "import sys, simred; simred.parse_timbuk(open(sys.argv[1], encoding='utf-8').read())",
}


def end_to_end(workload: str, inputs: Inputs, seconds: float, work: Path) -> dict:
    env = _child_env()
    # compile simred's bytecode once, untimed: users do not pay that per run
    _, _, code, _, err = run_process([sys.executable, "-c", "import simred.cli"], env, work)
    if code != 0:
        raise RuntimeError(f"importing simred failed with exit {code}: {err.strip()}")
    setup = []

    def probe():
        # spread over the run, so that drift in machine speed hits setup
        # probes and ops alike
        inp = inputs.get(len(setup) % 3)
        wall, _, code, _, err = run_process(
            [sys.executable, "-c", SETUP_CODE[workload]] + [str(inp.dir / n) for n in inp.files],
            env, work)
        if code != 0:
            raise RuntimeError(f"setup probe failed with exit {code}: {err.strip()}")
        setup.append(wall)

    walls, rss, work_done = [], [], []
    failed = 0
    op = 0
    while op == 0 or sum(walls) < seconds:
        while len(setup) < 1 + (SETUP_PROBES - 1) * sum(walls) / seconds:
            probe()
        inp = inputs.get(op)
        digest, stdout = inputs.expected(inp)
        out = inp.dir / "out"
        out.unlink(missing_ok=True)
        wall, peak, code, got_stdout, err = run_process(cli_argv(workload, inp.dir), env, work)
        if code != 0:
            problem = f"exit {code}: {err.strip()[-400:]}"
        elif not out.exists() or hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            problem = "output differs from the referee's"
        elif got_stdout != stdout:
            problem = f"stdout {got_stdout!r}, expected {stdout!r}"
        else:
            problem = None
        if problem:
            failed += 1
            print(f"op {op} on input {inp.gen_seed} FAILED: {problem}", file=sys.stderr)
        walls.append(wall)
        rss.append(peak)
        work_done.append(inp.work)
        op += 1
    while len(setup) < SETUP_PROBES:
        probe()

    # the mean, not the median: on a shared machine op times fall in a fast
    # and a slow mode, and a run's median jumps between them
    metrics = {
        "op_s_mean": (statistics.fmean(walls), "s"),
        "transitions_per_s": (sum(work_done) / sum(walls), "1/s"),
        "peak_rss_mb": (max(rss) / 1e6, "MB"),
        "setup_s": (statistics.median(
            statistics.fmean(setup[g::SETUP_GROUPS]) for g in range(SETUP_GROUPS)
        ), "s"),
    }
    notes = {
        "op_s_mean": f"mean of {len(walls)} ops; quartiles "
                     + " ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
        if len(walls) > 1 else "1 op",
        "transitions_per_s": f"{sum(work_done)} transitions in {sum(walls):.3f} s of op time",
        "peak_rss_mb": "largest child ru_maxrss over the run",
        "setup_s": f"median of {SETUP_GROUPS} means of {len(setup) // SETUP_GROUPS} fresh "
                   f"interpreters each (import + parse), probes dealt round-robin",
    }
    return {"attempted": op, "failed": failed, "metrics": metrics, "notes": notes}


# -- traced run ----------------------------------------------------------------


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def lrt_counter_ratio(seed: int) -> tuple[float, bool]:
    """LRT over OLRT ``counters_allocated`` on a small m=64 side instance."""
    from simred import coarsest_pair, olrt, random_lts, run_engine
    from simred.relation import StateRelation

    p = LRT_SIDE
    lts = random_lts(p["n_states"], p["n_symbols"], n_edges=p["n_edges"],
                     sparsity=p["sparsity"], seed=seed)
    initial = coarsest_pair(StateRelation.full(lts.state_count))
    opt, m_opt = olrt(lts, initial)
    base, m_base = run_engine(lts, initial, out_init=False, restrict_to_in=False,
                              restrict_remove=False)
    return m_base.counters_allocated / m_opt.counters_allocated, opt == base


# span names; each gives the metric "<span>_s"
PER_LAYER_SPANS = (
    "engine.loop", "engine.init", "engine.current_pair", "partition.refine_by_out",
    "partition.coarsest_pair", "partition.induced_relation", "relation.closure",
    "relation.preorder_check", "lts.parse", "lts.parse_relation", "lts.quotient",
    "lts.serialize", "tree.parse", "tree.down_translation", "tree.up_translation", "cli.self",
)
PER_LAYER_COUNTS = (
    "engine.counters_allocated", "engine.iterations", "engine.remove_enqueued",
    "engine.splits", "engine.skipped_iterations", "engine.final_blocks",
    "partition.initial_blocks", "partition.out_blocks", "lts.reduction_ratio",
    "tree.down_lts_states", "tree.up_lts_states", "lts.output_bytes",
)


def traced_run(workload: str, inputs: Inputs, seconds: float) -> dict:
    import traced

    pipeline = {"lts-loop": traced.sim_lts, "lts-minimize": traced.minimize,
                "ta-up": traced.ta_up}[workload]
    tracer = traced.Tracer()
    untraced = traced.Tracer(enabled=False)
    counts: dict[int, dict] = {}
    ratios, elapsed, attempted, failed = [], 0.0, 0, 0
    n_in = min(TRACE_INPUTS, inputs.pool)
    op = 0
    while op < n_in or elapsed < seconds:
        index = op % n_in
        inp = inputs.get(index)
        digest, stdout = inputs.expected(inp)
        tracer.op = op
        runs = {}
        # alternate which side goes first so drift does not bias the ratio
        for side in ((tracer, untraced) if op % 2 == 0 else (untraced, tracer)):
            t0 = time.perf_counter()
            res = pipeline(side, inp.dir, inp.dir / "out")
            runs[side.enabled] = (res, time.perf_counter() - t0)
        (res_t, wall_t), (res_u, wall_u) = runs[True], runs[False]
        elapsed += wall_t + wall_u
        ratios.append(wall_t / wall_u)
        res_t.counts["lts.output_bytes"] = len(res_t.output.encode("utf-8"))
        if any(sha256(res.output) != digest or res.stdout != stdout for res in (res_t, res_u)):
            problem = "output differs from the referee's"
        elif res_t.engine_metrics != res_u.engine_metrics:
            problem = "EngineState steps and olrt() counted differently"
        elif counts.setdefault(index, res_t.counts) != res_t.counts:
            problem = "counts differ from this input's first op"
        else:
            problem = None
        attempted += 1
        if problem:
            failed += 1
            print(f"traced op {op} on input {inp.gen_seed} FAILED: {problem}", file=sys.stderr)
        op += 1

    lrt_ratio, same_pair = lrt_counter_ratio(inputs.seed)
    attempted += 1
    if not same_pair:
        failed += 1
        print("LRT and OLRT final pairs differ on the side instance", file=sys.stderr)

    per_op = traced.layer_times(tracer.spans)
    metrics = {}
    for span in PER_LAYER_SPANS:
        metrics[f"{span}_s"] = (statistics.median(t.get(span, 0.0) for t in per_op.values()), "s")
    steps_us = [ns / 1000 for ns in tracer.steps_ns] or [0.0]
    metrics["engine.step_us_p50"] = (statistics.median(steps_us), "us")
    metrics["engine.step_us_p99"] = (_percentile(steps_us, 0.99), "us")
    per_input = list(counts.values())
    for key in PER_LAYER_COUNTS:
        unit = {"lts.reduction_ratio": "ratio", "lts.output_bytes": "bytes"}.get(key, "count")
        metrics[key] = (statistics.median(c.get(key, 0) for c in per_input), unit)
    metrics["engine.skip_ratio"] = (statistics.median(
        c["engine.skipped_iterations"]
        / max(1, c["engine.iterations"] + c["engine.skipped_iterations"])
        for c in per_input), "ratio")
    metrics["engine.lrt_counter_ratio"] = (lrt_ratio, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    metrics["trace.coverage"] = (statistics.median(
        1.0 - t["cli.self"] / t["cli.op"] for t in per_op.values()), "ratio")
    notes = {"engine.step_us_p99": f"over {len(steps_us)} engine steps",
             "trace.overhead_ratio": f"median over {len(ratios)} traced/untraced pairs"}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load = os.getloadavg()
    if not (SRC / "simred" / "__init__.py").is_file():
        print(f"perfbench: no simred sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        try:
            inputs = Inputs(args.workload, args.seed, work)
        except PinError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        print("env " + json.dumps(environment(load), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"closed loop, 1 client, {args.seconds:g} s")
        try:
            if args.trace:
                result = traced_run(args.workload, inputs, args.seconds)
            else:
                result = end_to_end(args.workload, inputs, args.seconds, work)
        except PinError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed, attempted = result["failed"], result["attempted"]
    print(f"{'failed_ratio':<30}{failed / attempted:>16.6g} -      ({failed} of {attempted} ops)")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{name:<30}{value:>16.6g} {unit:<6} {note}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
