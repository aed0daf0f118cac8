"""The benchmark's in-process pipelines (``perfbench/traced.py``) write what
the matching CLI commands write, traced and untraced, on small seeded
inputs."""

import sys
from pathlib import Path

import pytest

from simred.cli import main
from simred.generate import random_lts, random_ta
from simred.lts import serialize_lts
from simred.tree import serialize_timbuk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import traced  # noqa: E402  (a failed import must fail, not skip)


def _lts_dir(root: Path, seed: int) -> Path:
    d = root / f"lts{seed}"
    d.mkdir()
    lts = random_lts(40, 3, n_edges=120, sparsity=0.5, seed=seed)
    (d / "in.lts").write_text(serialize_lts(lts))
    names = lts.state_names
    pairs = {(names[(3 * i) % len(names)], names[(5 * i + seed) % len(names)]) for i in range(30)}
    (d / "gen.rel").write_text("".join(f"{u} {v}\n" for u, v in sorted(pairs)))
    return d


def _ta_dir(root: Path, seed: int) -> Path:
    d = root / f"ta{seed}"
    d.mkdir()
    (d / "in.tmb").write_text(serialize_timbuk(random_ta(12, 4, 3, 60, seed=seed)))
    return d


@pytest.mark.parametrize("enabled", [True, False], ids=["traced", "untraced"])
def test_pipelines_write_what_the_cli_writes(tmp_path, capsys, enabled):
    cases = []
    for seed in range(2):
        d = _lts_dir(tmp_path, seed)
        cases.append((traced.sim_lts, d, ["sim-lts", str(d / "in.lts")]))
        cases.append((traced.minimize, d, ["minimize", str(d / "in.lts"), "--init",
                                           str(d / "gen.rel"), "--closure"]))
        d = _ta_dir(tmp_path, seed)
        cases.append((traced.ta_up, d, ["ta-up", str(d / "in.tmb")]))
    for pipeline, d, argv in cases:
        tracer = traced.Tracer(enabled=enabled)
        out = tmp_path / "out.txt"
        res = pipeline(tracer, d, out)
        assert main(argv + ["-o", str(tmp_path / "cli.txt")]) == 0, argv
        cli_stdout = capsys.readouterr().out
        assert res.output == out.read_text() == (tmp_path / "cli.txt").read_text(), argv
        if pipeline is traced.minimize:
            assert res.stdout == cli_stdout
        assert res.output
        assert bool(tracer.spans) == enabled
