"""Each entry point loads only the modules it runs.

Every check starts a fresh interpreter with ``-X importtime``, which lists
each module the process imports on stderr, so no import made by another
test can hide or fake a load.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LTS_TEXT = "p a q\nq b q\nr a q\n"
BAD_TIMBUK = "Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\nb() -> q\n"
TREE_SIDE = {"simred.tree", "simred.oracle", "simred.generate"}


def _python(args, cwd):
    """Run ``python -X importtime ARGS``; (exit code, modules it imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, loaded


@pytest.fixture(scope="module")
def numpy_loads_ma(tmp_path_factory):
    """Whether a bare ``import numpy`` already loads numpy.ma (numpy 1.x)."""
    _, loaded = _python(["-c", "import numpy"], tmp_path_factory.mktemp("numpy"))
    return "numpy.ma" in loaded


@pytest.fixture
def files(tmp_path, t1_text):
    (tmp_path / "in.lts").write_text(LTS_TEXT)
    (tmp_path / "in.rel").write_text("p r\n")
    (tmp_path / "in.tmb").write_text(t1_text)
    (tmp_path / "bad.tmb").write_text(BAD_TIMBUK)
    return tmp_path


def _simred_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "simred"}


def test_import_and_parse_lts_load_lts_and_relation_only(files, numpy_loads_ma):
    code, loaded = _python(
        ["-c", "import sys, simred; simred.parse_lts(open(sys.argv[1]).read())", "in.lts"],
        files,
    )
    assert code == 0
    assert _simred_modules(loaded) == {"simred", "simred.lts", "simred.relation"}
    assert numpy_loads_ma or "numpy.ma" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["sim-lts", "in.lts", "-o", "out"],
        ["minimize", "in.lts", "--init", "in.rel", "--closure", "-o", "out"],
    ],
    ids=["sim-lts", "minimize"],
)
def test_lts_commands_load_no_tree_oracle_or_generator(files, numpy_loads_ma, argv):
    code, loaded = _python(["-m", "simred.cli", *argv], files)
    assert code == 0
    assert "simred.engine" in loaded
    assert not TREE_SIDE & loaded
    assert numpy_loads_ma or "numpy.ma" not in loaded


def test_ta_up_loads_no_numpy_ma(files, numpy_loads_ma):
    code, loaded = _python(["-m", "simred.cli", "ta-up", "in.tmb", "-o", "out"], files)
    assert code == 0
    assert "simred.tree" in loaded
    assert numpy_loads_ma or "numpy.ma" not in loaded


def test_fresh_process_exit_codes_for_timbuk_input(files):
    assert _python(["-m", "simred.cli", "ta-up", "bad.tmb"], files)[0] == 2
    code, _ = _python(["-m", "simred.cli", "minimize", "in.tmb", "--init", "in.rel"], files)
    assert code == 4
