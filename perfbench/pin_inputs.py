"""Regenerate pins.json: generator parameters and input digests per seed.

    PYTHONPATH=src python3 perfbench/pin_inputs.py

Run only when a workload is meant to change; the benchmark refuses to run
when a pinned input's digest no longer matches.
"""

import json
from pathlib import Path

import workloads

SEEDS = range(0, 11)
INDICES = {"lts-loop": 24, "lts-minimize": 8, "ta-up": 24}

if __name__ == "__main__":
    pins = {"params": {}, "digests": {}}
    for name, make in workloads.MAKERS.items():
        pins["params"][name] = workloads.params(name)
        pins["digests"][name] = {
            f"{seed}:{i}": make(seed, i).digest for seed in SEEDS for i in range(INDICES[name])
        }
    path = Path(__file__).resolve().parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
