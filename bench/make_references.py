"""Pin the current outputs as the benchmark's references.

    python3 bench/make_references.py

Runs every workload part's job list once per reference seed and writes
bench/references/<part>.json.  The recipes part does not depend on the seed
and is pinned once, under "*".  Run it only when an output change
is intended, and say so where the change is described.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import Pass  # noqa: E402
from summary import TOLERANCE  # noqa: E402
from workloads import PARTS  # noqa: E402

REFERENCE_SEEDS = range(4)


def pinned(workload, seed: int) -> dict:
    p = Pass(0, False, time.perf_counter())
    workload.run_pass(workload.inputs(seed), p)
    if p.errors:
        raise SystemExit(f"{workload.name} seed {seed}: {p.errors}")
    views = {label: workload.reference_view(label, out) for label, out in p.outputs.items()}
    return {label: view for label, view in views.items() if view is not None}


def main() -> None:
    for name, workload in PARTS.items():
        seeds = {"*": pinned(workload, 0)} if name == "recipes" else {
            str(seed): pinned(workload, seed) for seed in REFERENCE_SEEDS
        }
        path = BENCH / "references" / f"{name}.json"
        path.write_text(json.dumps({"tolerance": TOLERANCE, "seeds": seeds}, sort_keys=True) + "\n")
        print(f"{path}: {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
