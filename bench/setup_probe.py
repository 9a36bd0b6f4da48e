"""Set-up probe: what a fresh interpreter pays before a workload can start.

    python3 bench/setup_probe.py <workload> <seed>

Imports gordonlab and gordonlab.cli, builds the workload's inputs, and prints
{"import_s": ..., "inputs_s": ...} measured from inside the interpreter.
run.py times the whole process from outside as the benchmark's setup_s.
"""

import json
import sys
import time

t0 = time.perf_counter()
import gordonlab  # noqa: E402
import gordonlab.cli  # noqa: E402,F401

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "gordonlab": gordonlab.__file__}))
