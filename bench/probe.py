"""Set-up probe: one fresh interpreter that gets a workload ready.

    python3 bench/probe.py WORKLOAD SEED

Imports consensuslab from the checkout, builds the workload's seeded
inputs in a scratch directory under the checkout, prints one JSON line
{"import_s", "inputs_s"} as soon as the workload is ready, then removes
the directory. run.py times each probe from its spawn to that line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import env


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    env.require_source()
    import_s = env.import_consensuslab()
    import workloads

    os.makedirs(env.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=env.WORK_DIR)
    try:
        t0 = time.perf_counter()
        workloads.build(workload, seed, workdir)
        inputs_s = time.perf_counter() - t0
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
