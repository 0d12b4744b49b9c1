"""Fresh-interpreter probes, started by run.py as child processes.

    python3 bench/probe.py setup WORKLOAD SEED WORKDIR
        prints "ready" once simplexfix is imported and the workload's
        inputs are loaded into library objects, then, for an in-process
        workload, "first" once its first configuration is decided;
    python3 bench/probe.py cold WORKLOAD SEED WORKDIR
        prints one JSON object: seconds taken by the first canonical_form
        call for each configuration size the workload uses.

The parent times launch -> each line, so interpreter start-up counts.
"""

import json
import sys
import time
from pathlib import Path

import simplexfix as sf
from workloads import WORKLOADS


def main(mode: str, name: str, seed: str, workdir: str) -> int:
    workload = WORKLOADS[name](int(seed), Path(workdir))
    workload.load()
    if mode == "setup":
        print("ready", flush=True)
        if workload.in_process:
            workload.first()
            print("first", flush=True)
        return 0
    cold = {}
    for n, cfg in workload.cold_configs().items():
        start = time.perf_counter()
        sf.canonical_form(cfg)
        cold[n] = time.perf_counter() - start
    print(json.dumps(cold), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
