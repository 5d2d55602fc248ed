"""Set-up probe: interpreter start to a workload's first sample request.

    python3 perfbench/setup_probe.py WORKLOAD SEED [DATA_DIR]

``perfbench/run.py`` starts this several times per run.  It imports repro,
builds the workload's stack through the same entry point the run uses, and
at the first sample request prints ``time.monotonic()`` and exits; the
parent subtracts the time it started the process.  ``DATA_DIR`` holds the
live-epoch files, which the parent wrote beforehand.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_request():
    print(time.monotonic(), flush=True)
    os._exit(0)


def main(argv):
    sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]
    name, seed = argv[0], int(argv[1])
    if name == "live-epoch":
        from perfbench import live

        live.probe(live.WORKLOAD, seed, argv[2], first_request)
    else:
        from perfbench import sim

        sim.probe(sim.WORKLOADS[name], seed, first_request)


if __name__ == "__main__":
    main(sys.argv[1:])
