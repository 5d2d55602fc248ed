"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train-tf-prisma, cluster-p2p, ckpt-object, live-epoch (see
perfbench/NOTES.md for why each exists).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it is a report:
every metric that applies to the workload (``error_rate`` and the
simulated-time results too) with its unit, the sample count behind each
timing, and a digest of the run's deterministic simulated result.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: live-plane files and span logs
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
#: a start-up that no change to the program moves: the interpreter
#: importing numpy, which repro imports too
REFERENCE_STARTUP = [sys.executable, "-c", "import numpy"]
#: its host seconds on the development VM (2-vCPU Intel Xeon, 2.1 GHz)
REFERENCE_STARTUP_S = 0.15
WORKLOADS = ("train-tf-prisma", "cluster-p2p", "ckpt-object", "live-epoch")
#: units of report-only metrics (the rest come from BENCHMARK.json)
REPORT_UNITS = {"error_rate": "ratio"}


def use_checkout() -> None:
    """Import the benchmark and ``repro`` from this checkout, nothing else."""
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cmd: List[str]) -> Tuple[float, str]:
    """Run ``cmd`` to completion; returns its ``time.monotonic()`` start and output."""
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} failed:\n{proc.stderr[-4000:]}")
    return start, proc.stdout


def _reference_startup() -> float:
    start, _ = _run(REFERENCE_STARTUP)
    return time.monotonic() - start


def setup_seconds(workload: str, seed: int, data_dir: Optional[str]) -> List[float]:
    """Interpreter start to first sample request, in reference seconds.

    One probe process per value.  Start-up is mostly process creation and
    imports, which the calibration loop does not track, so each probe is
    timed against :data:`REFERENCE_STARTUP` run just before and after it,
    and scaled to that start-up's nominal time.
    """
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
           workload, str(seed)] + ([data_dir] if data_dir else [])
    values = []
    for _ in range(SETUP_PROBES):
        before = _reference_startup()
        start, out = _run(cmd)
        probe = float(out.split()[-1]) - start
        after = _reference_startup()
        values.append(probe / ((before + after) / 2) * REFERENCE_STARTUP_S)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import ledger, live, sim

    if name != "live-epoch":
        workload = sim.WORKLOADS[name]
        setup = [] if trace else setup_seconds(name, seed, None)
        outcome = (sim.trace if trace else sim.measure)(workload, seed, seconds)
    else:
        workload = live.WORKLOAD
        data_dir = os.path.join(WORK, f"live-{seed}-{os.getpid()}")
        try:
            expected = workload.write_dataset(data_dir, seed)
            setup = [] if trace else setup_seconds(name, seed, data_dir)
            if trace:
                spans = os.path.join(WORK, "spans", f"{name}-seed{seed}.jsonl")
                outcome = live.trace(workload, seed, seconds, data_dir, expected, spans)
            else:
                outcome = live.measure(workload, seed, seconds, data_dir, expected)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    if not trace:
        outcome.metrics["setup_s"] = statistics.median(setup)
        outcome.metrics["peak_rss_mib"] = ledger.peak_rss_mib()
        outcome.report["setup_s_n"] = len(setup)
    return outcome


def render(outcome, spec: dict, trace: bool) -> Dict[str, dict]:
    """The contract's metrics: every spec name, no other, each with its unit.

    A per-layer metric of a layer the workload does not reach reads 0.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in wanted} - set(outcome.metrics)
    if not trace and missing:
        raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {
        m["name"]: {"value": float(outcome.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }


def report_metrics(outcome, spec: dict) -> Dict[str, dict]:
    """Every metric this run measured, by name with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_UNITS)
    unknown = set(outcome.metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(outcome.metrics.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    use_checkout()
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "problems": outcome.problems,
        **outcome.report,
        "metrics": report_metrics(outcome, spec),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": render(outcome, spec, trace),
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
