"""Telemetry overhead: instrumented-but-disabled must cost (almost) nothing.

This PR threads span hooks through every layer of the stack — kernel,
storage, prefetcher, buffer, control plane.  The design contract is that
an *unattached* hub costs one ``sim.telemetry`` attribute load per
instrumented operation and nothing else, so experiment wall time without
``--trace`` must stay within a few percent of the pre-instrumentation
baseline (recorded below when this PR was cut).

Measured workload: one quick-scale Figure-2 ``tf-prisma`` trial (the
``figure2`` trial preset of :mod:`repro.experiments.registry`) — the
heaviest span-emitting path (every file read crosses stage → prefetcher →
buffer → storage, with the control loop running throughout).  Reported:

* ``disabled_median_s`` — telemetry hooks present, no hub attached;
* ``enabled_median_s``  — a hub attached and recording every span;
* ratios against each other and against ``pre_pr_baseline_s``.

Results land in ``BENCH_telemetry.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
Or via pytest: pytest benchmarks/bench_telemetry_overhead.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

from _gate import WALL, Gate

from repro.experiments.registry import WORKLOADS
from repro.telemetry import Telemetry

#: Wall-clock median of the same trial at the commit before the current
#: kernel landed (same container, same interpreter).  Re-anchored when
#: the slot-scheduled simcore kernel went in: the trial is wall-clock
#: sensitive, so the baseline must come from the machine the gate runs
#: on — this figure is the pre-slot-kernel commit measured on the same
#: container that recorded the disabled/enabled medians below.
PRE_PR_BASELINE_S = 1.1463014100008877

#: Acceptance: disabled-telemetry runs within 5% of the pre-PR baseline.
#: Machine-to-machine wall-clock drift swamps a tight bound, so the pytest
#: acceptance compares disabled vs enabled on *this* machine and the JSON
#: records the cross-commit ratio for the curious.
MAX_DISABLED_OVERHEAD = 1.05

ROUNDS = 5


def _trial(telemetry: Telemetry | None) -> float:
    start = time.perf_counter()
    WORKLOADS["figure2"].run_trial(telemetry=telemetry)
    return time.perf_counter() - start


def run_overhead(rounds: int = ROUNDS) -> dict:
    disabled = []
    enabled = []
    events = 0
    for _ in range(rounds):
        disabled.append(_trial(None))
        hub = Telemetry()
        enabled.append(_trial(hub))
        events = len(hub.events) + len(hub.counter_samples)
    disabled_median = statistics.median(disabled)
    enabled_median = statistics.median(enabled)
    return {
        "benchmark": "telemetry_overhead",
        "description": (
            "Wall time of one quick-scale Figure-2 tf-prisma trial: "
            "telemetry hooks compiled in but no hub attached (disabled) vs "
            "a hub recording every span (enabled), against the wall time "
            "of the same trial at the pre-telemetry commit."
        ),
        "workload": "the figure2 trial of repro.experiments.registry",
        "rounds": rounds,
        "pre_pr_baseline_s": PRE_PR_BASELINE_S,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_median_s": disabled_median,
        "enabled_median_s": enabled_median,
        "events_per_enabled_run": events,
        "disabled_vs_pre_pr": disabled_median / PRE_PR_BASELINE_S,
        "enabled_vs_disabled": enabled_median / disabled_median,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }


GATE = Gate(
    "BENCH_telemetry.json", WALL, run_overhead,
    floors=[
        (f"disabled <= {MAX_DISABLED_OVERHEAD:.2f}x pre-PR baseline",
         lambda r: r["disabled_vs_pre_pr"] <= MAX_DISABLED_OVERHEAD),
    ],
    summary=lambda r: [
        f"pre-PR baseline:   {r['pre_pr_baseline_s']:.3f}s",
        f"disabled median:   {r['disabled_median_s']:.3f}s "
        f"({r['disabled_vs_pre_pr']:.3f}x baseline)",
        f"enabled median:    {r['enabled_median_s']:.3f}s "
        f"({r['enabled_vs_disabled']:.3f}x disabled, "
        f"{r['events_per_enabled_run']:,} events/run)",
    ],
)
test_disabled_telemetry_overhead = GATE.pytest_test()

if __name__ == "__main__":
    raise SystemExit(GATE.main())
