"""Live PRISMA with global coordination: real threads, real files.

:func:`run_live_demo` builds ``jobs`` prefetcher pools over temporary
on-disk datasets and registers them all with ONE live controller running a
:class:`~repro.multitenant.fairness.FairShareGlobalPolicy` — the same
kernel, policies, and telemetry as the simulated control plane, driving
actual I/O.  Control cycles are stepped deterministically between reads so
the printed allocation is reproducible.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List

from ...multitenant.fairness import FairShareGlobalPolicy
from .controller import LiveController
from .prefetcher import LivePrefetcher


@dataclass
class LiveDemoReport:
    budget: int
    jobs: List[Dict[str, object]]
    control: Dict[str, int]

    def metrics_dict(self) -> dict:
        return {"jobs": self.jobs, "control": self.control}


def run_live_demo(
    jobs: int = 2, files: int = 32, budget: int = 6, telemetry=None
) -> LiveDemoReport:
    """``jobs`` tenants of ``files`` files each, ``budget`` producer threads."""
    policy = FairShareGlobalPolicy(
        total_producer_budget=budget, per_job_cap=max(budget - 1, 1)
    )
    controller = LiveController(global_policy=policy, telemetry=telemetry)
    prefetchers = [
        LivePrefetcher(producers=1, buffer_capacity=8, max_producers=budget,
                       name=f"job{j}.pf")
        for j in range(jobs)
    ]
    for pf in prefetchers:
        controller.register(pf)

    with tempfile.TemporaryDirectory(prefix="prisma-live-") as root:
        datasets = []
        for job, pf in enumerate(prefetchers):
            paths = []
            for i in range(files):
                path = os.path.join(root, f"job{job}_{i:05d}.bin")
                with open(path, "wb") as fh:
                    fh.write(b"\x5a" * 4096)
                paths.append(path)
            datasets.append(paths)
            pf.load_epoch(paths)
        try:
            # Interleave the tenants' reads, running one control cycle per
            # round — the global policy reallocates the thread budget as
            # every tenant's demand becomes visible.
            for i in range(files):
                for pf, paths in zip(prefetchers, datasets):
                    pf.read(paths[i], timeout=30.0)
                if (i + 1) % 4 == 0:
                    controller.run_cycle()
            controller.run_cycle()
        finally:
            for pf in prefetchers:
                pf.close()

    return LiveDemoReport(
        budget=budget,
        jobs=[
            {
                "name": pf.name,
                "files": pf.files_fetched,
                "hit_rate": pf.buffer.hit_rate(),
                "producers": pf.target_producers,
            }
            for pf in prefetchers
        ],
        control={
            "cycles": controller.cycles,
            "enforcements": controller.enforcements,
            "rpc_failures": controller.rpc_failures,
        },
    )


def format_live_demo(report: LiveDemoReport) -> str:
    lines = [
        f"live PRISMA, {len(report.jobs)} tenants under one global controller "
        f"(budget={report.budget} producer threads):"
    ]
    for job in report.jobs:
        lines.append(
            f"  {job['name']}: {job['files']} files prefetched, "
            f"hit rate {job['hit_rate']:.0%}, final producers {job['producers']}"
        )
    ctl = report.control
    lines.append(
        f"  control: {ctl['cycles']} cycles, {ctl['enforcements']} enforcements, "
        f"{ctl['rpc_failures']} rpc failures"
    )
    return "\n".join(lines)
