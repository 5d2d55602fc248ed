"""Figure 4 — PyTorch worker sweep vs PRISMA (LeNet/AlexNet, batch 256).

The paper evaluates baseline PyTorch with 0/2/4/8/16 DataLoader workers
against PRISMA (parallel I/O + prefetching + auto-tuning via the UDS
client/server integration).  Expected shape: PRISMA wins at 0-4 workers
(often by thousands of seconds), loses modestly at 8-16, and — crucially —
delivers near-constant time at *every* worker count, freeing users from the
manual worker-count search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..frameworks.models import ALEXNET, LENET, ModelProfile
from ..metrics.summary import RunStats, run_stats
from .config import ExperimentScale, HardwareProfile, figure4_scale
from .paper import FIG4_PRISMA_ADVANTAGE_SECONDS
from .runner import TrialResult, run_torch_trial

DEFAULT_MODELS: Tuple[ModelProfile, ...] = (LENET, ALEXNET)
DEFAULT_WORKER_COUNTS: Tuple[int, ...] = (0, 2, 4, 8, 16)


@dataclass
class Figure4Cell:
    model: str
    setup: str  # "torch-native" | "torch-prisma"
    num_workers: int
    stats: RunStats
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.stats.mean


@dataclass
class Figure4Result:
    cells: List[Figure4Cell] = field(default_factory=list)

    def cell(self, model: str, setup: str, num_workers: int) -> Figure4Cell:
        for c in self.cells:
            if (c.model, c.setup, c.num_workers) == (model, setup, num_workers):
                return c
        raise KeyError((model, setup, num_workers))

    def advantage(self, model: str, num_workers: int) -> float:
        """Seconds PRISMA saves vs native at this worker count (+ = faster)."""
        native = self.cell(model, "torch-native", num_workers).seconds
        prisma = self.cell(model, "torch-prisma", num_workers).seconds
        return native - prisma

    def prisma_spread(self, model: str) -> float:
        """Max/min ratio of PRISMA's times across worker counts (~1.0)."""
        times = [
            c.seconds for c in self.cells if c.model == model and c.setup == "torch-prisma"
        ]
        return max(times) / min(times) if times else 1.0

    def worker_counts(self) -> List[int]:
        return sorted({c.num_workers for c in self.cells})


def run_figure4(
    scale: Optional[ExperimentScale] = None,
    models: Sequence[ModelProfile] = DEFAULT_MODELS,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    batch_size: int = 256,
    setups: Sequence[str] = ("torch-native", "torch-prisma"),
    hardware: Optional[HardwareProfile] = None,
    progress=None,
    base_seed: int = 0,
    telemetry=None,
) -> Figure4Result:
    scale = scale or figure4_scale()
    result = Figure4Result()
    for model in models:
        for workers in worker_counts:
            for setup in setups:
                trials: List[TrialResult] = []
                for run in range(scale.runs):
                    trial = run_torch_trial(
                        setup, model, batch_size, workers, scale,
                        hardware=hardware, seed=base_seed + run,
                        telemetry=telemetry,
                    )
                    trials.append(trial)
                    if progress is not None:
                        progress(trial)
                result.cells.append(
                    Figure4Cell(
                        model=model.name,
                        setup=setup,
                        num_workers=workers,
                        stats=run_stats([t.paper_equivalent_seconds for t in trials]),
                        trials=trials,
                    )
                )
    return result


def paper_advantage(model: str, num_workers: int) -> Optional[float]:
    return FIG4_PRISMA_ADVANTAGE_SECONDS.get(model, {}).get(num_workers)
