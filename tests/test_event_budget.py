"""Kernel events per delivered read, gated as deterministic ceilings.

Event counts are a function of the seed alone, so unlike wall time they
can gate CI on any machine.  Each ceiling sits just above the count
measured when it was recorded; a change that adds kernel work to the
read path must either remove it again or raise the ceiling on purpose.
"""

from __future__ import annotations

from repro.dataset.synthetic import imagenet_like
from repro.experiments.cluster import run_cluster_serving
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_tf_trial
from repro.frameworks.models import LENET
from repro.simcore.random import RandomStreams

SEED = 7


class _KernelProbe:
    """Stands in for a telemetry hub: ``attach`` only keeps the simulator,
    so the run stays uninstrumented and its kernel counters readable."""

    sim = None

    def attach(self, sim, process=None):
        self.sim = sim
        return self

    def detach(self) -> None:
        pass


def test_cluster_events_per_read_ceiling():
    # Recorded at 11.38 events/read (12.32 before deadline cancellation).
    probe = _KernelProbe()
    report = run_cluster_serving(seed=SEED, n_nodes=8, n_files=64, epochs=1, telemetry=probe)
    assert report.completed and report.requests == 8 * 64
    assert probe.sim.events_processed / report.requests <= 11.5


def test_tf_prisma_events_per_read_ceiling():
    # Recorded at 18.41 events/read (20.05 before timer cancellation).
    scale = 1600
    probe = _KernelProbe()
    run_tf_trial(
        "tf-prisma", LENET, 32, ExperimentScale(scale=scale, epochs=1),
        seed=SEED, telemetry=probe,
    )
    split = imagenet_like(RandomStreams(SEED), scale=scale)
    reads = len(split.train) + len(split.validation)
    assert probe.sim.events_processed / reads <= 18.5
