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
from repro.experiments.writes import run_write_trial
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
    # Recorded at 9.05 events/read (11.38 before relay-free completions,
    # 12.32 before deadline cancellation).
    probe = _KernelProbe()
    report = run_cluster_serving(seed=SEED, n_nodes=8, n_files=64, epochs=1, telemetry=probe)
    assert report.completed and report.requests == 8 * 64
    assert probe.sim.events_processed / report.requests <= 9.1


def test_tf_prisma_events_per_read_ceiling():
    # Recorded at 13.48 events/read (18.41 before relay-free completions,
    # 20.05 before timer cancellation).
    scale = 1600
    probe = _KernelProbe()
    run_tf_trial(
        "tf-prisma", LENET, 32, ExperimentScale(scale=scale, epochs=1),
        seed=SEED, telemetry=probe,
    )
    split = imagenet_like(RandomStreams(SEED), scale=scale)
    reads = len(split.train) + len(split.validation)
    assert probe.sim.events_processed / reads <= 13.6


def test_object_store_checkpoint_events_per_read_ceiling():
    # Object-store reads with async checkpoint PUTs beside them.  Recorded
    # at 16.56 events/read (20.57 before relay-free completions).
    n_files, epochs = 640, 2
    probe = _KernelProbe()
    result = run_write_trial(
        "object-mixed", "prisma-async", seed=SEED, n_files=n_files, epochs=epochs,
        telemetry=probe,
    )
    assert result.checkpoints == 5
    assert probe.sim.events_processed / (n_files * epochs) <= 16.6
