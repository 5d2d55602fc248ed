"""The three simulated workloads, driven through repro's public entry points.

Each workload is a closed loop: its trainers wait on every batch (or read)
before asking for the next, inside one simulated trial.  A run repeats
trials with seeds derived from ``--seed`` until the time is up.  Host time
per sample is stamped where a sample read completes at the data-plane
boundary (``PrismaStage.read_whole`` or ``ClusterNode.read``), by wrappers
this module installs on those public methods; every ``CALIBRATE_EVERY``
stamps a calibration slice runs (see :class:`~perfbench.ledger.HostClock`).
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import json
import math
import os
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.cluster import ClusterNode
from repro.core.buffer import PrefetchBuffer
from repro.core.control.controller import Controller
from repro.core.prefetcher import ParallelPrefetcher
from repro.core.stage import PrismaStage
from repro.core.tiering import TieringObject
from repro.experiments.cluster import run_cluster_serving
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_tf_trial
from repro.experiments.writes import run_write_trial
from repro.frameworks.checkpoint import CheckpointWriter
from repro.frameworks.models import LENET
from repro.simcore import Simulator
from repro.storage.device import BlockDevice
from repro.storage.object_store import ObjectStore

from .ledger import LAYERS, HostClock, Outcome, Windows, layer_shares, patched

MiB = 1 << 20
#: EXPERIMENTS.md: TF-PRISMA, LeNet, batch 256, 10 epochs on one ABCI node.
PAPER_SECONDS = 1880.0
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
#: deliveries between calibration slices: about 10 ms of trial work
CALIBRATE_EVERY = 64


def trial_seed(seed: int, index: int) -> int:
    """Seed of trial ``index`` in a run started with ``--seed seed``."""
    return seed * 1000 + index


class Deliveries:
    """Sample reads completed at the data-plane boundary, in host time."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        #: off while a profiler runs, so the slices stay out of its picture
        self.calibrating = True
        self.reset()

    def reset(self) -> None:
        self.times: List[float] = []
        #: host time of the trial's first sample request
        self.first_request: Optional[float] = None
        #: paths handed to the data plane by ``load_epoch`` and epochs loaded
        self.loaded = 0
        self.epochs = 0

    def _stamp(self, event) -> None:
        if event.ok:
            self.times.append(self.clock.now())
            if self.calibrating and len(self.times) % CALIBRATE_EVERY == 0:
                self.clock.calibrate()

    @contextmanager
    def hooked(self) -> Iterator["Deliveries"]:
        def read(original: Callable) -> Callable:
            def wrapper(obj, path):
                if self.first_request is None:
                    self.first_request = self.clock.now()
                event = original(obj, path)
                event.add_callback(self._stamp)
                return event
            return wrapper

        def load(original: Callable) -> Callable:
            def wrapper(stage, paths):
                paths = list(paths)
                self.loaded += len(paths)
                self.epochs += 1
                return original(stage, paths)
            return wrapper

        with ExitStack() as stack:
            stack.enter_context(patched(PrismaStage, "read_whole", read))
            stack.enter_context(patched(PrismaStage, "load_epoch", load))
            stack.enter_context(patched(ClusterNode, "read", read))
            yield self


class Census:
    """Instances the layers build during one trial, and process spawns."""

    CLASSES = (
        Simulator, PrefetchBuffer, ParallelPrefetcher, Controller,
        TieringObject, BlockDevice, ObjectStore,
    )

    def __init__(self) -> None:
        self.instances: Dict[type, list] = defaultdict(list)
        self.spawns = 0

    @contextmanager
    def recording(self) -> Iterator["Census"]:
        def capture(cls: type) -> Callable:
            def wrap(original: Callable) -> Callable:
                def init(obj, *args, **kwargs):
                    original(obj, *args, **kwargs)
                    self.instances[cls].append(obj)
                return init
            return wrap

        def count(original: Callable) -> Callable:
            def process(sim, *args, **kwargs):
                self.spawns += 1
                return original(sim, *args, **kwargs)
            return process

        with ExitStack() as stack:
            for cls in self.CLASSES:
                stack.enter_context(patched(cls, "__init__", capture(cls)))
            stack.enter_context(patched(Simulator, "process", count))
            yield self


@dataclass
class Trial:
    """What one simulated trial delivered and reported."""

    #: samples the trial had to deliver: epochs x catalog
    expected: int
    #: the deterministic report, digested to show a run changed no result
    report: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    #: simulated-time results (sim_samples_per_s, sim_paper_err, ...)
    fidelity: Dict[str, float] = field(default_factory=dict)
    #: per-layer facts the report carries
    facts: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def digest(report: Dict[str, object]) -> str:
    text = json.dumps(report, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- workloads ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainTfPrisma:
    """The paper's Figure-2 cell: TF-PRISMA, LeNet, batch 256, POSIX NVMe."""

    name: str = "train-tf-prisma"
    batch_size: int = 256
    scale: int = 200
    epochs: int = 1
    #: the trial's first-request entry point (for the set-up probe)
    entry: Tuple[type, str] = (PrismaStage, "read_whole")

    def run(self, seed: int, deliveries: Deliveries) -> Trial:
        result = run_tf_trial(
            "tf-prisma", LENET, self.batch_size,
            ExperimentScale(scale=self.scale, epochs=self.epochs), seed=seed,
        )
        stats = result.training.epoch_stats
        per_epoch = deliveries.loaded // max(deliveries.epochs, 1)
        trial = Trial(expected=deliveries.loaded, report=dataclasses.asdict(result))
        trial.check(len(stats) == self.epochs, f"{len(stats)} of {self.epochs} epochs ran")
        trial.check(deliveries.epochs == self.epochs, "data plane saw a wrong epoch count")
        trial.check(per_epoch > 0, "no sample was handed to the data plane")
        trial.check(
            sum(e.train_batches for e in stats)
            == self.epochs * math.ceil(per_epoch / self.batch_size),
            "training batches do not cover the catalog",
        )
        trial.fidelity = {
            "sim_samples_per_s": deliveries.loaded / result.sim_seconds,
            "sim_paper_err": abs(result.paper_equivalent_seconds - PAPER_SECONDS)
            / PAPER_SECONDS,
        }
        trial.facts = {"frameworks.sim_gpu_util": result.training.gpu_utilization}
        return trial


@dataclass(frozen=True)
class ClusterP2P:
    """Cooperative-cache serving: every node reads the whole catalog."""

    name: str = "cluster-p2p"
    n_nodes: int = 64
    n_files: int = 128
    epochs: int = 1
    entry: Tuple[type, str] = (ClusterNode, "read")

    def run(self, seed: int, deliveries: Deliveries) -> Trial:
        report = run_cluster_serving(
            seed=seed, n_nodes=self.n_nodes, n_files=self.n_files, epochs=self.epochs
        )
        expected = self.n_nodes * self.n_files * self.epochs
        trial = Trial(expected=expected, report=report.metrics_dict())
        trial.check(report.completed, "cluster run did not complete")
        trial.check(report.requests == expected, f"{report.requests} of {expected} requests")
        trial.check(
            report.worst_reads_per_path == 1,
            f"worst_reads_per_path is {report.worst_reads_per_path}, not 1",
        )
        trial.fidelity = {"sim_samples_per_s": expected / report.sim_seconds}
        trial.facts = {
            "cluster.peer_hit_rate": report.peer_hit_rate,
            "cluster.backing_reads_per_sample": report.backing_reads / expected,
            "cluster.fallback_reads": report.fallback_reads,
        }
        return trial


@dataclass(frozen=True)
class CkptObject:
    """Training reads plus asynchronous checkpoint writes on the object store."""

    name: str = "ckpt-object"
    n_files: int = 640
    epochs: int = 2
    batch_size: int = 32
    ckpt_every: int = 8
    ckpt_bytes: int = 96_000_000
    entry: Tuple[type, str] = (PrismaStage, "read_whole")

    def run(self, seed: int, deliveries: Deliveries) -> Trial:
        drain_wait = [0.0]

        def timed(original: Callable) -> Callable:
            # Async checkpoints stall the trainer only where it waits for
            # writes still in flight, at the end of each training epoch.
            def drain(writer):
                started = writer.sim.now

                def landed(_event) -> None:
                    drain_wait[0] += writer.sim.now - started

                event = original(writer)
                event.add_callback(landed)
                return event
            return drain

        with patched(CheckpointWriter, "drain", timed):
            result = run_write_trial(
                "object-mixed", "prisma-async", seed=seed, n_files=self.n_files,
                epochs=self.epochs, batch_size=self.batch_size,
                ckpt_every=self.ckpt_every, ckpt_bytes=self.ckpt_bytes,
            )
        expected = self.n_files * self.epochs
        steps = self.epochs * math.ceil(self.n_files / self.batch_size)
        trial = Trial(expected=expected, report=result.metrics_dict())
        trial.check(deliveries.loaded == expected, f"{deliveries.loaded} of {expected} loaded")
        trial.check(
            result.checkpoints == steps // self.ckpt_every,
            f"{result.checkpoints} of {steps // self.ckpt_every} checkpoints written",
        )
        trial.check(
            result.write_bytes == result.checkpoints * self.ckpt_bytes,
            "checkpoint bytes written do not match the checkpoints",
        )
        trial.fidelity = {
            "sim_samples_per_s": expected / result.sim_seconds,
            "sim_burst_read_mib_s": result.burst_read_throughput / MiB,
        }
        trial.facts = {
            "frameworks.sim_gpu_util": result.gpu_utilization,
            "frameworks.ckpt_stall_s": result.ckpt_stall_time + drain_wait[0],
        }
        return trial


WORKLOADS = {w.name: w for w in (TrainTfPrisma(), ClusterP2P(), CkptObject())}


# -- one trial, timed -----------------------------------------------------------------
@dataclass
class Timed:
    """One trial's host times, in host seconds (calibration slices excluded)."""

    trial: Trial
    delivered: int
    #: from the first delivered sample to the trial's return
    wall: float
    #: the whole trial call, set-up included
    total: float
    #: from the trial call to its first sample request
    setup: float
    #: host speed relative to nominal during the trial (1 when uncalibrated);
    #: host seconds times ``speed`` are reference seconds
    speed: float

    @property
    def rate(self) -> float:
        """Delivered samples per reference second."""
        return self.delivered / (self.wall * self.speed)


def run_timed(workload, seed: int, deliveries: Deliveries,
              windows: Optional[Windows] = None) -> Timed:
    """Run one trial; its garbage collection is charged to it.

    ``windows`` receives the reference seconds between consecutive
    deliveries.
    """
    deliveries.reset()
    clock, calibrating = deliveries.clock, deliveries.calibrating
    mark = clock.mark()
    if calibrating:
        clock.calibrate()
    start = clock.now()
    trial = workload.run(seed, deliveries)
    gc.collect()
    end = clock.now()
    if calibrating:
        clock.calibrate()
    speed = clock.speed_since(mark) if calibrating else 1.0
    times = deliveries.times
    delivered = len(times)
    trial.check(delivered == trial.expected, f"{delivered} of {trial.expected} delivered")
    first = deliveries.first_request
    setup = (end if first is None else first) - start
    if not times:
        return Timed(trial, 0, 0.0, end - start, setup, speed)
    if windows is not None:
        windows.add((b - a) * speed for a, b in zip(times, times[1:]))
    return Timed(trial, delivered, end - times[0], end - start, setup, speed)


def _tally(runs: List[Timed]) -> Tuple[int, int, List[str]]:
    attempted = sum(r.trial.expected for r in runs)
    failed = sum(max(r.trial.expected - r.delivered, 0) for r in runs)
    problems = list(dict.fromkeys(p for r in runs for p in r.trial.problems))
    return attempted, failed, problems


def measure(workload, seed: int, seconds: float) -> Outcome:
    """Untraced run: end-to-end host throughput and per-read host latency."""
    deliveries = Deliveries(HostClock())
    windows = Windows()
    with deliveries.hooked():
        reference = run_timed(workload, trial_seed(seed, 0), deliveries)  # also warms up
        runs: List[Timed] = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            seed_i = trial_seed(seed, len(runs) + 1)
            runs.append(run_timed(workload, seed_i, deliveries, windows))
    attempted, failed, problems = _tally([reference] + runs)
    read = windows.result(1e6)
    rates = [r.rate for r in runs if r.wall > 0]
    return Outcome(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={
            "samples_per_s": statistics.median(rates),
            "read_p50_us": read["p50"],
            "read_p99_us": read["p99"],
            "error_rate": failed / attempted,
            **reference.trial.fidelity,
        },
        report={
            "digest": digest(reference.trial.report),
            "trials": len(runs),
            "samples_per_s_n": len(rates),
            "read_us_n": read["n"],
            "read_us_windows": read["windows"],
            "host_speed": statistics.median(r.speed for r in runs),
        },
        problems=problems,
    )


def _census_facts(census: Census, samples: int) -> Dict[str, float]:
    """Exact per-layer counts of one instrumented trial."""
    events = sum(s.events_processed for s in census.instances[Simulator])
    buffers = census.instances[PrefetchBuffer]
    hits = sum(b.counters.get("hits") for b in buffers)
    waits = sum(b.counters.get("waits") for b in buffers)
    tiers = census.instances[TieringObject]
    fast = sum(t.counters.get("fast_hits") for t in tiers)
    slow = sum(t.counters.get("slow_reads") for t in tiers)
    devices = census.instances[BlockDevice]
    stores = census.instances[ObjectStore]
    controllers = census.instances[Controller]
    prefetchers = census.instances[ParallelPrefetcher]
    return {
        "simcore.events_per_sample": events / samples,
        "simcore.spawns_per_sample": census.spawns / samples,
        "storage.device_reads_per_sample": (
            sum(d.counters.get("reads") for d in devices)
            + sum(s.counters.get("gets") for s in stores)
        ) / samples,
        "storage.write_mib": (
            sum(d.counters.get("write_bytes") for d in devices)
            + sum(s.counters.get("write_bytes") for s in stores)
        ) / MiB,
        "core.buffer.hit_rate": hits / (hits + waits) if hits + waits else 0.0,
        "core.buffer.waits_per_sample": waits / samples,
        "core.tiering.fast_hit_rate": fast / (fast + slow) if fast + slow else 0.0,
        "core.control.cycles": sum(c.cycles for c in controllers),
        "core.control.enforcements": sum(c.enforcements for c in controllers),
        "core.control.rpc_failures": sum(c.rpc_failures for c in controllers),
        "core.control.peak_producers": max(
            (int(p.allocated_producers.max_seen()) for p in prefetchers), default=0
        ),
    }


def setup_profile(workload, seed: int, deliveries: Deliveries,
                  profile: cProfile.Profile) -> Timed:
    """Run one trial with ``profile`` on until its first sample request."""

    def stop(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            profile.disable()
            return original(*args, **kwargs)
        return wrapper

    cls, name = workload.entry
    deliveries.calibrating = False
    try:
        with patched(cls, name, stop):
            profile.enable()
            try:
                return run_timed(workload, seed, deliveries)
            finally:
                profile.disable()
    finally:
        deliveries.calibrating = True


def trace(workload, seed: int, seconds: float) -> Outcome:
    """Traced run: exact counts, profiled self time by layer, trace overhead.

    Trials alternate: a plain one, then the same seed instrumented (census
    wrappers and cProfile).  Counts come from the first instrumented trial,
    so they are a function of ``--seed`` alone.  One more trial is profiled
    only up to its first sample request, for the layers' set-up time.
    """
    deliveries = Deliveries(HostClock())
    profile = cProfile.Profile()
    setup = cProfile.Profile()
    plain: List[Timed] = []
    traced: List[Timed] = []
    with deliveries.hooked():
        run_timed(workload, trial_seed(seed, 0), deliveries)  # warm-up
        traced_setup = setup_profile(workload, trial_seed(seed, 0), deliveries, setup)
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            index = len(traced)
            plain.append(run_timed(workload, trial_seed(seed, index), deliveries))
            census = Census()
            deliveries.calibrating = False
            with census.recording():
                profile.enable()
                try:
                    traced.append(run_timed(workload, trial_seed(seed, index), deliveries))
                finally:
                    profile.disable()
                    deliveries.calibrating = True
            if index == 0:
                first, first_census = traced[0], census
    attempted, failed, problems = _tally(plain + traced + [traced_setup])
    shares = layer_shares(pstats.Stats(profile), REPRO_DIR)
    setup_shares = layer_shares(pstats.Stats(setup), REPRO_DIR)
    facts = _census_facts(first_census, first.delivered)
    # Profiled shares of the untraced reference time: estimates, not counts.
    total = statistics.median(r.total * r.speed for r in plain)
    metrics: Dict[str, float] = {f"{layer}.self_share": shares[layer] for layer in LAYERS}
    metrics.update(facts)
    metrics.update(first.trial.facts)
    metrics.update(first.trial.fidelity)
    metrics["error_rate"] = failed / attempted
    events = facts["simcore.events_per_sample"] * first.delivered
    metrics["simcore.ns_per_event"] = total * shares["simcore"] / events * 1e9
    setup_s = statistics.median(r.setup * r.speed for r in plain)
    metrics["dataset.setup_s"] = setup_s * setup_shares["dataset"]
    metrics["trace_overhead"] = statistics.median(
        t.total / p.total for p, t in zip(plain, traced)
    )
    return Outcome(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report={
            "digest": digest(first.trial.report),
            "trials": len(traced),
        },
        problems=problems,
    )


def probe(workload, seed: int, first_request: Callable[[], None]) -> None:
    """Set-up probe body: build and run a trial up to its first sample request."""

    def stop(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            first_request()
            raise RuntimeError("first_request returned")
        return wrapper

    cls, name = workload.entry
    with patched(cls, name, stop):
        workload.run(trial_seed(seed, 0), Deliveries(HostClock()))
    raise RuntimeError(f"{workload.name} finished without requesting a sample")
