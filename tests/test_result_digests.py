"""Pinned digests of simulated results.

Each case runs one small deterministic simulation and hashes its report.
The digests were recorded from the generator-process data path; any change
to the request plumbing (storage, tiering, RPC, cluster, kernel run loop)
must reproduce them exactly, with and without a telemetry hub attached.
A digest that moves means a simulated result moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import SharedDatasetPrefetcher, TuningSettings
from repro.core.control.rpc import ControlChannel
from repro.dataset import tiny_dataset
from repro.experiments.cluster import run_cluster_serving
from repro.experiments.runner import ExperimentScale, run_tf_trial
from repro.experiments.writes import run_write_trial
from repro.faults import (
    LATENCY_SPIKE,
    READ_ERROR_BURST,
    RPC_DELAY,
    RPC_DROP,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.frameworks.models import LENET
from repro.simcore import Simulator
from repro.simcore.random import RandomStreams
from repro.storage import BlockDevice, Filesystem, PosixLayer, intel_p4600, sata_hdd
from repro.storage.cache import PageCache
from repro.telemetry import Telemetry


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# Drops and delays on every peer channel: the delay outlasts the RPC
# timeout (RpcTimeout + retry) and the drop window outlasts the retry
# budget (RpcRetriesExhausted -> backing-store fallback).
_PEER_FAULTS = FaultPlan(
    [
        FaultEvent(RPC_DROP, time=0.0, duration=4e-3),
        FaultEvent(RPC_DELAY, time=5e-3, duration=6e-3, severity=3e-3),
        FaultEvent(RPC_DROP, time=14e-3, duration=2e-3),
    ]
)


def _cluster(telemetry=None) -> dict:
    return run_cluster_serving(
        seed=5, n_nodes=8, n_files=96, epochs=2, telemetry=telemetry
    ).metrics_dict()


def _cluster_faulted(telemetry=None) -> dict:
    return run_cluster_serving(
        seed=5, n_nodes=8, n_files=96, epochs=2, rpc_timeout=2e-3,
        fault_plan=_PEER_FAULTS, telemetry=telemetry,
    ).metrics_dict()


def _tf_trial(telemetry=None) -> dict:
    result = run_tf_trial(
        "tf-prisma", LENET, 64, ExperimentScale(scale=700, epochs=1),
        seed=3, telemetry=telemetry,
    )
    return dataclasses.asdict(result)


def _write_trial(telemetry=None) -> dict:
    return run_write_trial(
        "object-mixed", "prisma-async", seed=2, n_files=96, epochs=2,
        ckpt_every=2, ckpt_bytes=4_000_000, telemetry=telemetry,
    ).metrics_dict()


def _hdd_reads(telemetry=None) -> dict:
    """Concurrent readers on one spinning disk: seek slots contend, the
    page cache absorbs re-reads, and a fault window delays and fails some."""
    sim = Simulator()
    if telemetry is not None:
        telemetry.attach(sim, process="hdd")
    fs = Filesystem(
        sim, BlockDevice(sim, sata_hdd()), cache=PageCache(sim, 2_000_000)
    )
    paths = [f"/d/{i:03d}" for i in range(24)]
    for i, path in enumerate(paths):
        fs.create(path, 40_000 + 7_919 * i)
    fs.create("/d/empty", 0)
    injector = FaultInjector(sim, streams=RandomStreams(11))
    injector.attach_filesystem(fs)
    injector.install(
        FaultPlan(
            [
                FaultEvent(LATENCY_SPIKE, time=0.05, duration=0.05, severity=2e-3),
                FaultEvent(READ_ERROR_BURST, time=0.08, duration=0.06, severity=0.5),
            ]
        )
    )
    log = []

    def reader(rid):
        for k in range(12):
            path = paths[(rid * 5 + k * 3) % len(paths)] if k != 6 else "/d/empty"
            try:
                nbytes = yield fs.read_whole(path)
                log.append((rid, k, path, nbytes, sim.now))
            except Exception as exc:  # noqa: BLE001 - outcome is the record
                while exc.__cause__ is not None:
                    exc = exc.__cause__  # the storage error, not any wrapper
                log.append((rid, k, path, type(exc).__name__, sim.now))

    for rid in range(4):
        sim.process(reader(rid))
    sim.run()
    if telemetry is not None:
        telemetry.detach()
    return {
        "log": log,
        "device": fs.device.counters.as_dict(),
        "bytes_read": fs.bytes_read(),
        "cache_hit_rate": fs.cache.hit_rate(),
        "faults": injector.counters.as_dict(),
        "now": sim.now,
    }


def _shared_dataset(telemetry=None) -> dict:
    """Three jobs on one read-once/serve-K prefetcher: a small buffer that
    fills, consumers at slightly different paces, and a mid-epoch retune
    that grows the buffer, then shrinks it below its level and drops a
    producer."""
    sim = Simulator()
    if telemetry is not None:
        telemetry.attach(sim, process="shared")
    dev = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, dev)
    split = tiny_dataset(RandomStreams(4), n_train=96, n_val=4)
    split.materialize(fs)
    pf = SharedDatasetPrefetcher(
        sim, PosixLayer(sim, fs), consumers=3, producers=3, buffer_capacity=6
    )
    paths = split.train.filenames()
    log, snapshots = [], []

    def consumer(cid, think):
        for k, path in enumerate(paths):
            yield sim.timeout(think)
            nbytes = yield pf.serve(path)
            log.append((cid, k, nbytes, sim.now))

    def retune():
        yield sim.timeout(2e-3)
        pf.buffer.set_capacity(12)
        snapshots.append(dataclasses.asdict(pf.snapshot()))
        yield sim.timeout(3e-3)
        pf.apply_settings(TuningSettings(producers=2, buffer_capacity=8))
        snapshots.append(dataclasses.asdict(pf.snapshot()))

    pf.on_epoch(paths)
    sim.process(retune())
    paces = (9.5e-5, 1e-4, 1.05e-4)
    sim.run(until=sim.all_of([sim.process(consumer(c, t)) for c, t in enumerate(paces)]))
    snapshots.append(dataclasses.asdict(pf.snapshot()))
    if telemetry is not None:
        telemetry.detach()
    return {
        "log": log,
        "device": dev.counters.as_dict(),
        "buffer": pf.buffer.counters.as_dict(),
        "occupancy": pf.buffer.occupancy.mean(),
        "snapshots": snapshots,
        "now": sim.now,
    }


CASES = {
    "cluster": (
        _cluster,
        "3c693c1892cee1beb1a90a55feff1ea39092f88a691d24c5fbd9f8d7fc31189e",
    ),
    "cluster-faulted": (
        _cluster_faulted,
        "c6233fdf91236555151f6c03bf65456bdcee818892d23b3766cdb6fc76b5b88b",
    ),
    "tf-trial": (
        _tf_trial,
        "aea2bcf5c4654c8b62cf5f547c774f659392182c71b050ab8efa944a7cffe837",
    ),
    "write-trial": (
        _write_trial,
        "df1ba5ebaa03c50c890e88975950f23db91ddcb81edc4754c0fbf7ce0542a11d",
    ),
    "hdd-reads": (
        _hdd_reads,
        "54f5f8d7a5b59f45aee961dcd56478bb9d8f0d972534fea2892b22734a47dff7",
    ),
    "shared-dataset": (
        _shared_dataset,
        "5a860d9f5f4f509820957f8b5f47c37a3f04b43fd5a73882aae5e9c4af2c91e8",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_result_digest_is_pinned(case):
    run, expected = CASES[case]
    assert _sha(run()) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_telemetry_does_not_change_simulated_results(case):
    run, expected = CASES[case]
    assert _sha(run(telemetry=Telemetry())) == expected


def test_faulted_cluster_case_exercises_every_rpc_failure_path(monkeypatch):
    channels = []
    original = ControlChannel.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        channels.append(self)

    monkeypatch.setattr(ControlChannel, "__init__", record)
    report = _cluster_faulted()
    assert report["completed"]
    assert report["fallback_reads"] > 0, "retries never ran out"

    def total(key):
        return sum(ch.counters.get(key) for ch in channels)

    assert total("drops") > 0
    assert total("timeouts") > 0
    assert total("retries") > 0
