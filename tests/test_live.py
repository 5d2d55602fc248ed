"""Tests for the live (real-threads, real-files) PRISMA implementation."""

import os
import threading
import time

import pytest

from repro.core.live import (
    BufferClosed,
    LiveBuffer,
    LiveController,
    LivePrefetcher,
    LivePrisma,
    static_live_prisma,
)
from repro.core import StaticPolicy
from repro.telemetry import MetricsSnapshot


@pytest.fixture()
def dataset(tmp_path):
    paths = []
    for i in range(60):
        p = tmp_path / f"sample{i:04d}.bin"
        p.write_bytes(bytes([i % 256]) * (1024 + i))
        paths.append(str(p))
    return paths


# ---------------------------------------------------------------- LiveBuffer
def test_live_buffer_insert_take_roundtrip():
    buf = LiveBuffer(capacity=4)
    buf.insert("/a", b"data")
    assert buf.contains("/a")
    assert buf.take("/a") == b"data"
    assert not buf.contains("/a")
    assert buf.hits == 1


def test_live_buffer_take_blocks_until_insert():
    buf = LiveBuffer(capacity=4)
    result = {}

    def consumer():
        result["data"] = buf.take("/x", timeout=5.0)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    buf.insert("/x", b"late")
    t.join(timeout=5.0)
    assert result["data"] == b"late"
    assert buf.waits == 1


def test_live_buffer_capacity_blocks_insert():
    buf = LiveBuffer(capacity=1)
    buf.insert("/a", b"1")
    blocked = threading.Event()
    done = threading.Event()

    def producer():
        blocked.set()
        buf.insert("/b", b"2", timeout=5.0)
        done.set()

    t = threading.Thread(target=producer)
    t.start()
    blocked.wait(1.0)
    time.sleep(0.05)
    assert not done.is_set()
    buf.take("/a")
    t.join(timeout=5.0)
    assert done.is_set()


def test_live_buffer_demanded_path_bypasses_capacity():
    """The anti-starvation rule: a demanded insert is admitted when full."""
    buf = LiveBuffer(capacity=1)
    buf.insert("/filler", b"f")
    result = {}

    def consumer():
        result["data"] = buf.take("/wanted", timeout=5.0)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    # Buffer is full, but "/wanted" has a blocked consumer: admit it.
    buf.insert("/wanted", b"w", timeout=1.0)
    t.join(timeout=5.0)
    assert result["data"] == b"w"


def test_live_buffer_take_timeout():
    buf = LiveBuffer(capacity=2)
    with pytest.raises(TimeoutError):
        buf.take("/never", timeout=0.05)


def test_live_buffer_close_releases_waiters():
    buf = LiveBuffer(capacity=2)
    errors = []

    def consumer():
        try:
            buf.take("/never", timeout=5.0)
        except BufferClosed as exc:
            errors.append(exc)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    buf.close()
    t.join(timeout=5.0)
    assert len(errors) == 1
    with pytest.raises(BufferClosed):
        buf.insert("/a", b"x")


def test_live_buffer_set_capacity_wakes_producers():
    buf = LiveBuffer(capacity=1)
    buf.insert("/a", b"1")
    done = threading.Event()

    def producer():
        buf.insert("/b", b"2", timeout=5.0)
        done.set()

    t = threading.Thread(target=producer)
    t.start()
    time.sleep(0.05)
    buf.set_capacity(2)
    t.join(timeout=5.0)
    assert done.is_set()


def test_live_buffer_invalid_capacity():
    with pytest.raises(ValueError):
        LiveBuffer(capacity=0)
    buf = LiveBuffer(capacity=1)
    with pytest.raises(ValueError):
        buf.set_capacity(0)


# ---------------------------------------------------------------- LivePrefetcher
def test_live_prefetcher_ordered_epoch(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=8) as pf:
        pf.load_epoch(dataset)
        for i, path in enumerate(dataset):
            data = pf.read(path, timeout=10.0)
            assert data[:1] == bytes([i % 256])
        assert pf.files_fetched == len(dataset)


def test_live_prefetcher_uncovered_path_direct_read(dataset, tmp_path):
    extra = tmp_path / "val.bin"
    extra.write_bytes(b"validation")
    with LivePrefetcher(producers=1, buffer_capacity=4) as pf:
        pf.load_epoch(dataset[:4])
        assert pf.read(str(extra)) == b"validation"


def test_live_prefetcher_set_producers(dataset):
    with LivePrefetcher(producers=1, buffer_capacity=32, max_producers=4) as pf:
        pf.load_epoch(dataset)
        pf.set_producers(4)
        for path in dataset:
            pf.read(path, timeout=10.0)
        assert pf.live_producers <= 4
    # close() already joined the threads


def test_live_prefetcher_read_error_propagates(tmp_path):
    missing = str(tmp_path / "ghost.bin")
    with LivePrefetcher(producers=1, buffer_capacity=4) as pf:
        pf.load_epoch([missing])
        with pytest.raises(OSError):
            pf.read(missing, timeout=5.0)
        assert pf.read_errors == 1


def test_live_prefetcher_epoch_overlap_rejected(dataset):
    with LivePrefetcher(producers=1, buffer_capacity=2) as pf:
        pf.load_epoch(dataset)
        with pytest.raises(ValueError):
            pf.load_epoch(dataset)


def test_live_prefetcher_multiple_epochs(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=16) as pf:
        for epoch in range(3):
            order = list(reversed(dataset)) if epoch % 2 else list(dataset)
            pf.load_epoch(order)
            for path in order:
                pf.read(path, timeout=10.0)
        assert pf.files_fetched == 3 * len(dataset)


def test_live_prefetcher_invalid_args():
    with pytest.raises(ValueError):
        LivePrefetcher(producers=0)
    with pytest.raises(ValueError):
        LivePrefetcher(producers=4, max_producers=2)
    with pytest.raises(ValueError):
        LivePrefetcher(read_chunk=0)


def test_live_prefetcher_snapshot(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=8) as pf:
        pf.load_epoch(dataset)
        pf.read(dataset[0], timeout=10.0)
        snap = pf.snapshot()
        assert snap.requests >= 1
        assert snap.buffer_capacity == 8


# ---------------------------------------------------------------- LiveController
def test_live_controller_applies_static_policy(dataset):
    pf = LivePrefetcher(producers=1, buffer_capacity=4, max_producers=8)
    ctl = LiveController(pf, policy=StaticPolicy(3, 16), period=0.01)
    try:
        ctl.start()
        pf.load_epoch(dataset)
        for path in dataset:
            pf.read(path, timeout=10.0)
        deadline = time.time() + 2.0
        while ctl.enforcements == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert ctl.enforcements >= 1
        assert pf.buffer.capacity == 16
    finally:
        ctl.stop()
        pf.close()


def test_live_controller_lifecycle():
    pf = LivePrefetcher(producers=1, buffer_capacity=4)
    ctl = LiveController(pf, period=0.01)
    ctl.start()
    with pytest.raises(RuntimeError):
        ctl.start()
    ctl.stop()
    pf.close()
    with pytest.raises(ValueError):
        LiveController(pf, period=0.0)


def _starving(pf):
    """Replace ``pf.snapshot`` with a deterministic, always-starving series
    whose fetch rate scales with the producer count, so the auto-tuner keeps
    asking for one more producer."""
    state = {"t": 0.0, "requests": 0.0, "bytes": 0.0}

    def snapshot():
        t = pf.target_producers
        state["t"] += 0.1
        state["requests"] += 100.0
        state["bytes"] += 1e6 * t
        return MetricsSnapshot(
            time=state["t"], requests=state["requests"], waits=state["requests"],
            buffer_capacity=pf.buffer.capacity, producers_allocated=t,
            producers_active=t, bytes_fetched=state["bytes"], queue_remaining=1000,
        )

    pf.snapshot = snapshot


def test_live_controller_default_tuner_respects_the_prefetcher_cap():
    pf = LivePrefetcher(producers=1, buffer_capacity=4, max_producers=2)
    ctl = LiveController(pf, period=0.01)
    try:
        _starving(pf)
        for _ in range(40):
            ctl.run_cycle()  # used to raise "producers must be in [1, 2]"
        assert ctl.enforcements >= 1
        assert pf.target_producers == 2
        assert ctl.rpc_failures == 0
    finally:
        pf.close()


def test_live_prisma_default_tuner_respects_the_prefetcher_cap():
    prisma = LivePrisma(producers=1, buffer_capacity=4, max_producers=2)
    try:
        _starving(prisma.prefetcher)
        for _ in range(40):
            prisma.controller.run_cycle()
        assert prisma.prefetcher.target_producers == 2
    finally:
        prisma.close()


# ---------------------------------------------------------------- LivePrisma session
def test_live_prisma_iter_epoch(dataset):
    with LivePrisma(producers=2, buffer_capacity=16, control_period=0.02) as prisma:
        seen = []
        for path, data in prisma.iter_epoch(dataset):
            seen.append(path)
            assert len(data) >= 1024
        assert seen == dataset
        stats = prisma.stats()
        assert stats["bytes_fetched"] > 0


def test_live_prisma_hit_rate_improves_with_prefetch(dataset):
    with LivePrisma(producers=4, buffer_capacity=32, autotune=False) as prisma:
        list(prisma.iter_epoch(dataset))
        assert prisma.hit_rate > 0.2  # most samples arrive before the consumer


def test_live_prisma_repeated_epochs_with_reshuffle(dataset):
    import random

    rng = random.Random(0)
    with LivePrisma(producers=2, buffer_capacity=16, control_period=0.02) as prisma:
        for epoch in range(3):
            order = list(dataset)
            rng.shuffle(order)
            consumed = [p for p, _ in prisma.iter_epoch(order)]
            assert consumed == order


def test_static_live_prisma_configuration(dataset):
    with static_live_prisma(producers=2, buffer_capacity=8) as prisma:
        list(prisma.iter_epoch(dataset))
        assert prisma.producers == 2
