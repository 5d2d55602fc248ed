"""Exact kernel-event counts for single requests on the storage stack.

A layer whose completion only forwards a result settles its caller's sink
inside the kernel event that produced the result, so a request costs one
kernel event per phase that takes simulated time, plus the caller-facing
completion.  These tests pin those counts on idle backends, and the fluid
channel's rule that finished transfers' sinks run after its timer is
re-armed.
"""

from __future__ import annotations

import pytest

from repro.core.buffer import PrefetchBuffer
from repro.simcore import Continuation, Simulator
from repro.storage import (
    BlockDevice,
    DistributedFilesystem,
    FairShareChannel,
    Filesystem,
    ObjectStore,
    PosixLayer,
    constant_capacity,
    intel_p4600,
)

SIZE = 112 * 1024


def _pending(sim: Simulator) -> int:
    """Events scheduled but not yet fired."""
    return len(sim._now_queue) + sum(len(slot) for slot in sim._slots.values())


def _filesystem(sim: Simulator) -> Filesystem:
    return Filesystem(sim, BlockDevice(sim, intel_p4600()))


def _posix(sim: Simulator) -> PosixLayer:
    return PosixLayer(sim, _filesystem(sim))


def _backend_of(source):
    return source.fs if isinstance(source, PosixLayer) else source


def _events_for_one(make, op):
    sim = Simulator()
    source = make(sim)
    _backend_of(source).create("f", SIZE)
    event = op(source)
    sim.run()
    assert event.ok and event.value == SIZE
    return sim.events_processed


# Latency timeout, channel timer, request completion.
@pytest.mark.parametrize(
    "make", [_filesystem, _posix, ObjectStore], ids=["filesystem", "posix", "object"]
)
def test_idle_read_whole_costs_three_events(make):
    assert _events_for_one(make, lambda src: src.read_whole("f")) == 3


@pytest.mark.parametrize("make", [_filesystem, ObjectStore], ids=["filesystem", "object"])
def test_idle_write_costs_three_events(make):
    assert _events_for_one(make, lambda src: src.write("f", SIZE)) == 3


def test_idle_pfs_read_costs_one_event_per_phase():
    # RPC latency, OST seek latency, OST channel timer, network timer,
    # request completion.
    assert _events_for_one(DistributedFilesystem, lambda src: src.read_whole("f")) == 5


def test_posix_read_closes_descriptor_before_caller_resumes():
    sim = Simulator()
    posix = _posix(sim)
    posix.fs.create("f", SIZE)
    seen = []

    def reader():
        nbytes = yield posix.read_whole("f")
        seen.append((nbytes, posix.open_count))

    sim.process(reader())
    sim.run()
    assert seen == [(SIZE, 0)]


def test_posix_sequential_read_advances_offset_before_caller_resumes():
    sim = Simulator()
    posix = _posix(sim)
    posix.fs.create("f", SIZE)
    fd = posix.open("f")
    offsets = []

    def reader():
        for _ in range(3):
            nbytes = yield posix.read(fd, SIZE // 2)
            offsets.append((nbytes, posix._entry(fd).offset))

    sim.process(reader())
    sim.run()
    assert offsets == [(SIZE // 2, SIZE // 2), (SIZE // 2, SIZE), (0, SIZE)]


def test_buffer_hit_costs_one_event_per_side():
    sim = Simulator()
    buf = PrefetchBuffer(sim, capacity=4)
    put = buf.insert("/a", 100)
    hit, get = buf.request("/a")
    sim.run()
    assert hit and put.ok and get.value == 100
    assert sim.events_processed == 2
    assert buf.occupancy.value == 0


def test_reentrant_sink_gets_analytic_finish_and_one_armed_timer():
    # A (500 B) and B (1000 B) share 100 B/s; A finishes at t=10 with B
    # 500 B short.  A's sink starts C (300 B) on the same channel: B and C
    # share again, C lands at t=16 and B, alone at full rate, at t=18.
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    finished = {}
    armed_after_reentry = []

    def landed(tag):
        return Continuation(lambda _d: finished.__setitem__(tag, sim.now), pytest.fail)

    def a_done(duration):
        finished["a"] = sim.now
        assert duration == pytest.approx(10.0)
        ch.submit(300.0, landed("c"))
        armed_after_reentry.append(_pending(sim))

    ch.submit(500.0, Continuation(a_done, pytest.fail))
    ch.submit(1000.0, landed("b"))
    sim.run()
    assert finished == pytest.approx({"a": 10.0, "c": 16.0, "b": 18.0})
    assert armed_after_reentry == [1]
    assert ch.active_count == 0 and _pending(sim) == 0


def test_zero_byte_submit_settles_before_returning():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    got = []
    ch.submit(0.0, Continuation(got.append, pytest.fail))
    assert got == [0.0]
    assert _pending(sim) == 0
