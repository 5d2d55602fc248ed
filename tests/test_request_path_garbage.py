"""The read path leaves no dead timers and no cyclic garbage behind.

An answered RPC cancels its deadline, a fair-share channel cancels the
completion timer it supersedes, and a released seek-slot grant drops its
self-reference.  So after a run the kernel holds O(nodes) pending
timestamps rather than one per request, and every request-path object is
freed by reference counting: with the collector disabled and the
simulator still alive, ``gc.collect()`` finds none of them unreachable.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager

from repro.cluster import ClusterConfig, ClusterStore
from repro.core.control.rpc import ControlChannel, RetryPolicy
from repro.simcore import AllOf, Event, Simulator
from repro.storage import BlockDevice, DistributedFilesystem, sata_hdd
from repro.storage.fluid import FairShareChannel, constant_capacity

KiB = 1024


def _pending(sim: Simulator) -> int:
    """Events waiting in the kernel: the active slot plus future slots."""
    return len(sim._now_queue) + sum(len(slot) for slot in sim._slots.values())


@contextmanager
def _cyclic_garbage():
    """Collector off for the block; yields the types of what it left
    unreachable, counted by ``gc.collect()`` at the end of the block."""
    found: Counter = Counter()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.update(type(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _kernel_objects(found: Counter) -> dict:
    return {cls.__name__: n for cls, n in found.items() if issubclass(cls, Event)}


# ---------------------------------------------------------------- RPC
def test_answered_request_leaves_no_pending_deadline():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    done = ch.request_with_retry(lambda: "bytes", timeout=50e-3)
    sim.run()
    assert done.value == "bytes"
    # The run ends at the reply (two legs), not at the 50 ms deadline.
    assert sim.now == 2e-3
    assert ch.counters.get("requests") == 1
    assert ch.counters.get("timeouts") == 0


def test_timed_out_attempt_retries_and_discards_its_late_reply():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    served = []

    def far_side():
        served.append(sim.now)
        return len(served)  # which attempt's reply this is

    # Attempt 1 crawls (3 ms legs against a 5 ms deadline); the congestion
    # clears before the immediate retry, whose reply lands at 7 ms — after
    # attempt 1's late reply at 6 ms, which must be discarded.
    ch.inject_delay(2e-3)
    sim.at(4e-3, ch.inject_delay, 0.0)
    done = ch.request_with_retry(
        far_side, timeout=5e-3, policy=RetryPolicy(base_delay=0.0)
    )
    sim.run()
    assert done.value == 2
    assert served == [3e-3, 6e-3]  # both attempts reached the far side
    assert ch.counters.get("requests") == 2
    assert ch.counters.get("retries") == 1
    assert ch.counters.get("timeouts") == 1
    # Attempt 2's deadline (10 ms) was cancelled by its reply.
    assert sim.now == 7e-3


# ---------------------------------------------------------------- fluid
def test_staggered_arrivals_keep_one_armed_completion_timer():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(1e6), name="ch")
    armed = []

    def arrivals(sim):
        for _ in range(12):
            ch.transfer(10_000)
            armed.append(_pending(sim))  # nothing else is scheduled here
            yield sim.timeout(1e-3)

    sim.process(arrivals(sim))
    sim.run()
    assert armed == [1] * 12
    assert ch.transfers_completed == 12
    assert _pending(sim) == 0


# ---------------------------------------------------------------- garbage
def test_contended_seek_slot_reads_leave_no_cyclic_garbage():
    with _cyclic_garbage() as found:
        sim = Simulator()
        dev = BlockDevice(sim, sata_hdd(), name="hdd")
        assert dev._seek_slots is not None  # the Resource path under test
        reads = [dev.read(64 * KiB) for _ in range(16)]
        sim.run()
        assert all(r.ok for r in reads)
    assert _kernel_objects(found) == {}


def test_cluster_run_leaves_no_cyclic_garbage_and_o_nodes_pending():
    n_nodes, n_files = 8, 64
    with _cyclic_garbage() as found:
        sim = Simulator()
        backing = DistributedFilesystem(sim, n_targets=4, name="pfs")
        paths = [f"/data/{i:04d}" for i in range(n_files)]
        backing.create_many((p, 64 * KiB) for p in paths)
        config = ClusterConfig(
            n_nodes=n_nodes, tier_capacity_bytes=n_files * 64 * KiB, rpc_timeout=50e-3
        )
        store = ClusterStore(sim, backing, paths, config, name="c")

        def trainer(node):
            for path in paths:
                yield node.read(path)

        procs = [sim.process(trainer(store.node(i))) for i in range(n_nodes)]
        sim.run(until=AllOf(sim, procs))
        assert store.totals()["peer_hits"] > 0  # the RPC path ran
        assert len(sim._slots) <= n_nodes
    assert _kernel_objects(found) == {}
