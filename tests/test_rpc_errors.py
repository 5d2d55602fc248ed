"""Error taxonomy of the control channel and the read-through tier.

Every way an exchange can end — reply, dropped request or reply, far-side
exception or failed far-side event, timeout, retry exhaustion — must
surface as exactly one typed outcome on the caller's event, and a
coalesced tier fetch must share its in-flight read's failure.
"""

from __future__ import annotations

import pytest

from repro.core.control.rpc import (
    ControlChannel,
    RetryPolicy,
    RpcApplicationError,
    RpcRetriesExhausted,
    RpcTimeout,
    RpcTransportError,
)
from repro.core.tiering import TieringObject
from repro.simcore import Simulator
from repro.simcore.event import Event
from repro.storage import BlockDevice, Filesystem, ramdisk
from repro.storage.filesystem import ReadFault, TransientReadError

KiB = 1024


def _outcome(sim, event):
    """Run the simulation dry; return ("value", v) or ("exc", e) of ``event``."""
    sim.run()
    assert event.processed
    if event.ok:
        return "value", event.value
    return "exc", event.exception


# ---------------------------------------------------------------- transport
@pytest.mark.parametrize("send", ["call", "request"])
def test_dropped_request_is_a_transport_error(send):
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    ch.inject_drops(True)
    executed = []
    ev = getattr(ch, send)(lambda: executed.append(1))
    kind, exc = _outcome(sim, ev)
    assert kind == "exc" and type(exc) is RpcTransportError
    assert "request dropped" in str(exc)
    assert executed == [], "a lost request never reaches the far side"
    assert ch.counters.get("drops") == 1


@pytest.mark.parametrize("send", ["call", "request"])
def test_dropped_reply_is_a_transport_error(send):
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    executed = []

    def far_side():
        executed.append(sim.now)
        ch.inject_drops(True)  # the network partitions after the request lands
        return 7

    kind, exc = _outcome(sim, getattr(ch, send)(far_side))
    assert kind == "exc" and type(exc) is RpcTransportError
    assert "reply dropped" in str(exc)
    assert executed == [pytest.approx(1e-3)], "the far side ran exactly once"
    assert ch.counters.get("drops") == 1


# ---------------------------------------------------------------- far side
def test_far_side_exception_in_a_request_is_an_application_error_with_cause():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)

    def broken():
        raise KeyError("no such sample")

    kind, exc = _outcome(sim, ch.request(broken))
    assert kind == "exc" and type(exc) is RpcApplicationError
    assert isinstance(exc.__cause__, KeyError)


def test_failed_far_side_event_is_an_application_error_with_cause():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    far = Event(sim)
    sim.at(0.01, far.fail, OSError("tier exploded"))
    kind, exc = _outcome(sim, ch.request(lambda: far))
    assert kind == "exc" and type(exc) is RpcApplicationError
    assert isinstance(exc.__cause__, OSError)
    assert sim.now == pytest.approx(0.01), "no reply leg after a far-side failure"


def test_nested_rpc_failure_on_the_far_side_passes_through_typed():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    far = Event(sim)
    sim.at(0.01, far.fail, RpcTimeout("downstream peer timed out"))
    kind, exc = _outcome(sim, ch.request(lambda: far))
    assert kind == "exc" and type(exc) is RpcTimeout


def test_call_does_not_wait_on_a_returned_event():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    far = Event(sim)
    kind, value = _outcome(sim, ch.call(lambda: far))
    assert kind == "value" and value is far
    assert sim.now == pytest.approx(2e-3)


# ---------------------------------------------------------------- timeouts
@pytest.mark.parametrize("send", ["call", "request"])
def test_timeout_beats_late_reply_and_the_reply_is_discarded(send):
    sim = Simulator()
    ch = ControlChannel(sim, latency=5e-3)  # round trip 10 ms
    executed = []
    ev = getattr(ch, send)(lambda: executed.append(sim.now) or "late", timeout=2e-3)
    settled = []
    ev.add_callback(lambda e: settled.append(sim.now))
    kind, exc = _outcome(sim, ev)
    assert kind == "exc" and type(exc) is RpcTimeout
    assert settled == [pytest.approx(2e-3)]
    # The exchange ran to completion: the far side executed (at-most-once
    # ambiguity) and its reply arrived at 10 ms without touching the event.
    assert executed == [pytest.approx(5e-3)]
    assert sim.now == pytest.approx(10e-3)
    assert ch.counters.get("timeouts") == 1


def test_late_reply_dropped_after_a_timeout_is_counted_once():
    sim = Simulator()
    ch = ControlChannel(sim, latency=5e-3)
    ev = ch.call(lambda: 1, timeout=2e-3)
    sim.at(7e-3, ch.inject_drops, True)  # the reply leg is lost too
    kind, exc = _outcome(sim, ev)
    assert kind == "exc" and type(exc) is RpcTimeout
    assert ch.counters.get("drops") == 1
    assert ch.counters.get("timeouts") == 1


def test_non_positive_timeout_is_rejected():
    sim = Simulator()
    ch = ControlChannel(sim)
    with pytest.raises(ValueError):
        ch.call(lambda: 1, timeout=0.0)
    with pytest.raises(ValueError):
        ch.request(lambda: 1, timeout=-1.0)


# ---------------------------------------------------------------- retries
def test_exhausting_attempts_chains_the_last_transport_error():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    ch.inject_drops(True)
    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)
    kind, exc = _outcome(sim, ch.request_with_retry(lambda: 1, policy=policy))
    assert kind == "exc" and type(exc) is RpcRetriesExhausted
    assert type(exc.__cause__) is RpcTransportError
    assert ch.counters.get("requests") == 3
    assert ch.counters.get("retries") == 2


def test_exhausting_the_budget_chains_the_last_timeout():
    sim = Simulator()
    ch = ControlChannel(sim, latency=5e-3)  # every attempt times out
    policy = RetryPolicy(max_attempts=50, base_delay=1e-3, multiplier=1.0, budget=10e-3)
    kind, exc = _outcome(
        sim, ch.call_with_retry(lambda: 1, policy=policy, timeout=2e-3)
    )
    assert kind == "exc" and type(exc) is RpcRetriesExhausted
    assert type(exc.__cause__) is RpcTimeout
    attempts = ch.counters.get("calls")
    assert 1 < attempts < 50, "the budget, not the attempt cap, ended the loop"
    assert ch.counters.get("timeouts") == attempts


def test_retry_skips_a_backoff_that_would_blow_the_budget():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    ch.inject_drops(True)
    # The first failure lands at 0.1 ms; a 5 ms backoff would overrun 1 ms.
    policy = RetryPolicy(max_attempts=5, base_delay=5e-3, budget=1e-3)
    kind, exc = _outcome(sim, ch.call_with_retry(lambda: 1, policy=policy))
    assert kind == "exc" and type(exc) is RpcRetriesExhausted
    assert ch.counters.get("retries") == 0
    assert sim.now == pytest.approx(1e-4)


def test_request_application_errors_are_not_retried():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("deterministic bug")

    kind, exc = _outcome(sim, ch.request_with_retry(broken))
    assert kind == "exc" and type(exc) is RpcApplicationError
    assert isinstance(exc.__cause__, ValueError)
    assert calls == [1]
    assert ch.counters.get("retries") == 0


# ---------------------------------------------------------------- tier coalescing
def _failing_tier(sim):
    backing = Filesystem(sim, BlockDevice(sim, ramdisk()), name="backing")
    backing.create("/s", 16 * KiB)
    fast = Filesystem(sim, BlockDevice(sim, ramdisk(), name="fast"), name="fast")
    tier = TieringObject(sim, backing, fast, fast_capacity_bytes=1024 * KiB)
    return backing, tier


def test_coalesced_fetch_sees_the_in_flight_failure():
    sim = Simulator()
    backing, tier = _failing_tier(sim)
    backing.fault_hook = lambda path, nbytes: ReadFault(
        error=TransientReadError(path), extra_latency=1e-3
    )
    first = tier.fetch_through("/s")
    second = tier.fetch_through("/s")
    assert tier.fetches_in_flight == 1
    assert tier.counters.get("coalesced_fetches") == 1
    sim.run()
    for ev in (first, second):
        assert not ev.ok
        assert isinstance(ev.exception, TransientReadError)
    assert tier.fetches_in_flight == 0
    assert tier.resident_files == 0

    # The failure is not cached: the next fetch reads the source again.
    backing.fault_hook = None
    again = tier.fetch_through("/s")
    sim.run()
    assert again.value == 16 * KiB
    assert tier.counters.get("slow_reads") == 2
    assert tier.resident_files == 1
    assert tier.fetches_in_flight == 0
