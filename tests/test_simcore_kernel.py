"""Unit tests for the simulation kernel: events, processes, scheduling."""

import pytest

from repro.simcore import (
    EventAlreadyTriggered,
    Interrupt,
    ProcessError,
    SchedulingError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(5.0)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [5.0]
    assert sim.now == 5.0


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_process_return_value_via_join():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result * 2

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 84


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_run_until_time_in_past_rejected():
    sim = Simulator()
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=-1.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)
        return "done"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "done"
    assert sim.now == 3.0


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SchedulingError):
        sim.run(until=ev)


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc(sim, ev))

    def failer(sim, ev):
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(failer(sim, ev))
    sim.run()
    assert caught == ["boom"]


def test_process_failure_propagates_to_joiner():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ProcessError as exc:
            return ("caught", type(exc.__cause__).__name__)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("caught", "RuntimeError")


def test_unobserved_process_failure_crashes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("silent death")

    sim.process(bad(sim))
    with pytest.raises(ProcessError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as exc:
            return ("interrupted", exc.cause, sim.now)

    def killer(sim, victim):
        yield sim.timeout(7.0)
        victim.interrupt("deadline")

    victim = sim.process(sleeper(sim))
    sim.process(killer(sim, victim))
    sim.run()
    assert victim.value == ("interrupted", "deadline", 7.0)


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SchedulingError):
        p.interrupt()


def test_any_of_triggers_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        result = yield sim.any_of([t1, t2])
        return (sim.now, list(result.values()))

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert p.value == (2.0, ["fast"])


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc(sim):
        events = [sim.timeout(d) for d in (1.0, 4.0, 2.0)]
        yield sim.all_of(events)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 4.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc(sim):
        result = yield sim.all_of([])
        return result

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == {}


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ProcessError as exc:
            return type(exc.__cause__).__name__

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "TypeError"


def test_nested_processes_compose():
    sim = Simulator()

    def leaf(sim, delay):
        yield sim.timeout(delay)
        return delay

    def mid(sim):
        a = yield sim.process(leaf(sim, 1.0))
        b = yield sim.process(leaf(sim, 2.0))
        return a + b

    p = sim.process(mid(sim))
    sim.run()
    assert p.value == 3.0
    assert sim.now == 3.0


def test_stop_ends_run_early():
    sim = Simulator()

    def stopper(sim):
        yield sim.timeout(5.0)
        sim.stop()

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(stopper(sim))
    sim.process(forever(sim))
    sim.run()
    assert sim.now == 5.0


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_peek_empty_queue_is_inf():
    sim = Simulator()
    sim.run()
    assert sim.peek() == float("inf")


def test_step_on_empty_queue_raises():
    sim = Simulator()
    sim.run()
    with pytest.raises(SchedulingError):
        sim.step()


def test_active_process_visible_during_execution():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


# -- timer cancellation ---------------------------------------------------------
def test_cancelled_timer_never_fires_and_is_not_counted():
    sim = Simulator()
    fired = []
    keep = sim.timeout(1.0)
    keep.add_callback(lambda ev: fired.append("keep"))
    drop = sim.timeout(2.0)
    drop.add_callback(lambda ev: fired.append("drop"))
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert sim.events_processed == 1
    assert not drop.triggered and not drop.processed


def test_cancel_processed_timer_is_noop():
    sim = Simulator()
    timer = sim.timeout(1.0, value="v")
    sim.run()
    sim.cancel(timer)
    sim.cancel(timer)
    assert timer.processed and timer.value == "v"
    assert sim.now == 1.0


def test_cancel_timer_due_at_current_timestamp():
    sim = Simulator()
    fired = []

    def proc(sim):
        due_now = sim.timeout(0.0)
        due_now.add_callback(lambda ev: fired.append("now"))
        sibling = sim.timeout(0.0)
        sibling.add_callback(lambda ev: fired.append("sibling"))
        sim.cancel(due_now)  # sits in the active slot's FIFO
        yield sibling

    sim.process(proc(sim))
    sim.run()
    assert fired == ["sibling"]


def test_cancel_one_of_a_shared_slot_keeps_the_rest_in_order():
    sim = Simulator()
    fired = []
    timers = [sim.timeout(1.0, value=i) for i in range(4)]
    for t in timers:
        t.add_callback(lambda ev: fired.append(ev.value))
    sim.cancel(timers[1])
    sim.run()
    assert fired == [0, 2, 3]


def test_run_to_exhaustion_ends_at_last_live_event():
    """A cancelled timer never moves the clock: the run ends where the
    same run without that timer ends."""

    def scenario(with_cancelled_tail):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            if with_cancelled_tail:
                sim.cancel(sim.timeout(50.0))
            yield sim.timeout(2.0)

        sim.process(proc(sim))
        sim.run()
        return sim.now, sim.events_processed

    assert scenario(True) == scenario(False) == (3.0, 4)


def test_step_and_peek_skip_cancelled_timestamps():
    sim = Simulator()
    sim.cancel(sim.timeout(1.0))
    live = sim.timeout(2.0)
    assert sim.peek() == 2.0
    sim.step()
    assert sim.now == 2.0 and live.processed
    sim.cancel(sim.timeout(3.0))
    assert sim.peek() == float("inf")
    with pytest.raises(SchedulingError):
        sim.step()


def test_run_until_time_past_cancelled_timers():
    sim = Simulator()
    sim.cancel(sim.timeout(1.0))
    sim.cancel(sim.timeout(5.0))
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.events_processed == 0


def test_many_cancellations_keep_the_heap_bounded():
    sim = Simulator()
    for i in range(1000):
        sim.cancel(sim.timeout(1.0 + i))
    assert not sim._slots
    assert len(sim._times) <= 64
    sim.run()
    assert sim.now == 0.0
