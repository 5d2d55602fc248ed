"""Unit tests for gauges, counters, and RNG streams."""

import numpy as np
import pytest

from repro.simcore import RandomStreams, Simulator
from repro.telemetry import CounterSet, TimeWeightedGauge


# ---------------------------------------------------------------- TimeWeightedGauge
def test_gauge_histogram_exact():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=0)

    def proc(sim, g):
        g.set(2)
        yield sim.timeout(10.0)
        g.set(4)
        yield sim.timeout(30.0)
        g.set(1)
        yield sim.timeout(60.0)

    sim.process(proc(sim, g))
    sim.run()
    assert g.histogram() == {2.0: 10.0, 4.0: 30.0, 1.0: 60.0}


def test_gauge_cdf_and_fractions():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=1)

    def proc(sim, g):
        yield sim.timeout(50.0)
        g.set(3)
        yield sim.timeout(50.0)

    sim.process(proc(sim, g))
    sim.run()
    assert g.time_fraction_at(1) == pytest.approx(0.5)
    assert g.time_fraction_at_or_below(1) == pytest.approx(0.5)
    assert g.time_fraction_at_or_below(3) == pytest.approx(1.0)
    assert g.cdf_points() == [(1.0, 0.5), (3.0, 1.0)]


def test_gauge_mean_time_weighted():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=0)

    def proc(sim, g):
        g.set(10)
        yield sim.timeout(25.0)
        g.set(0)
        yield sim.timeout(75.0)

    sim.process(proc(sim, g))
    sim.run()
    assert g.mean() == pytest.approx(2.5)


def test_gauge_increment_decrement():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=0)
    g.increment()
    g.increment()
    g.decrement()
    assert g.value == 1


def test_gauge_histogram_includes_open_segment():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=5)

    def proc(sim):
        yield sim.timeout(7.0)

    sim.process(proc(sim))
    sim.run()
    assert g.histogram() == {5.0: 7.0}


def test_gauge_setting_same_value_is_noop():
    sim = Simulator()
    g = TimeWeightedGauge(sim, initial=3)
    g.set(3)
    assert g.value == 3


# ---------------------------------------------------------------- CounterSet
def test_counterset_accumulates():
    c = CounterSet()
    c.add("reads")
    c.add("reads", 4)
    c.add("bytes", 100.5)
    assert c.get("reads") == 5
    assert c["bytes"] == 100.5
    assert c.get("missing") == 0
    assert c.as_dict() == {"reads": 5.0, "bytes": 100.5}


# ---------------------------------------------------------------- RandomStreams
def test_streams_deterministic_across_instances():
    a = RandomStreams(42).stream("x").random(8)
    b = RandomStreams(42).stream("x").random(8)
    assert np.array_equal(a, b)


def test_streams_independent_by_name():
    s = RandomStreams(42)
    a = s.stream("x").random(8)
    b = s.stream("y").random(8)
    assert not np.array_equal(a, b)


def test_streams_cached_same_object():
    s = RandomStreams(0)
    assert s.stream("a") is s.stream("a")


def test_streams_fresh_resets_state():
    s = RandomStreams(7)
    a = s.fresh("z").random(4)
    b = s.fresh("z").random(4)
    assert np.array_equal(a, b)


def test_streams_spawn_differs_from_parent():
    parent = RandomStreams(5)
    child = parent.spawn("sub")
    assert child.root_seed != parent.root_seed
    a = parent.stream("k").random(4)
    b = child.stream("k").random(4)
    assert not np.array_equal(a, b)


def test_streams_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)
