"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_equal_timestamps_fire_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(3.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 2)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the window edge
    sim.run()
    assert fired == [1, 2]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []


def test_cancel_twice_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 4.0


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_pending_counts_uncancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending == 1


def test_same_seed_same_trace():
    def trace(seed):
        sim = Simulator(seed=seed)
        values = []
        for i in range(20):
            sim.schedule(sim.rng.uniform(0, 100), values.append, i)
        sim.run()
        return values

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_fork_rng_streams_are_independent_and_stable():
    sim_a = Simulator(seed=3)
    sim_b = Simulator(seed=3)
    assert sim_a.fork_rng("x").random() == sim_b.fork_rng("x").random()
    assert sim_a.fork_rng("x").random() != sim_a.fork_rng("y").random()


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_events_fired_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_same_time_fifo_holds_across_cancelled_events():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(2.0, fired.append, label) for label in "abcdef"]
    handles[1].cancel()
    handles[4].cancel()
    sim.schedule(2.0, fired.append, "g")
    sim.run()
    assert fired == list("acdfg")


def test_event_scheduled_at_now_fires_after_queued_peers():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "spawned")
        sim.schedule_at(sim.now, fired.append, "spawned-at")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "peer-1")
    sim.schedule(1.0, fired.append, "peer-2")
    sim.run()
    assert fired == ["first", "peer-1", "peer-2", "spawned", "spawned-at"]
    assert sim.now == 1.0


def test_pending_and_step_skip_cancelled_entries():
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "late")
    also = sim.schedule(2.0, fired.append, "cancelled")
    early.cancel()
    also.cancel()
    assert sim.pending == 1
    assert sim.step()
    assert fired == ["late"] and sim.now == 2.0
    assert sim.events_fired == 1
    assert sim.pending == 0
    assert not sim.step()


def test_schedule_at_wrapper_sees_every_scheduled_event(monkeypatch):
    # Tracers wrap Simulator.schedule_at and rely on every scheduling path
    # going through it.
    seen = []
    original = Simulator.schedule_at

    def spy(sim, time, callback, *args):
        seen.append((time, args))
        return original(sim, time, callback, *args)

    monkeypatch.setattr(Simulator, "schedule_at", spy)
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.5, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.schedule(0.5, fired.append, "x")
    sim.run()
    assert fired == ["x", 1, 2, 3]
    assert seen == [(1.0, (1,)), (0.5, ("x",)), (2.5, (2,)), (4.0, (3,))]
    assert len(seen) == sim.events_fired
