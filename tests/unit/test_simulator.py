"""Unit tests for the Simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_to_a_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [1.5]
    assert sim.now == 2.0


def test_bounded_run_excludes_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.pending_events == 1
    sim.run(until=4.0)
    assert fired == ["early", "late"]


def test_run_with_no_until_drains_queue():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1, 2]
    assert sim.now == 2.0


def test_at_schedules_absolute_time():
    sim = Simulator()
    fired = []
    sim.at(0.75, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 0.75


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_events_scheduled_during_run_are_honoured():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append((sim.now, n))
        if n > 0:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(1.0, chain, 2)
    sim.run()
    assert fired == [(1.0, 2), (2.0, 1), (3.0, 0)]


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_determinism_same_seed_same_draws():
    draws_a = Simulator(seed=99).random.get("s").random()
    draws_b = Simulator(seed=99).random.get("s").random()
    assert draws_a == draws_b


def test_different_streams_are_independent():
    sim = Simulator(seed=1)
    first = sim.random.get("a").random()
    # Creating and using another stream must not change "a"'s sequence.
    sim2 = Simulator(seed=1)
    sim2.random.get("b").random()
    second = sim2.random.get("a").random()
    assert first == second


# ---------------------------------------------------------------------------
# Run loop: ordering, windows, failures
# ---------------------------------------------------------------------------
def test_run_fires_a_same_time_burst_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(1e-3, fired.append, i)
    sim.run()
    assert fired == list(range(100))
    assert sim.events_executed == 100


def test_bounded_run_leaves_later_events_stored():
    sim = Simulator()
    fired = []
    for i in range(50):
        sim.schedule(0.1 + i * 1e-6, fired.append, i)
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == list(range(50))
    # The event beyond ``until`` is peeked but never consumed: it stays
    # stored, and a later run picks it up.
    assert sim.pending_events == 1
    sim.run()
    assert fired[-1] == "late"
    assert sim.pending_events == 0


def test_raising_callback_leaves_exact_counts_and_a_rerunnable_simulator():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, fired.append, "before")
    sim.schedule(2.0, boom)
    sim.schedule(3.0, fired.append, "after")
    with pytest.raises(RuntimeError):
        sim.run()
    # The failing callback was dispatched, so it counts; nothing after it ran.
    assert fired == ["before"]
    assert sim.events_executed == 2
    assert sim.now == 2.0
    assert sim.pending_events == 1
    # _running was cleared on the way out: the simulator runs again.
    sim.run()
    assert fired == ["before", "after"]
    assert sim.events_executed == 3
    assert sim.pending_events == 0


@pytest.mark.parametrize("bad", [float("nan"), -1e-9])
def test_every_scheduling_entry_point_rejects_nan_and_past_times(bad):
    # A NaN key compares false with everything and would silently corrupt
    # the heap order, so it must be refused at the door like a past time.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    when = sim.now + bad  # just behind the clock, or NaN again
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(when, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_reserved(when, sim.reserve_seq(), lambda: None)
    assert sim.pending_events == 0


def test_scheduling_is_fire_and_forget():
    # One kind of heap entry and no handle to it: nothing is returned, so
    # nothing can be taken back. A deadline that may be called off is a Timer.
    sim = Simulator()
    assert sim.schedule(1.0, lambda: None) is None
    assert sim.at(2.0, lambda: None) is None
    assert sim.post_reserved(3.0, sim.reserve_seq(), lambda: None) is None
    assert sim.pending_events == 3
    assert all(len(entry) == 4 for entry in sim._queue._heap)


def test_run_rejects_a_nan_horizon_before_anything_runs():
    # Regression: `time > nan` is never true, so run(until=nan) used to
    # ignore its horizon and execute every queued event.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1.0)
    sim.run(until=0.5)
    sim.schedule(4.5, fired.append, 5.0)
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert (fired, sim.now, sim.pending_events, sim.events_executed) == ([], 0.5, 2, 0)
    sim.run(until=0.25)  # a horizon behind the clock stays the no-op it is
    assert (fired, sim.now) == ([], 0.5)
    sim.run()  # and the simulator still runs
    assert (fired, sim.now, sim.pending_events) == ([1.0, 5.0], 5.0, 0)


# ---------------------------------------------------------------------------
# run(until=..., max_events=...) interplay
# ---------------------------------------------------------------------------
def test_budget_and_window_exhaust_simultaneously_advances_clock():
    # Regression: when the budget ran out on the last event inside the
    # window, the clock used to stay at that event instead of advancing
    # to ``until`` like an unbudgeted run would.
    sim = Simulator()
    fired = []
    for t in (0.5, 1.0, 1.5):
        sim.schedule(t, fired.append, t)
    sim.schedule(5.0, fired.append, 5.0)  # beyond the window
    sim.run(until=2.0, max_events=3)
    assert fired == [0.5, 1.0, 1.5]
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_budget_stop_with_runnable_events_keeps_clock():
    sim = Simulator()
    fired = []
    for t in (0.5, 1.0, 1.5):
        sim.schedule(t, fired.append, t)
    sim.run(until=2.0, max_events=2)
    assert fired == [0.5, 1.0]
    # An event at t=1.5 <= until is still runnable, so the clock must NOT
    # jump past it.
    assert sim.now == 1.0
    assert sim.pending_events == 1
    sim.run(until=2.0)
    assert fired == [0.5, 1.0, 1.5]
    assert sim.now == 2.0


def test_window_drained_under_budget_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, 0.5)
    sim.schedule(3.0, fired.append, 3.0)
    sim.run(until=2.0, max_events=100)
    assert fired == [0.5]
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_zero_budget_runs_nothing_and_keeps_clock():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, 0.5)
    sim.run(until=1.0, max_events=0)
    assert fired == []
    # The pending event precedes ``until``, so the clock may not advance.
    assert sim.now == 0.0
    sim.run(until=1.0)
    assert fired == [0.5]
    assert sim.now == 1.0


def test_zero_budget_on_empty_window_still_advances_clock():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run(until=1.0, max_events=0)
    assert sim.now == 1.0  # nothing runnable inside the window


# ---------------------------------------------------------------------------
# Observer registration tokens
# ---------------------------------------------------------------------------
def test_observe_simulators_double_registration_is_independent():
    from repro.sim.simulator import observe_simulators

    seen = []
    remove_a = observe_simulators(seen.append)
    remove_b = observe_simulators(seen.append)  # same callback, twice
    try:
        Simulator()
        assert len(seen) == 2
        remove_a()  # removes only its own registration...
        Simulator()
        assert len(seen) == 3
        remove_a()  # ...and is idempotent
        Simulator()
        assert len(seen) == 4
    finally:
        remove_a()
        remove_b()
    Simulator()
    assert len(seen) == 4


def test_observe_networks_double_registration_is_independent():
    from repro.sim.network import Network, observe_networks

    seen = []
    remove_a = observe_networks(seen.append)
    remove_b = observe_networks(seen.append)
    try:
        Network(Simulator())
        assert len(seen) == 2
        remove_b()
        remove_b()  # idempotent
        Network(Simulator())
        assert len(seen) == 3
    finally:
        remove_a()
        remove_b()
    Network(Simulator())
    assert len(seen) == 3
