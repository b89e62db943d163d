"""Unit tests for Process, Timer, and PeriodicTimer."""

import pytest

from repro.errors import SimulationError
from repro.sim import PeriodicTimer, Process, Simulator, Timer


class Recorder(Process):
    def __init__(self, sim):
        super().__init__(sim, "recorder")
        self.calls = []

    def note(self, tag):
        self.calls.append((self.sim.now, tag))


def test_call_later_runs_when_up():
    sim = Simulator()
    proc = Recorder(sim)
    proc.call_later(0.5, proc.note, "tick")
    sim.run()
    assert proc.calls == [(0.5, "tick")]


def test_crashed_process_suppresses_callbacks():
    sim = Simulator()
    proc = Recorder(sim)
    proc.call_later(0.5, proc.note, "tick")
    proc.crash()
    sim.run()
    assert proc.calls == []


def test_restart_reenables_callbacks():
    sim = Simulator()
    proc = Recorder(sim)
    proc.crash()
    proc.restart()
    proc.call_later(0.1, proc.note, "back")
    sim.run()
    assert proc.calls == [(0.1, "back")]


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    t = Timer(sim, 0.5, lambda: fired.append(sim.now))
    t.start()
    sim.run(until=2.0)
    assert fired == [0.5]
    assert t.deadline is None


def test_timer_restart_resets_deadline():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    sim.run(until=0.6)
    t.start()  # restart at t=0.6 -> fires at 1.6
    sim.run(until=3.0)
    assert fired == [1.6]


def test_timer_stop_prevents_firing():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    t.stop()
    sim.run(until=3.0)
    assert fired == []


def test_timer_custom_delay_on_start():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start(delay=0.25)
    sim.run(until=2.0)
    assert fired == [0.25]


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_timer_rejects_negative_or_nan_default_delay(bad):
    with pytest.raises(ValueError):
        Timer(Simulator(), bad, lambda: None)


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_timer_start_rejects_bad_delay_and_changes_nothing(bad):
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError):
        t.start(delay=bad)  # disarmed: stays disarmed, nothing queued
    assert t.deadline is None and sim.pending_events == 0
    t.start()
    with pytest.raises(SimulationError):
        t.start(delay=bad)  # armed: keeps its deadline
    assert t.deadline == 1.0 and sim.pending_events == 1
    sim.run()
    assert fired == [1.0]


def test_stopped_timer_entry_is_an_ordinary_callback():
    """The entry of a stopped timer lapses as a callback, not a tombstone."""
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    t.stop()
    assert sim.pending_events == 1
    sim.run()  # to exhaustion: ends at the lapsed entry's time
    assert (fired, sim.now, sim.events_executed, sim.pending_events) == ([], 1.0, 1, 0)


def test_restarts_reuse_the_one_queued_entry():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    for k in range(1, 10):
        sim.run(until=0.1 * k)
        t.start()
        assert sim.pending_events == 1
    sim.run()
    # One early wake-up at t=1.0 re-queued the entry at the last deadline.
    assert fired == [0.1 * 9 + 1.0] and sim.events_executed == 2


def test_restart_with_an_earlier_deadline_orphans_the_queued_entry():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    t.start(delay=0.25)
    sim.run(until=0.5)
    assert fired == [0.25] and t.deadline is None
    sim.at(1.0, fired.append, "bystander")
    t.start(delay=0.5)  # deadline 1.0: the orphan's time, but not its turn
    sim.run()
    assert fired == [0.25, "bystander", 1.0]


def test_periodic_timer_is_drift_free():
    sim = Simulator()
    fired = []
    t = PeriodicTimer(sim, 0.1, lambda: fired.append(round(sim.now, 10)))
    t.start()
    sim.run(until=0.55)
    t.stop()
    assert fired == [0.1, 0.2, 0.3, 0.4, 0.5]


def test_periodic_timer_stop_is_final():
    sim = Simulator()
    fired = []
    t = PeriodicTimer(sim, 0.1, lambda: fired.append(sim.now))
    t.start()
    sim.run(until=0.25)
    t.stop()
    sim.run(until=1.0)
    assert len(fired) == 2


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda: None)


def test_deadline_is_none_exactly_while_disarmed():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(t.deadline))
    assert t.deadline is None  # never started
    t.start()
    assert t.deadline == 1.0
    t.stop()
    assert t.deadline is None  # stopped
    sim.run()  # the stopped timer's entry lapses at 1.0
    assert (sim.now, fired, t.deadline) == (1.0, [], None)
    t.start(delay=0.5)
    sim.run(until=1.25)
    t.start()  # restart: the entry queued for 1.5 lapses and re-queues
    sim.run(until=2.0)
    assert (fired, t.deadline) == ([], 2.25)
    sim.run()
    assert (fired, t.deadline) == ([None], None)  # disarmed before fn runs


def test_assigning_no_deadline_is_stop():
    sim = Simulator()
    fired = []
    t = Timer(sim, 1.0, lambda: fired.append(sim.now))
    t.start()
    t.deadline = None
    sim.run()
    assert fired == [] and sim.events_executed == 1
    t.start()
    sim.run()
    assert fired == [2.0]


def test_periodic_running_follows_start_and_stop():
    sim = Simulator()
    seen = []
    t = PeriodicTimer(sim, 0.1, lambda: seen.append(t.running))
    assert not t.running
    t.start()
    assert t.running
    sim.run(until=0.25)
    assert t.running and seen == [True, True]
    t.stop()
    assert not t.running
    sim.run(until=1.0)
    assert not t.running and seen == [True, True]
    t.start()
    assert t.running
    t.fn = t.stop  # a tick that stops its own timer
    sim.run(until=2.0)
    assert not t.running and sim.now == 2.0
