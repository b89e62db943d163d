"""Unit tests for the kernel's event queue: one kind of entry, ``(time, seq)`` order."""

import random

from repro.sim import Simulator
from repro.sim.events import EventQueue


def _drain(sim):
    """Run to exhaustion one event at a time (``run(max_events=1)``)."""
    while sim.pending_events:
        sim.run(max_events=1)


def test_empty_queue_behaviour():
    q = EventQueue()
    assert not q
    assert len(q) == 0
    assert q.peek_time() is None
    sim = Simulator()
    sim.run(max_events=1)  # nothing to run: a no-op
    assert (sim.now, sim.events_executed, sim.pending_events) == (0.0, 0, 0)


def test_every_entry_point_queues_the_same_four_tuple():
    sim = Simulator()

    def fn(*args):
        pass

    sim.schedule(1.0, fn, "a")  # seq 0
    seq = sim.reserve_seq()  # seq 1, queued last
    sim.at(2.0, fn)  # seq 2
    sim.post_reserved(2.0, seq, fn, "c", "d")
    assert sorted(sim._queue._heap) == [
        (1.0, 0, fn, ("a",)), (2.0, 1, fn, ("c", "d")), (2.0, 2, fn, ()),
    ]


def test_entries_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(2.0, fired.append, "b")
    sim.at(1.0, fired.append, "a")
    sim.at(3.0, fired.append, "c")
    _drain(sim)
    assert fired == ["a", "b", "c"]


def test_same_time_entries_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.at(1.0, fired.append, label)
    _drain(sim)
    assert fired == list("abcde")


def test_queue_orders_by_time_then_seq():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, (1.0, 0))
    sim.at(1.0, fired.append, (1.0, 1))
    sim.at(0.5, fired.append, (0.5, 2))
    _drain(sim)
    assert fired == [(0.5, 2), (1.0, 0), (1.0, 1)]


def test_a_reserved_seq_fires_in_its_reserved_position():
    sim = Simulator()
    fired = []
    early = sim.reserve_seq()  # drawn before "b"'s, queued after it
    sim.at(1.0, fired.append, "b")
    sim.post_reserved(1.0, early, fired.append, "a")
    _drain(sim)
    assert fired == ["a", "b"]


def test_peek_time_is_a_pure_read():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    q = sim._queue
    assert q.peek_time() == 1.0
    assert q.peek_time() == 1.0  # repeated peeks consume nothing
    assert sim.pending_events == len(q) == 2
    sim.run(max_events=1)
    assert q.peek_time() == 2.0
    assert sim.pending_events == 1


def test_pending_events_counts_every_queued_entry():
    # No tombstones: the heap's length is the number of callbacks that
    # will run, whoever queued them.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.post_reserved(3.0, sim.reserve_seq(), lambda: None)
    assert sim.pending_events == 3
    sim.run(until=2.5)
    assert (sim.pending_events, sim.events_executed) == (1, 2)
    sim.run()
    assert (sim.pending_events, sim.events_executed) == (0, 3)


def test_far_future_event_fires_after_a_near_one():
    sim = Simulator()
    fired = []
    far = 0.08  # a retry-timer distance, far beyond the sub-µs near event
    sim.at(far, fired.append, far)
    sim.at(1e-6, fired.append, 1e-6)
    _drain(sim)
    assert fired == [1e-6, far]


def test_push_during_drain_keeps_total_order():
    sim = Simulator()
    fired = []
    sim.at(1e-7, fired.append, 1e-7)  # seq 0
    sim.at(4e-7, fired.append, 4e-7)  # seq 1
    sim.run(max_events=1)
    assert fired == [1e-7]
    # A push that lands between the fired entry and the pending one must
    # still fire in (time, seq) position.
    sim.at(2e-7, fired.append, 2e-7)  # seq 2, between the two above
    assert sim._queue.peek_time() == 2e-7
    _drain(sim)
    assert fired == [1e-7, 2e-7, 4e-7]


def test_order_matches_sorted_reference_on_random_schedules():
    # Firing must follow the exact (time, seq) total order for any mix of
    # delays, entry points, reserved seqs queued late, and pushes between
    # single steps. The oracle is a sorted list of the queued keys, not a
    # heap: it must not be the implementation.
    delays = [0.0, 1e-7, 5e-7, 3e-6, 5e-5, 2e-3, 0.04, 0.2, 5.0]
    for seed in range(10):
        rng = random.Random(seed)
        sim = Simulator()
        reference = []  # (time, seq) of the queued entries
        held = []  # reserved seqs not queued yet
        fired = []
        expected = []
        next_seq = 0  # every draw is made here, so the test can count them

        def push(seq=None):
            nonlocal next_seq
            delay = rng.choice(delays)
            t = sim.now + delay
            if seq is not None:
                sim.post_reserved(t, seq, fired.append, (t, seq))
            else:
                seq = next_seq
                next_seq += 1
                if rng.random() < 0.5:
                    sim.schedule(delay, fired.append, (t, seq))
                else:
                    sim.at(t, fired.append, (t, seq))
            reference.append((t, seq))

        def step():
            sim.run(max_events=1)
            reference.sort()
            expected.append(reference.pop(0))
            assert sim.now == expected[-1][0]

        for _ in range(400):
            action = rng.random()
            if action < 0.45 or not reference:
                push()
            elif action < 0.55:
                assert sim.reserve_seq() == next_seq
                held.append(next_seq)
                next_seq += 1
            elif action < 0.65 and held:
                push(held.pop(rng.randrange(len(held))))
            else:
                step()
            assert sim.pending_events == len(reference)
        while reference:
            step()
        assert sim.pending_events == 0
        assert fired == expected
        assert sim.events_executed == len(fired)
