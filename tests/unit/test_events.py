"""Unit tests for the event queue primitives."""

from repro.sim.events import EventQueue


def test_push_and_pop_in_time_order():
    q = EventQueue()
    fired = []
    q.push(2.0, fired.append, ("b",))
    q.push(1.0, fired.append, ("a",))
    q.push(3.0, fired.append, ("c",))
    while (e := q.pop()) is not None:
        e.fire()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    q = EventQueue()
    fired = []
    for label in "abcde":
        q.push(1.0, fired.append, (label,))
    while (e := q.pop()) is not None:
        e.fire()
    assert fired == list("abcde")


def test_len_counts_live_events_only():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    q.cancel(e1)
    assert len(q) == 1


def test_cancel_is_idempotent():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.cancel(e)
    q.cancel(e)
    assert len(q) == 0
    assert q.pop() is None


def test_cancelled_events_are_skipped_by_pop():
    q = EventQueue()
    fired = []
    e1 = q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    q.cancel(e1)
    e = q.pop()
    e.fire()
    assert fired == ["b"]


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    assert q.peek_time() == 1.0
    q.cancel(e1)
    assert q.peek_time() == 5.0


def test_empty_queue_behaviour():
    q = EventQueue()
    assert not q
    assert q.pop() is None
    assert q.peek_time() is None


def test_queue_orders_by_time_then_seq():
    q = EventQueue()
    q.push(1.0, lambda: None)   # seq 0
    q.push(1.0, lambda: None)   # seq 1
    q.push(0.5, lambda: None)   # seq 2
    popped = [q.pop() for _ in range(3)]
    assert [(e.time, e.seq) for e in popped] == [(0.5, 2), (1.0, 0), (1.0, 1)]


def test_cancel_after_fire_is_noop():
    # Regression: cancelling an event that already fired used to decrement
    # the live count a second time, driving len() negative.
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped is e1
    assert len(q) == 1
    q.cancel(e1)
    assert len(q) == 1
    q.cancel(e1)  # and cancelling twice is still a no-op
    assert len(q) == 1
    assert q.pop() is not None
    assert len(q) == 0


def test_cancel_twice_before_fire_decrements_once():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(e)
    q.cancel(e)
    assert len(q) == 1


def test_pop_marks_event_consumed():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    assert not e.consumed
    assert q.pop() is e
    assert e.consumed


def test_simulator_cancel_after_fire_keeps_pending_count_sane():
    from repro.sim import Simulator

    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.run(until=2.0)
    assert fired == ["a"]
    sim.cancel(event)  # late cancel, e.g. a retry timer of a decided instance
    assert sim.pending_events == 0
    sim.schedule(0.5, fired.append, "b")
    assert sim.pending_events == 1
    sim.run(until=5.0)
    assert fired == ["a", "b"]
    assert sim.pending_events == 0


# ---------------------------------------------------------------------------
# Queue mechanics: peeks, lazy cancellation accounting, pushes mid-drain
# ---------------------------------------------------------------------------
def test_peek_is_a_pure_read():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    entry = q.peek_entry()
    assert entry[0] == 1.0
    # Repeated peeks return the same entry without consuming it.
    assert q.peek_entry() is entry
    assert len(q) == 2
    assert q.pop_entry() is entry  # pop consumes exactly what peek saw
    assert len(q) == 1


def test_cancelled_entries_are_skipped_with_exact_accounting():
    q = EventQueue()
    fired = []
    keep_a = q.push(1e-6, fired.append, ("a",))
    doomed = q.push(1e-6, fired.append, ("x",))
    keep_b = q.push(1e-6, fired.append, ("b",))
    q.cancel(doomed)
    assert len(q) == 2
    # peek scans past the cancelled middle entry without consuming it...
    assert q.peek_entry()[4] is keep_a
    assert len(q) == 2
    # ...and pops drop it exactly once, leaving the live count exact.
    assert q.pop_entry()[4] is keep_a
    assert q.pop_entry()[4] is keep_b
    assert len(q) == 0
    assert q._cancelled == 0
    assert fired == []


def test_cancelled_head_is_flushed_by_peek():
    q = EventQueue()
    doomed = q.push(1e-6, lambda: None)
    live = q.push(1.0, lambda: None)
    q.cancel(doomed)
    entry = q.peek_entry()
    assert entry[4] is live
    # The tombstone was discarded on the way to the live entry, so the
    # debt counter is settled rather than left to offset a buried entry.
    assert q._cancelled == 0
    assert len(q) == 1


def test_post_at_allocates_no_event():
    from repro.sim import Simulator

    sim = Simulator()
    sim.post_at(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    q = sim._queue
    assert q.peek_entry()[4] is None  # no Event handle on the fast path
    assert q.pop_entry()[4] is None
    assert q.pop_entry()[4] is None


def test_far_future_event_pops_after_a_near_one():
    q = EventQueue()
    far = 0.08  # a retry-timer distance, far beyond the sub-µs near event
    q.push(far, lambda: None)
    q.push(1e-6, lambda: None)
    assert q.pop_entry()[0] == 1e-6
    assert q.pop_entry()[0] == far
    assert q.pop_entry() is None


def test_push_during_drain_keeps_total_order():
    q = EventQueue()
    q.push(1e-7, lambda: None)  # seq 0
    q.push(4e-7, lambda: None)  # seq 1
    first = q.pop_entry()
    assert first[0] == 1e-7
    # A push that lands between the popped entry and the pending one
    # must still fire in (time, seq) position.
    q.push(2e-7, lambda: None)  # seq 2, between the two above
    assert q.peek_entry()[0] == 2e-7
    assert [q.pop_entry()[0] for _ in range(2)] == [2e-7, 4e-7]
    assert q.pop_entry() is None


def test_order_matches_sorted_reference_on_random_schedules():
    # Delivery must be the exact (time, seq) total order for any mix of
    # delays, cancels, and interleaved pops. The oracle is a sorted list
    # of the live keys, not a heap: it must not be the implementation.
    import random

    delays = [0.0, 1e-7, 5e-7, 3e-6, 5e-5, 2e-3, 0.04, 0.2, 5.0]
    for seed in range(10):
        rng = random.Random(seed)
        q = EventQueue()
        reference = []  # (time, seq) of the live entries
        now = 0.0
        popped = []
        expected = []
        cancellable = []

        def expect_next():
            reference.sort()
            expected.append(reference.pop(0))

        for _ in range(400):
            action = rng.random()
            if action < 0.55 or not reference:
                t = now + rng.choice(delays)
                event = q.push(t, lambda: None)
                reference.append((t, event.seq))
                if rng.random() < 0.3:
                    cancellable.append(event)
            elif action < 0.7 and cancellable:
                victim = cancellable.pop(rng.randrange(len(cancellable)))
                q.cancel(victim)
                if not victim.consumed:
                    reference.remove((victim.time, victim.seq))
            else:
                entry = q.pop_entry()
                assert entry is not None
                popped.append((entry[0], entry[1]))
                expect_next()
                now = entry[0]
        while (entry := q.pop_entry()) is not None:
            popped.append((entry[0], entry[1]))
            expect_next()
        assert not reference
        assert popped == expected
        assert popped == sorted(popped)
