"""Unit tests for the batched completion strips (sim/completion.py)."""

from repro.sim import FifoServer, Simulator
from repro.sim.completion import CompletionStrip


def test_burst_rides_one_kernel_event():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    finishes = [srv.submit(1.0, fired.append, i) for i in range(5)]
    # Five queued completions occupy one queue entry (the armed head).
    assert sim.pending_events == 1
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == finishes[-1]
    # Swept riders still count as executed events.
    assert sim.events_executed == 5


def test_budget_counts_dispatches_not_riders():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    for i in range(4):
        srv.submit(1.0, fired.append, i)
    # One kernel dispatch sweeps the whole burst, so a budget of one
    # dispatch completes all four (documented max_events semantics).
    sim.run(max_events=1)
    assert fired == [0, 1, 2, 3]
    assert sim.events_executed == 4


def test_until_gates_the_sweep():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    for i in range(4):
        srv.submit(1.0, fired.append, i)  # completes at t = 1, 2, 3, 4
    sim.run(until=2.5)
    assert fired == [0, 1]
    assert sim.now == 2.5
    assert sim.pending_events == 1  # strip re-armed for the t=3 completion
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_kernel_event_interleaves_in_time_order():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    order = []
    for i in range(3):  # completes at t = 1, 2, 3
        srv.submit(1.0, lambda i=i: order.append(("done", i)))
    sim.post(2.5, lambda: order.append(("timer", sim.now)))
    sim.run()
    # The sweep yields to the timer between the t=2 and t=3 completions.
    assert order == [("done", 0), ("done", 1), ("timer", 2.5), ("done", 2)]


def test_step_fires_one_completion_at_a_time():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    for i in range(3):
        srv.submit(1.0, fired.append, i)
    assert sim.step()
    assert fired == [0]  # no sweeping outside run(): head re-armed
    assert sim.now == 1.0
    assert sim.step()
    assert fired == [0, 1]
    assert sim.step()
    assert fired == [0, 1, 2]
    assert not sim.step()


def test_out_of_order_completion_bypasses_the_strip():
    sim = Simulator()
    strip = CompletionStrip(sim)
    fired = []
    strip.post_at(1.0, fired.append, "submitted-first")
    strip.post_at(0.5, fired.append, "early")  # behind the tail: bypasses
    assert len(strip) == 1  # only the in-order entry joined the FIFO
    assert sim.pending_events == 2  # armed head + the bypassed plain event
    sim.run()
    assert fired == ["early", "submitted-first"]


def test_resubmission_from_completion_callback():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []

    def chain(n):
        fired.append((n, sim.now))
        if n:
            srv.submit(1.0, chain, n - 1)

    srv.submit(1.0, chain, 3)
    sim.run()
    assert fired == [(3, 1.0), (2, 2.0), (1, 3.0), (0, 4.0)]
    assert sim.events_executed == 4
