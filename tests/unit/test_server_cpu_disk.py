"""Unit tests for the FIFO server, CPU, and disk resource models."""

import tracemalloc

import pytest

from repro.errors import ConfigurationError, NetworkError, SimulationError
from repro.sim import (
    Cpu,
    Disk,
    FifoServer,
    Network,
    Node,
    PeriodicTimer,
    Simulator,
    Topology,
    WanLink,
)


# ---------------------------------------------------------------------------
# FifoServer
# ---------------------------------------------------------------------------
def test_fifo_single_job_finish_time():
    sim = Simulator()
    srv = FifoServer(sim, rate=10.0)
    finish = srv.submit(5.0)
    assert finish == pytest.approx(0.5)


def test_fifo_jobs_queue_behind_each_other():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    f1 = srv.submit(1.0)
    f2 = srv.submit(2.0)
    assert f1 == pytest.approx(1.0)
    assert f2 == pytest.approx(3.0)


def test_fifo_idle_gap_resets_start():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    srv.submit(1.0)
    sim.run(until=5.0)
    finish = srv.submit(1.0)
    assert finish == pytest.approx(6.0)


def test_fifo_callback_scheduled_at_finish():
    sim = Simulator()
    srv = FifoServer(sim, rate=2.0)
    done = []
    srv.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_fifo_backlog_time():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    srv.submit(3.0)
    assert srv.backlog_time == pytest.approx(3.0)
    sim.run(until=2.0)
    assert srv.backlog_time == pytest.approx(1.0)
    sim.run(until=10.0)
    assert srv.backlog_time == 0.0


def test_fifo_busy_time_is_the_busy_seconds_so_far():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    srv.submit(1.0)  # busy [0, 1]
    assert srv.busy_time() == 0.0  # accepted, not yet served
    readings = {}
    for t in (0.5, 1.0, 1.5, 2.25, 3.0):
        sim.at(t, lambda t=t: readings.__setitem__(t, srv.busy_time()))
    sim.at(2.0, srv.submit, 0.5)  # busy [2, 2.5]
    sim.run(until=3.0)
    assert readings == pytest.approx({0.5: 0.5, 1.0: 1.0, 1.5: 1.0, 2.25: 1.25, 3.0: 1.5})
    # A window is two readings.
    assert readings[2.25] - readings[0.5] == pytest.approx(0.75)
    assert readings[1.5] - readings[1.0] == 0.0


def test_fifo_busy_time_excludes_a_deep_backlog():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    for _ in range(100):
        srv.submit(0.5)  # 50 s of work accepted at t = 0
    sim.run(until=2.0)
    assert srv.total_busy_time == pytest.approx(50.0)
    assert srv.busy_time() == pytest.approx(2.0)
    srv.rate = 4.0  # a fault schedule slows or speeds a drain mid-run
    srv.submit(4.0)  # one more second, behind the backlog
    sim.run(until=60.0)
    assert srv.busy_time() == srv.total_busy_time == pytest.approx(51.0)


def test_an_unobserved_server_retains_nothing_per_submission():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)

    def load(jobs):
        for _ in range(jobs):
            sim.run(until=sim.now + 2e-4)  # idle before every job: no two share an interval
            srv.submit(5e-5)

    load(100)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        load(50_000)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A per-server interval history grew by megabytes here.
    assert after - before < 4096
    assert srv.jobs_served == 50_100
    assert srv.busy_time() == pytest.approx(50_099 * 5e-5)  # the last job has just begun


@pytest.mark.parametrize("rate", [1.0, 3.0, 1e9 / 8])
def test_int_and_float_demands_finish_at_the_same_times(rate):
    # Network and Disk pass byte counts straight through, without float().
    sim = Simulator()
    as_int, as_float = FifoServer(sim, rate=rate), FifoServer(sim, rate=rate)
    for size in (0, 1, 7, 64, 1500, 8192, 2**31 + 1):
        assert as_int.submit(size) == as_float.submit(float(size))
    assert as_int.total_busy_time == as_float.total_busy_time
    assert as_int.demand_served == as_float.demand_served
    ints, floats = (Disk(sim, bandwidth=rate, buffer_bytes=100) for _ in range(2))
    for size in (10, 333, 8192):
        assert ints.write(size) == floats.write(float(size))


def test_fifo_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoServer(sim, rate=0.0)
    srv = FifoServer(sim, rate=1.0)
    with pytest.raises(ValueError):
        srv.submit(-1.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda sim: FifoServer(sim, rate=NAN), ValueError),
        (lambda sim: Cpu(sim, capacity=NAN), ValueError),
        (lambda sim: Disk(sim, bandwidth=NAN), ValueError),
        (lambda sim: Disk(sim, bandwidth=1000.0, buffer_bytes=NAN), ValueError),
        (lambda sim: Disk(sim, bandwidth=1000.0, write_latency=NAN), ValueError),
        (lambda sim: Disk(sim, bandwidth=1000.0, write_latency=-1e-6), ValueError),
        (lambda sim: Network(sim, propagation_delay=NAN), NetworkError),
        (lambda sim: Network(sim, propagation_delay=-1e-6), NetworkError),
        (lambda sim: Network(sim, bandwidth=NAN), NetworkError),
        (lambda sim: Network(sim, bandwidth=0.0), NetworkError),
        (lambda sim: WanLink(NAN), ConfigurationError),
        (lambda sim: WanLink(0.05, bandwidth=NAN), ConfigurationError),
        (lambda sim: WanLink(0.05, jitter=NAN), ConfigurationError),
        (lambda sim: Topology(["a", "b"], wan_latency=NAN), ConfigurationError),
        (lambda sim: Topology(["a"], switch_delay=NAN), ConfigurationError),
        (lambda sim: PeriodicTimer(sim, NAN, lambda: None), ValueError),
    ],
)
def test_nan_capacity_or_delay_is_rejected_at_construction(build, error):
    # A NaN rate used to pass `rate <= 0`; the first submit then pushed a
    # NaN-timed heap entry that fired and left sim.now == nan.
    sim = Simulator()
    with pytest.raises(error):
        build(sim)
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0.0


def test_add_node_with_a_bad_bandwidth_registers_nothing():
    sim = Simulator()
    net = Network(sim)
    node = Node(sim, "n")
    with pytest.raises(ValueError):
        net.add_node(node, bandwidth=NAN)
    assert not net.nodes and not net.nics
    net.add_node(node)  # not a duplicate: the failed attempt left no trace


def test_fifo_nan_demand_is_rejected_and_leaves_the_server_untouched():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    srv.submit(1.0)
    fired = []
    with pytest.raises(ValueError):
        srv.submit(float("nan"), fired.append, "nan job")
    assert srv.busy_until == 1.0
    assert srv.total_busy_time == 1.0
    assert srv.jobs_served == 1
    assert srv.demand_served == 1.0
    assert srv.busy_time() == 0.0 and srv.backlog_time == 1.0
    assert sim.pending_events == 0
    sim.run()
    assert fired == [] and sim.now == 0.0


def test_fifo_counters():
    sim = Simulator()
    srv = FifoServer(sim, rate=2.0)
    srv.submit(1.0)
    srv.submit(3.0)
    assert srv.jobs_served == 2
    assert srv.demand_served == pytest.approx(4.0)
    assert srv.total_busy_time == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Cpu
# ---------------------------------------------------------------------------
def test_cpu_execute_charges_and_runs():
    sim = Simulator()
    cpu = Cpu(sim, capacity=1.0)
    ran = []
    cpu.execute(0.010, ran.append, "job")
    sim.run()
    assert ran == ["job"]
    assert sim.now == pytest.approx(0.010)


def test_cpu_saturation_queues_work():
    sim = Simulator()
    cpu = Cpu(sim, capacity=1.0)
    finishes = [cpu.execute(0.010, lambda: None) for _ in range(100)]
    # 100 jobs of 10 ms on a 1.0 CPU: last finishes at t=1.0.
    assert finishes[-1] == pytest.approx(1.0)
    sim.run(until=1.0)
    assert cpu.busy_time() == pytest.approx(1.0)


def test_cpu_capacity_scales_service_time():
    sim = Simulator()
    fast = Cpu(sim, capacity=2.0)
    assert fast.execute(1.0, lambda: None) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------
def test_disk_write_acks_fast_when_buffer_empty():
    sim = Simulator()
    disk = Disk(sim, bandwidth=50e6, write_latency=50e-6)
    ack = disk.write(8192)
    assert ack == pytest.approx(50e-6)


def test_disk_sustained_rate_bounded_by_bandwidth():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, buffer_bytes=500, write_latency=0.0)
    # Write 2000 bytes instantly; drain rate is 1000 B/s, buffer 500 B.
    # The last byte can only be admitted once 1500 bytes have drained.
    ack = 0.0
    for _ in range(4):
        ack = disk.write(500)
    assert ack == pytest.approx(1.5)


def test_disk_backlog_tracks_unflushed_bytes():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, buffer_bytes=10_000)
    disk.write(3000)
    assert disk.backlog_bytes == pytest.approx(3000)
    sim.run(until=1.0)
    assert disk.backlog_bytes == pytest.approx(2000)


def test_disk_ack_callback():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, write_latency=0.001)
    acked = []
    disk.write(100, lambda: acked.append(sim.now))
    sim.run()
    assert acked == [pytest.approx(0.001)]


def test_disk_drain_busy_time():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0)
    disk.write(500)
    sim.run(until=1.0)
    assert disk.drain.busy_time() == pytest.approx(0.5)


def test_disk_counters_and_validation():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0)
    disk.write(100)
    disk.write(200)
    assert disk.bytes_written == 300
    assert disk.writes == 2
    with pytest.raises(ValueError):
        Disk(sim, bandwidth=0.0)


def test_disk_nan_write_is_rejected_and_leaves_the_disk_untouched():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0)
    disk.write(100)
    acked = []
    for bad in (float("nan"), -1):
        with pytest.raises(SimulationError):
            disk.write(bad, acked.append, "bad write")
    assert disk.bytes_written == 100
    assert disk.writes == 1
    assert disk.drain.jobs_served == 1
    assert disk.drain.busy_until == pytest.approx(0.1)
    assert sim.pending_events == 0
    sim.run()
    assert acked == []


# ---------------------------------------------------------------------------
# Completions are ordinary kernel events
# ---------------------------------------------------------------------------
def test_completions_and_timers_interleave_in_time_then_submission_order():
    sim = Simulator()
    fast = FifoServer(sim, rate=2.0, name="fast")
    slow = FifoServer(sim, rate=1.0, name="slow")
    disk = Disk(sim, bandwidth=1000.0, write_latency=1.0)
    order = []
    slow.submit(1.0, order.append, "slow#0 t=1")
    fast.submit(1.0, order.append, "fast#0 t=0.5")
    sim.schedule(1.0, order.append, "timer t=1")  # ties with slow#0: submitted later
    fast.submit(1.0, order.append, "fast#1 t=1")  # ties too: later still
    disk.write(10, order.append, "disk ack t=1")  # and this one is last
    slow.submit(1.0, order.append, "slow#1 t=2")
    fast.submit(2.0, order.append, "fast#2 t=2")
    sim.at(0.75, order.append, "timer t=0.75")
    sim.run()
    assert order == [
        "fast#0 t=0.5", "timer t=0.75",
        "slow#0 t=1", "timer t=1", "fast#1 t=1", "disk ack t=1",
        "slow#1 t=2", "fast#2 t=2",
    ]
    assert sim.events_executed == 8


def test_every_queued_completion_is_a_pending_event():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    disk = Disk(sim, bandwidth=1000.0)
    for i in range(5):
        srv.submit(1.0, lambda: None)
    srv.submit(1.0)  # no callback: nothing to queue
    disk.write(10, lambda: None)
    disk.write(10)
    assert sim.pending_events == 6


def test_event_budget_fires_exactly_that_many_completions():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    for i in range(4):
        srv.submit(1.0, fired.append, i)
    sim.run(max_events=1)
    assert fired == [0]
    assert (sim.now, sim.events_executed, sim.pending_events) == (1.0, 1, 3)
    sim.run(max_events=2)
    assert fired == [0, 1, 2]
    assert (sim.now, sim.events_executed, sim.pending_events) == (3.0, 3, 1)


def test_run_window_stops_between_two_completions_of_one_server():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []
    for i in range(4):
        srv.submit(1.0, fired.append, i)  # completes at t = 1, 2, 3, 4
    sim.run(until=2.5)
    assert fired == [0, 1]
    assert sim.now == 2.5
    assert sim.pending_events == 2
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_completion_callback_resubmitting_to_its_own_server_keeps_fifo():
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    fired = []

    def chain(n):
        fired.append((f"chain{n}", sim.now))
        if n:
            srv.submit(1.0, chain, n - 1)

    srv.submit(1.0, chain, 2)
    srv.submit(1.0, lambda: fired.append(("queued behind", sim.now)))
    sim.run()
    # Each resubmission joins the back of the queue: behind the job that
    # was already waiting, and behind its own predecessor.
    assert fired == [
        ("chain2", 1.0), ("queued behind", 2.0), ("chain1", 3.0), ("chain0", 4.0),
    ]
    assert sim.events_executed == 4
