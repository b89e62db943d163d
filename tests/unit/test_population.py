"""Tests for the flyweight client tier and gateway admission control."""

import random

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.check.oracles import AdmissionOracles, OracleViolation
from repro.core.admission import AdmissionController, AdmissionPolicy
from repro.obs.probe import ProbeBus
from repro.sim import Simulator
from repro.smr import KeyValueStore, RangePartitioner, Replica
from repro.workload import (
    BatchArrivalProcess,
    ClientPopulation,
    ConstantRate,
    SessionMix,
    StepRate,
    poisson,
)
from repro.workload.population import MAX_INTERVAL


# ---------------------------------------------------------------------------
# Poisson draws
# ---------------------------------------------------------------------------
def test_poisson_zero_and_negative_mean():
    rng = random.Random(1)
    assert poisson(rng, 0.0) == 0
    assert poisson(rng, -5.0) == 0


@pytest.mark.parametrize("mean", [0.5, 8.0, 200.0])
def test_poisson_matches_mean(mean):
    rng = random.Random(42)
    n = 4000
    draws = [poisson(rng, mean) for _ in range(n)]
    assert sum(draws) / n == pytest.approx(mean, rel=0.1)
    assert all(k >= 0 for k in draws)


def test_poisson_deterministic_per_seed():
    a = [poisson(random.Random(7), 5.0) for _ in range(10)]
    b = [poisson(random.Random(7), 5.0) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# BatchArrivalProcess
# ---------------------------------------------------------------------------
def test_batch_arrivals_hit_target_rate():
    sim = Simulator(seed=3)
    count = [0]
    BatchArrivalProcess(sim, lambda: count.__setitem__(0, count[0] + 1),
                        ConstantRate(2000.0)).start()
    sim.run(until=2.0)
    assert count[0] == pytest.approx(4000, rel=0.1)


def test_batch_arrivals_stop_at_and_stop():
    sim = Simulator(seed=3)
    times = []
    proc = BatchArrivalProcess(sim, lambda: times.append(sim.now),
                               ConstantRate(1000.0), stop_at=0.5)
    proc.start()
    sim.run(until=2.0)
    assert times and max(times) < 0.5
    assert proc.arrivals == len(times)


def test_batch_arrivals_sleep_through_zero_rate():
    sim = Simulator(seed=3)
    times = []
    schedule = StepRate([(1.0, 500.0)])  # silent first second
    calls = [0]
    real_rate_at = schedule.rate_at

    def counting_rate_at(t):
        calls[0] += 1
        return real_rate_at(t)

    schedule.rate_at = counting_rate_at
    proc = BatchArrivalProcess(sim, lambda: times.append(sim.now), schedule)
    proc.start()
    sim.run(until=1.5)
    assert times and min(times) >= 1.0
    # The zero-rate phase is one sleep to the announced transition, not
    # a poll every idle interval (which would be ~100 extra evaluations).
    ticks_while_live = 0.5 / MAX_INTERVAL
    assert calls[0] < ticks_while_live + 10


def test_batch_arrivals_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BatchArrivalProcess(sim, lambda: None, ConstantRate(1.0), batch_target=0.0)
    with pytest.raises(ValueError):
        BatchArrivalProcess(sim, lambda: None, ConstantRate(1.0), min_interval=0.0)


# ---------------------------------------------------------------------------
# SessionMix
# ---------------------------------------------------------------------------
def test_session_mix_validation():
    with pytest.raises(ValueError):
        SessionMix(insert_fraction=0.8, delete_fraction=0.3)
    with pytest.raises(ValueError):
        SessionMix(multi_partition_fraction=1.5)
    with pytest.raises(ValueError):
        SessionMix(zipf_s=-1.0)
    with pytest.raises(ValueError):
        SessionMix(hot_keys=0)


# ---------------------------------------------------------------------------
# AdmissionController (against a fake proposer)
# ---------------------------------------------------------------------------
class FakeProposer:
    def __init__(self, sim):
        self.sim = sim
        self.name = "fake"
        self.unacked = 0
        self.sent = []
        from repro.metrics import MetricsRegistry
        self.metrics = MetricsRegistry().child(node="fake")

        class _Node:
            name = "fake-node"

        self.node = _Node()

    def multicast(self, group_id, payload, size):
        self.sent.append((group_id, payload, size))
        self.unacked += 1


def test_admission_shed_or_delay_sequence():
    sim = Simulator()
    proposer = FakeProposer(sim)
    ctl = AdmissionController(proposer, AdmissionPolicy(max_inflight=2, max_queue=2))
    assert ctl.offer(0, "a", 1) == "admitted"
    assert ctl.offer(0, "b", 1) == "admitted"
    assert ctl.offer(0, "c", 1) == "delayed"
    assert ctl.offer(0, "d", 1) == "delayed"
    assert ctl.offer(0, "e", 1) == "shed"
    assert len(proposer.sent) == 2 and ctl.queue_depth == 2
    assert ctl.admitted.value == 2 and ctl.delayed.value == 2 and ctl.shed.value == 1
    # Acks free capacity: drain admits queued work FIFO.
    proposer.unacked = 0
    ctl.drain()
    assert [p for _, p, _ in proposer.sent] == ["a", "b", "c", "d"]
    assert ctl.queue_depth == 0 and ctl.intake_depth.value == 0


def test_admission_fifo_no_overtaking():
    sim = Simulator()
    proposer = FakeProposer(sim)
    ctl = AdmissionController(proposer, AdmissionPolicy(max_inflight=1, max_queue=8))
    ctl.offer(0, "first", 1)
    ctl.offer(0, "queued", 1)
    # Even with capacity momentarily free, a later offer may not overtake
    # the queue.
    proposer.unacked = 0
    assert ctl.offer(0, "later", 1) == "delayed"
    ctl.drain()
    # Drain admits only up to in-flight capacity (1), strictly FIFO.
    assert [p for _, p, _ in proposer.sent] == ["first", "queued"]
    proposer.unacked = 0
    ctl.drain()
    assert [p for _, p, _ in proposer.sent] == ["first", "queued", "later"]


def test_admission_policy_validation():
    with pytest.raises(ValueError):
        AdmissionPolicy(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(max_queue=-1)


# ---------------------------------------------------------------------------
# ClientPopulation end to end
# ---------------------------------------------------------------------------
def _service(seed=5, n_partitions=2):
    partitioner = RangePartitioner(n_partitions)
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=partitioner.n_groups, seed=seed))
    for p in range(n_partitions):
        Replica(mrp, partitioner, p, KeyValueStore(), name=f"replica{p}", respond=True)
    return mrp, partitioner


def test_population_completes_requests():
    mrp, partitioner = _service()
    pop = ClientPopulation(mrp, partitioner, 100_000, ConstantRate(400.0),
                           stop_at=0.5).start()
    mrp.run(until=1.5)
    assert pop.requests.value > 100
    assert pop.completions.value == pop.requests.value
    assert pop.outstanding == 0
    assert pop.abandoned.value == 0
    p50, p99 = pop.quantiles([0.5, 0.99])
    assert 0.0 < p50 <= p99 < 0.1


def test_population_mixed_ops_reach_both_partitions():
    mrp, partitioner = _service()
    mix = SessionMix(insert_fraction=0.4, delete_fraction=0.1,
                     multi_partition_fraction=0.8, zipf_s=0.9)
    pop = ClientPopulation(mrp, partitioner, 10_000, ConstantRate(500.0),
                           mix=mix, stop_at=0.4).start()
    mrp.run(until=1.5)
    assert pop.completions.value == pop.requests.value > 50
    assert pop.outstanding == 0


def test_population_single_session_skips_busy():
    mrp, partitioner = _service()
    pop = ClientPopulation(mrp, partitioner, 1, ConstantRate(2000.0),
                           stop_at=0.2).start()
    mrp.run(until=1.0)
    # One session can hold only one outstanding request; nearly all the
    # offered arrivals find it busy.
    assert pop.skipped_busy.value > 0
    assert pop.requests.value + pop.skipped_busy.value == pop.arrivals.value


def test_population_deterministic_across_runs():
    def run():
        mrp, partitioner = _service(seed=9)
        pop = ClientPopulation(mrp, partitioner, 5_000, ConstantRate(800.0),
                               stop_at=0.3, record_arrivals=True).start()
        mrp.run(until=1.0)
        return (pop.arrival_trace, pop.requests.value, pop.completions.value,
                pop.quantiles([0.5, 0.99, 0.999]))

    assert run() == run()


def test_population_retries_and_fails_over_on_outage():
    mrp, partitioner = _service()
    pop = ClientPopulation(mrp, partitioner, 5_000, ConstantRate(300.0),
                           request_timeout=0.1, stop_at=0.6).start()
    # Kill the primary gateway mid-run; sessions must retry and fail over
    # to the spare, and every request must still complete.
    mrp.sim.at(0.2, pop.primary.crash)
    mrp.run(until=2.0)
    assert pop.timeouts.value > 0
    assert pop.failovers.value > 0
    assert pop.abandoned.value == 0
    assert pop.completions.value == pop.requests.value


def test_population_abandons_after_retry_budget():
    mrp, partitioner = _service()
    pop = ClientPopulation(mrp, partitioner, 1_000, ConstantRate(200.0),
                           request_timeout=0.05, max_retries=2, stop_at=0.3).start()
    # No coordinator means no decisions at all: every request burns its
    # full retry budget and is abandoned, leaving no pending state.
    mrp.crash_coordinator(0)
    mrp.crash_coordinator(1)
    mrp.crash_coordinator(2)
    mrp.run(until=2.0)
    assert pop.completions.value == 0
    assert pop.abandoned.value == pop.requests.value > 0
    assert pop.outstanding == 0


def test_population_admission_sheds_under_pressure():
    mrp, partitioner = _service()
    pop = ClientPopulation(
        mrp, partitioner, 5_000, ConstantRate(1500.0),
        request_timeout=0.1, stop_at=0.4,
        admission=AdmissionPolicy(max_inflight=4, max_queue=4),
    ).start()
    mrp.sim.at(0.1, lambda: mrp.crash_coordinator(0))
    mrp.sim.at(0.3, lambda: mrp.restart_coordinator(0))
    mrp.run(until=2.0)
    assert pop.shed_submissions.value > 0
    assert pop.primary.admission.shed.value + pop.primary.admission.delayed.value > 0
    for gateway in (pop.primary, pop.spare):
        assert gateway.admission.queue_depth <= 4


def test_population_validation():
    mrp, partitioner = _service()
    with pytest.raises(ValueError):
        ClientPopulation(mrp, partitioner, 0, ConstantRate(1.0))
    with pytest.raises(ValueError):
        ClientPopulation(mrp, partitioner, 1, ConstantRate(1.0), request_timeout=0.0)
    with pytest.raises(ValueError):
        ClientPopulation(mrp, partitioner, 1, ConstantRate(1.0), failover_after=0)


# ---------------------------------------------------------------------------
# AdmissionOracles
# ---------------------------------------------------------------------------
def _emit(bus, kind, **data):
    bus.emit(kind, 0.0, "test", **data)


def test_admission_oracle_accepts_legal_sequences():
    bus = ProbeBus()
    oracle = AdmissionOracles().subscribe(bus)
    _emit(bus, "admission.delay", req_id=1, client="c", depth=1, bound=2, node="n")
    _emit(bus, "admission.shed", req_id=2, client="c", depth=2, bound=2, node="n")
    _emit(bus, "population.complete", req_id=1, session=0, op="insert")
    # Re-shedding a *different*, uncompleted request is fine.
    _emit(bus, "admission.shed", req_id=3, client="c", depth=2, bound=2, node="n")
    assert oracle.events_checked == 4


def test_admission_oracle_rejects_overflow_and_slack():
    bus = ProbeBus()
    AdmissionOracles().subscribe(bus)
    with pytest.raises(OracleViolation, match="exceeds its bound"):
        _emit(bus, "admission.delay", req_id=1, client="c", depth=3, bound=2, node="n")
    bus2 = ProbeBus()
    AdmissionOracles().subscribe(bus2)
    with pytest.raises(OracleViolation, match="intake slack"):
        _emit(bus2, "admission.shed", req_id=1, client="c", depth=0, bound=2, node="n")


def test_admission_oracle_rejects_shedding_acked_request():
    bus = ProbeBus()
    AdmissionOracles().subscribe(bus)
    _emit(bus, "population.complete", req_id=7, session=3, op="query")
    with pytest.raises(OracleViolation, match="already acknowledged"):
        _emit(bus, "admission.shed", req_id=7, client="c", depth=2, bound=2, node="n")


def test_admission_oracle_passes_live_overload_run():
    mrp, partitioner = _service(seed=11)
    oracle = AdmissionOracles().attach(mrp.sim)
    pop = ClientPopulation(
        mrp, partitioner, 2_000, ConstantRate(1200.0),
        request_timeout=0.1, stop_at=0.3,
        admission=AdmissionPolicy(max_inflight=8, max_queue=8),
    ).start()
    mrp.sim.at(0.05, lambda: mrp.crash_coordinator(0))
    mrp.sim.at(0.25, lambda: mrp.restart_coordinator(0))
    mrp.run(until=1.5)
    assert pop.shed_submissions.value > 0
    assert oracle.events_checked > 0
