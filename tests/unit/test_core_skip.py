"""Unit tests for the coordinator's rate monitor / skip proposer."""

import pytest

from repro.core import SkipManager
from repro.ringpaxos import RingConfig, RingCoordinator, RingProposer
from repro.sim import Network, Node, Simulator


def make_ring(lambda_rate, delta=1e-3, sim=None):
    sim = sim or Simulator(seed=2)
    net = Network(sim)
    node = net.add_node(Node(sim, "coord"))
    config = RingConfig(ring_id=0, acceptors=["coord"])
    coord = RingCoordinator(sim, net, node, config)
    mgr = SkipManager(sim, coord, lambda_rate=lambda_rate, delta=delta)
    return sim, coord, mgr


def add_proposer(sim, coord):
    """A client of ``coord``'s ring on a node of its own."""
    node = coord.network.add_node(Node(sim, "prop"))
    return RingProposer(sim, coord.network, node, coord.config)


def test_idle_ring_is_topped_up_to_lambda():
    sim, coord, mgr = make_ring(lambda_rate=1000.0)
    sim.run(until=1.0)
    # ~1000 instances/s of pure skips, give or take rounding.
    assert 900 <= coord.planned_instance <= 1100
    assert mgr.skips_proposed.value == pytest.approx(coord.planned_instance, abs=50)


@pytest.mark.parametrize("lambda_rate", [300.0, 400.0, 600.0, 1400.0, 2500.0])
def test_idle_ring_skips_at_lambda_when_lambda_delta_is_fractional(lambda_rate):
    """λΔ = 0.3 ... 2.5: each tick proposes the whole skips due and carries
    the fraction, so an idle ring runs at λ, not at a step function of λΔ
    (rounding each interval alone gave 0, 0, 999, 999 and 2 985)."""
    sim, coord, mgr = make_ring(lambda_rate=lambda_rate, delta=1e-3)
    sim.run(until=1.0)
    assert abs(mgr.skips_proposed.value - lambda_rate) <= 2


def test_busy_ring_gets_no_skips():
    sim, coord, mgr = make_ring(lambda_rate=100.0, delta=10e-3)
    # Feed data faster than lambda: 200 instances/s.
    from repro.calibration import DEFAULT_VALUE_SIZE

    prop = add_proposer(sim, coord)
    n = 0

    def feed():
        nonlocal n
        prop.multicast(n, DEFAULT_VALUE_SIZE)
        n += 1
        if sim.now < 1.0:
            sim.schedule(0.005, feed)

    feed()
    sim.run(until=1.0)
    # While data flows above lambda, no skips are needed (the boundary
    # interval may contribute a couple due to tick/submission alignment).
    assert mgr.skips_proposed.value <= 2


def test_partial_load_filled_to_lambda():
    sim, coord, mgr = make_ring(lambda_rate=1000.0, delta=10e-3)
    from repro.calibration import DEFAULT_VALUE_SIZE

    prop = add_proposer(sim, coord)
    n = 0

    def feed():
        nonlocal n
        prop.multicast(n, DEFAULT_VALUE_SIZE)
        n += 1
        if sim.now < 1.0:
            sim.schedule(0.002, feed)  # 500 data instances/s

    feed()
    sim.run(until=1.05)
    # Data + skips together land at about lambda.
    assert 950 <= coord.planned_instance <= 1100
    assert 400 <= mgr.skips_proposed.value <= 600


def test_lambda_zero_never_ticks():
    sim, coord, mgr = make_ring(lambda_rate=0.0)
    sim.run(until=1.0)
    assert mgr.skips_proposed.value == 0
    assert mgr.intervals_sampled.value == 0


def test_skip_batching_one_execution_per_interval():
    sim, coord, mgr = make_ring(lambda_rate=5000.0, delta=1e-3)
    sim.run(until=0.5)
    # Each interval's skips go out as a single batch: batches ~= intervals,
    # and each batch carries the full interval's worth (~5 skips here).
    assert mgr.skip_batches.value <= mgr.intervals_sampled.value
    assert mgr.skips_proposed.value >= 4 * mgr.skip_batches.value


def test_outage_is_covered_by_first_tick_after_restart():
    sim, coord, mgr = make_ring(lambda_rate=1000.0, delta=1e-3)
    sim.run(until=0.5)
    k_before = coord.planned_instance
    coord.crash()
    sim.run(until=1.5)  # one second outage: ticks no-op
    assert coord.planned_instance == k_before
    coord.restart()
    sim.run(until=1.6)
    # The catch-up must cover the whole outage: ~1000 missed instances.
    assert coord.planned_instance >= k_before + 1000


def test_mu_reflects_observed_data_rate():
    sim, coord, mgr = make_ring(lambda_rate=100.0, delta=100e-3)
    from repro.calibration import DEFAULT_VALUE_SIZE

    prop = add_proposer(sim, coord)
    n = 0

    def feed():
        nonlocal n
        prop.multicast(n, DEFAULT_VALUE_SIZE)
        n += 1
        if sim.now < 1.0:
            sim.schedule(0.005, feed)  # 200 data instances/s > lambda

    feed()
    sim.run(until=1.0)
    assert mgr.mu_gauge.value == pytest.approx(200.0, rel=0.2)


def test_mu_is_zero_on_idle_ring():
    """Algorithm 1 line 19: prev_k includes the skips just proposed, so a
    ring kept alive purely by skips reports mu ~ 0 next interval."""
    sim, coord, mgr = make_ring(lambda_rate=1000.0, delta=100e-3)
    sim.run(until=1.0)
    assert mgr.mu_gauge.value == pytest.approx(0.0, abs=20.0)


def test_manager_restart_does_not_double_schedule_ticks():
    """Crash/restart churn (including redundant restarts, as the fuzz
    heal epilogue issues) must leave exactly one periodic tick armed:
    the sampled-interval count stays ~elapsed/delta, never 2x."""
    sim, coord, mgr = make_ring(lambda_rate=1000.0, delta=1e-3)
    sim.run(until=0.5)
    mgr.crash()
    sim.run(until=0.7)
    mgr.restart()
    mgr.restart()  # idempotent: a second restart must not re-arm a copy
    sim.run(until=0.8)
    coord.crash()
    coord.restart()  # coordinator churn must not touch the manager's timer
    base = mgr.intervals_sampled.value
    sim.run(until=1.8)
    ticks = mgr.intervals_sampled.value - base
    assert 950 <= ticks <= 1050


def test_manager_restart_does_not_skew_mu_or_double_count_skips():
    """The first post-restart tick covers the whole outage once: the
    backlog of skips is proposed exactly once (planned ~ lambda * uptime
    semantics of Figure 12), and mu settles back to ~0 on an idle ring
    rather than inheriting a stale-window estimate."""
    sim, coord, mgr = make_ring(lambda_rate=1000.0, delta=1e-3)
    sim.run(until=0.5)
    mgr.crash()
    sim.run(until=1.0)  # manager down; coordinator idle, no skips
    k_during_outage = coord.planned_instance
    mgr.restart()
    sim.run(until=1.5)
    # Outage backlog (~500 instances) made up once, not twice.
    assert coord.planned_instance >= k_during_outage + 450
    assert 1400 <= coord.planned_instance <= 1600
    # Steady state again: the ring is pure skips, so observed mu ~ 0.
    assert mgr.mu_gauge.value == pytest.approx(0.0, abs=50.0)


def test_validation():
    sim = Simulator()
    net = Network(sim)
    node = net.add_node(Node(sim, "coord"))
    coord = RingCoordinator(sim, net, node, RingConfig(ring_id=0, acceptors=["coord"]))
    with pytest.raises(ValueError):
        SkipManager(sim, coord, lambda_rate=-1.0, delta=1e-3)
    with pytest.raises(ValueError):
        SkipManager(sim, coord, lambda_rate=1.0, delta=0.0)
