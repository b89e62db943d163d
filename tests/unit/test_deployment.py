"""Unit tests for the MultiRingPaxos deployment facade."""

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.errors import ConfigurationError
from repro.sim import Network, Simulator


def test_default_deployment_builds_one_ring_per_group():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=3, lambda_rate=0.0))
    assert sorted(mrp.rings) == [0, 1, 2]
    for rid, handle in mrp.rings.items():
        assert handle.config.ring_id == rid
        assert handle.config.coordinator == f"mr{rid}-coord"
        assert len(handle.acceptors) == 1  # 2 acceptors: 1 + coordinator
    assert mrp.registry.group_ids() == [0, 1, 2]


def test_shared_ring_mapping():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=4, n_rings=2, lambda_rate=0.0))
    assert sorted(mrp.rings) == [0, 1]
    assert mrp.registry.ring_for(0) == 0
    assert mrp.registry.ring_for(1) == 1
    assert mrp.registry.ring_for(2) == 0
    assert mrp.registry.ring_for(3) == 1


def test_external_simulator_and_network_are_used():
    sim = Simulator(seed=77)
    net = Network(sim)
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=0.0), sim=sim, network=net)
    assert mrp.sim is sim
    assert mrp.network is net
    assert "mr0-coord" in net.nodes


def test_durable_deployment_gives_disks_to_acceptors():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, durable=True, lambda_rate=0.0))
    handle = mrp.rings[0]
    assert handle.coordinator.node.disk is not None
    assert all(a.node.disk is not None for a in handle.acceptors)


def test_spares_are_created_but_idle():
    mrp = MultiRingPaxos(
        MultiRingConfig(n_groups=1, lambda_rate=0.0, spares_per_ring=2)
    )
    handle = mrp.rings[0]
    assert [n.name for n in handle.spares] == ["mr0-spare0", "mr0-spare1"]
    assert handle.failover is None  # auto_failover off by default
    # Spares are attached to the network but run no protocol role.
    assert "mr0-spare0" in mrp.network.nodes


def test_auto_failover_requires_surviving_acceptor():
    with pytest.raises(ConfigurationError):
        MultiRingConfig(acceptors_per_ring=1, auto_failover=True)


def test_participant_naming_is_stable():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=0.0))
    l1 = mrp.add_learner(groups=[0])
    l2 = mrp.add_learner(groups=[0])
    p1 = mrp.add_proposer()
    assert l1.node.name == "mr-lrn0"
    assert l2.node.name == "mr-lrn1"
    assert p1.node.name == "mr-prop0"
    assert mrp.learners == [l1, l2]
    assert mrp.proposers == [p1]


def test_suspect_timeout_threads_down_to_rings_and_failover():
    mrp = MultiRingPaxos(
        MultiRingConfig(
            n_groups=1,
            lambda_rate=0.0,
            suspect_timeout=0.25,
            spares_per_ring=1,
            auto_failover=True,
        )
    )
    handle = mrp.rings[0]
    assert handle.config.suspect_timeout == 0.25
    assert handle.failover is not None
    assert handle.failover.config.suspect_timeout == 0.25
    # The failure detectors run on the ring's own timeout.
    assert all(a._watch_timer.delay == 0.25 for a in handle.acceptors)


def test_suspect_timeout_must_exceed_heartbeat_interval():
    from repro.ringpaxos import RingConfig

    with pytest.raises(ConfigurationError):
        RingConfig(ring_id=0, acceptors=["a"], suspect_timeout=0.01)
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=1, suspect_timeout=0.0)


def test_coordinator_cpu_is_read_off_its_node():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=2000.0))
    prop = mrp.add_proposer()
    for i in range(20):
        prop.multicast(0, i, 8192)
    mrp.run(until=1.0)
    assert 0.0 < mrp.rings[0].coordinator.node.cpu.busy_time() / 1.0 <= 1.0


def test_run_advances_to_absolute_time():
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=0.0))
    mrp.run(until=1.5)
    assert mrp.sim.now == 1.5
    mrp.run(until=3.0)
    assert mrp.sim.now == 3.0
