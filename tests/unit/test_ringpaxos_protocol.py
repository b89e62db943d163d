"""Protocol-level tests for Ring Paxos: ordering, durability, recovery."""


from repro.calibration import DEFAULT_VALUE_SIZE
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator, UniformLoss


def deploy(seed=5, loss=None, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, loss=loss)
    ring = build_ring(sim, net, **kwargs)
    return sim, net, ring


def pump(ring, n, size=DEFAULT_VALUE_SIZE):
    """Multicast n values through the ring's first proposer."""
    prop = ring.proposers[0]
    return [prop.multicast(f"m{i}", size) for i in range(n)]


def delivered_payloads(learner_log):
    return [v.payload for _, v in learner_log]


def attach_log(ring):
    logs = []
    for learner in ring.learners:
        log = []
        learner.on_deliver = lambda inst, v, log=log: log.append((inst, v))
        logs.append(log)
    return logs


def test_single_value_is_delivered():
    sim, net, ring = deploy()
    (log,) = attach_log(ring)
    pump(ring, 1)
    sim.run(until=0.5)
    assert delivered_payloads(log) == ["m0"]


def test_values_delivered_in_submission_order():
    sim, net, ring = deploy()
    (log,) = attach_log(ring)
    pump(ring, 100)
    sim.run(until=2.0)
    assert delivered_payloads(log) == [f"m{i}" for i in range(100)]


def test_total_order_across_learners():
    sim, net, ring = deploy(n_learners=3)
    logs = attach_log(ring)
    pump(ring, 50)
    sim.run(until=2.0)
    assert delivered_payloads(logs[0]) == delivered_payloads(logs[1]) == delivered_payloads(logs[2])
    assert len(logs[0]) == 50


def test_small_values_are_batched():
    sim, net, ring = deploy()
    (log,) = attach_log(ring)
    pump(ring, 16, size=1024)  # 16 KB total -> should take ~2 instances
    sim.run(until=2.0)
    assert len(log) == 16
    assert ring.coordinator.instances_decided.value <= 4


def test_three_acceptor_ring():
    sim, net, ring = deploy(n_acceptors=3)
    (log,) = attach_log(ring)
    pump(ring, 20)
    sim.run(until=2.0)
    assert len(log) == 20
    # The middle acceptor forwarded 2Bs it received from the first.
    assert ring.acceptors[1].forwards.value == ring.coordinator.instances_decided.value


def test_durable_mode_writes_every_acceptor_disk():
    sim, net, ring = deploy(durable=True)
    (log,) = attach_log(ring)
    pump(ring, 10)
    sim.run(until=2.0)
    assert len(log) == 10
    for acc in ring.acceptors:
        assert acc.node.disk.bytes_written >= 10 * DEFAULT_VALUE_SIZE
    coord_node = ring.coordinator.node
    assert coord_node.disk.bytes_written >= 10 * DEFAULT_VALUE_SIZE


def test_durable_latency_exceeds_inmemory():
    lat = {}
    for durable in (False, True):
        sim, net, ring = deploy(durable=durable)
        pump(ring, 20)
        sim.run(until=2.0)
        lat[durable] = ring.learners[0].latency.mean
        assert ring.learners[0].delivered_messages.value == 20
    assert lat[True] > lat[False]


def test_delivery_under_message_loss():
    sim, net, ring = deploy(loss=UniformLoss(0.05), seed=23)
    (log,) = attach_log(ring)
    pump(ring, 200, size=1024)
    sim.run(until=10.0)
    assert delivered_payloads(log) == [f"m{i}" for i in range(200)]


def test_learner_repairs_from_preferential_acceptor():
    sim, net, ring = deploy(loss=UniformLoss(0.2), seed=31)
    (log,) = attach_log(ring)
    pump(ring, 100, size=1024)
    sim.run(until=20.0)
    assert delivered_payloads(log) == [f"m{i}" for i in range(100)]
    # Under 20% loss the learner must have exercised the repair path.
    assert ring.learners[0].repairs_requested.value > 0


def test_latency_is_stamped_and_positive():
    sim, net, ring = deploy()
    pump(ring, 10)
    sim.run(until=1.0)
    learner = ring.learners[0]
    assert learner.latency.count == 10
    assert 0 < learner.latency.mean < 0.05


def test_skip_range_advances_without_delivery():
    sim, net, ring = deploy()
    (log,) = attach_log(ring)
    ring.coordinator.propose_skip(1000)
    pump(ring, 1)
    sim.run(until=1.0)
    assert delivered_payloads(log) == ["m0"]
    learner = ring.learners[0]
    assert learner.skipped_instances.value == 1000
    assert learner.next_instance == 1001
    assert ring.coordinator.next_instance == 1001


def test_heartbeat_advances_frontier_when_idle():
    sim, net, ring = deploy()
    pump(ring, 1)
    sim.run(until=1.0)
    # After delivery, heartbeats keep flowing; frontier equals next_instance.
    learner = ring.learners[0]
    assert learner.frontier == learner.next_instance == 1


def test_window_limits_inflight_instances():
    sim, net, ring = deploy(window=2, batch_timeout=10.0)
    (log,) = attach_log(ring)
    pump(ring, 10)  # each 8 KB value fills a batch immediately
    while ring.coordinator.submissions.value < 10:
        sim.run(max_events=1)
    assert ring.coordinator.backlog >= 1  # window of 2 throttles starts
    sim.run(until=2.0)
    assert len(log) == 10


def test_throughput_accounting_counters():
    sim, net, ring = deploy()
    pump(ring, 10)
    sim.run(until=1.0)
    learner = ring.learners[0]
    assert learner.delivered_bytes.value == 10 * DEFAULT_VALUE_SIZE
    assert learner.received_bytes.value >= 10 * DEFAULT_VALUE_SIZE
    assert ring.proposers[0].sent.value == 10
