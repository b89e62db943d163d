"""Tests for network partitions and the protocols' recovery from them.

Scheduled faults (crash/restart, partition steps, loss phases) are
tested through ``ScheduleRunner`` in ``test_check_schedule.py``.
"""


from repro import MultiRingConfig, MultiRingPaxos
from repro.calibration import DEFAULT_VALUE_SIZE
from repro.ringpaxos import build_ring
from repro.sim import Network, Node, Simulator, UniformLoss
from repro.sim.faults import NetworkPartition

SIZE = DEFAULT_VALUE_SIZE


# ---------------------------------------------------------------------------
# NetworkPartition
# ---------------------------------------------------------------------------
def test_partition_drops_only_crossing_traffic():
    sim = Simulator(seed=1)
    partition = NetworkPartition({"a"})
    net = Network(sim, loss=partition)
    got = {"b": [], "c": []}
    for name in ("a", "b", "c"):
        node = net.add_node(Node(sim, name))
        if name in got:
            node.register("app", lambda src, msg, n=name: got[n].append(msg))
    partition.activate()
    net.send("a", "b", "app", "cross", 64)   # crosses the cut: dropped
    net.send("c", "b", "app", "inside", 64)  # both outside: delivered
    sim.run()
    assert got["b"] == ["inside"]
    assert partition.dropped == 1
    partition.heal()
    net.send("a", "b", "app", "healed", 64)
    sim.run()
    assert got["b"] == ["inside", "healed"]


def test_partition_composes_with_underlying_loss():
    sim = Simulator(seed=5)
    partition = NetworkPartition({"a"}, underlying=UniformLoss(1.0))
    net = Network(sim, loss=partition)
    net.add_node(Node(sim, "a"))
    b = net.add_node(Node(sim, "b"))
    got = []
    b.register("app", lambda src, msg: got.append(msg))
    # Partition inactive, but the underlying loss drops everything.
    net.send("a", "b", "app", "x", 64)
    sim.run()
    assert got == []


# ---------------------------------------------------------------------------
# Protocol behaviour under partitions
# ---------------------------------------------------------------------------
def test_ring_stalls_across_partition_and_heals():
    """Partition the coordinator away from its acceptor mid-run: the ring
    stalls; on healing, retries drive every pending instance to decision."""
    sim = Simulator(seed=11)
    partition = NetworkPartition({"r0-coord"})
    net = Network(sim, loss=partition)
    ring = build_ring(sim, net)
    log = []
    ring.learners[0].on_deliver = lambda inst, v: log.append(v.payload)
    prop = ring.proposers[0]
    prop.multicast("before", SIZE)
    sim.run(until=0.5)
    assert log == ["before"]
    sim.at(0.5, partition.activate)
    sim.at(1.5, partition.heal)
    sim.run(until=0.6)
    prop.multicast("during", SIZE)
    sim.run(until=1.4)
    assert log == ["before"]  # cut coordinator cannot decide
    sim.run(until=4.0)
    assert log == ["before", "during"]  # healed: exactly once, in order


def test_multiring_learner_partition_recovery():
    """A learner partitioned away buffers nothing (multicasts lost) but
    catches up through repairs once the partition heals."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=2000.0, seed=4))
    partition = NetworkPartition({"mr-lrn0"})
    mrp.network.loss = partition
    log = []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log.append(v.payload))
    prop = mrp.add_proposer()
    mrp.sim.at(0.2, partition.activate)
    mrp.sim.at(1.0, partition.heal)
    # Spread sends across the partition window: some messages are ordered
    # while the learner is cut off and must be recovered by repairs.
    for i in range(10):
        mrp.sim.at(i * 0.08, prop.multicast, 0, f"m{i}", SIZE)
    mrp.run(until=0.95)
    n_before_heal = len(log)
    assert n_before_heal < 10  # some were genuinely cut off
    mrp.run(until=8.0)
    assert log == [f"m{i}" for i in range(10)]
