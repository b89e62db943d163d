"""Integration: an LCR-backed group merged with Ring Paxos groups.

Exercises the Section VII conjecture implementation in
``repro.core.interop``: the merge is protocol-agnostic as long as each
group provides a gapless instance stream and a skip mechanism.
"""

import pytest

from repro import MultiRingConfig, MultiRingPaxos
from repro.core import DeterministicMerge
from repro.core.interop import LcrBackedGroup
from repro.ringpaxos import RingLearner
from repro.sim import Network, Node, Simulator

SIZE = 8192


def build_hybrid(lambda_rate=1500.0):
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, lambda_rate=lambda_rate))
    sim, network = mrp.sim, mrp.network
    learner_node = network.add_node(Node(sim, "hyb"))
    delivered = []
    merge = DeterministicMerge(
        ring_order=[0, 1],
        m=1,
        on_deliver=lambda rid, inst, v: delivered.append((v.group, v.payload)),
    )
    RingLearner(
        sim,
        network,
        learner_node,
        mrp.ring_configs[0],
        on_decide=lambda inst, item: merge.push(0, inst, item, now=sim.now),
    )
    members = [learner_node]
    for name in ("lcr-a", "lcr-b"):
        members.append(network.add_node(Node(sim, name)))
    group = LcrBackedGroup(
        sim, network, group_id=1, member_nodes=members, lambda_rate=lambda_rate
    )
    group.stream_at("hyb", lambda inst, item: merge.push(1, inst, item, now=sim.now))
    return mrp, group, merge, delivered


def test_messages_from_both_protocols_are_delivered():
    mrp, group, merge, delivered = build_hybrid()
    prop = mrp.add_proposer()
    prop.multicast(0, "rp-0", SIZE)
    group.multicast("lcr-a", "lcr-0", SIZE)
    mrp.run(until=1.0)
    assert sorted(p for _, p in delivered) == ["lcr-0", "rp-0"]
    assert not merge.halted


def test_skips_flow_in_both_protocols():
    """An idle group must not stall the other, whichever protocol backs it."""
    mrp, group, merge, delivered = build_hybrid()
    prop = mrp.add_proposer()
    # Only the Ring Paxos group is active: LCR-side skips must unblock.
    for i in range(10):
        prop.multicast(0, f"rp-{i}", SIZE)
    mrp.run(until=1.0)
    assert [p for _, p in delivered] == [f"rp-{i}" for i in range(10)]
    assert group.skips_proposed.value > 0
    # And the other direction: only the LCR group active.
    for i in range(10):
        group.multicast("lcr-b", f"lcr-{i}", SIZE)
    mrp.run(until=2.0)
    assert [p for _, p in delivered if str(p).startswith("lcr")] == [
        f"lcr-{i}" for i in range(10)
    ]


def test_an_idle_lcr_group_skips_at_a_fractional_lambda():
    """300 skips/s at Δ = 1 ms: the fraction of each tick is carried."""
    sim = Simulator(seed=3)
    network = Network(sim)
    members = [network.add_node(Node(sim, name)) for name in ("lcr-a", "lcr-b")]
    group = LcrBackedGroup(sim, network, group_id=0, member_nodes=members, lambda_rate=300.0)
    sim.run(until=1.0)
    assert abs(group.skips_proposed.value - 300) <= 2


def test_lcr_group_fifo_per_member():
    mrp, group, merge, delivered = build_hybrid()
    for i in range(8):
        group.multicast("lcr-a", f"a-{i}", SIZE)
        group.multicast("lcr-b", f"b-{i}", SIZE)
    mrp.run(until=2.0)
    a_seq = [p for _, p in delivered if str(p).startswith("a-")]
    b_seq = [p for _, p in delivered if str(p).startswith("b-")]
    assert a_seq == [f"a-{i}" for i in range(8)]
    assert b_seq == [f"b-{i}" for i in range(8)]


def test_skip_markers_do_not_reach_the_application():
    mrp, group, merge, delivered = build_hybrid(lambda_rate=3000.0)
    mrp.run(until=1.0)  # idle: both groups produce only skips
    assert delivered == []
    assert merge.skipped_instances.value > 0
    assert group.skips_proposed.value > 0


def test_lcr_group_requires_two_members():
    sim = Simulator()
    net = Network(sim)
    node = net.add_node(Node(sim, "solo"))
    with pytest.raises(ValueError):
        LcrBackedGroup(sim, net, 0, [node])


def test_all_members_observe_the_same_stream():
    mrp, group, merge, delivered = build_hybrid()
    other_stream = []
    group.stream_at("lcr-b", lambda inst, item: other_stream.append((inst, item)))
    for i in range(5):
        group.multicast("lcr-a", f"x-{i}", SIZE)
    mrp.run(until=1.0)
    datas = [item.values[0].payload for _, item in other_stream if hasattr(item, "values")]
    assert datas == [f"x-{i}" for i in range(5)]
