"""Integration: the Multi-Ring Paxos execution of the paper's Figure 4.

Two rings, M = 1. Learner 1 subscribes to g1 only; learner 2 subscribes
to g1 and g2. Messages m1, m3, m4 go to g1 and m2 to g2. Learner 2 must
buffer m4 until ring 2 produces something at m4's turn — in the figure, a
skip message — while learner 1 sails through.
"""

from repro import MultiRingConfig, MultiRingPaxos

SIZE = 8192


def test_figure4_execution():
    # lambda = 0 initially: we control skips by hand to mirror the figure.
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=0.0, m=1))
    log1, log2 = [], []
    mrp.add_learner(groups=[0], on_deliver=lambda g, v: log1.append(v.payload))
    learner2 = mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log2.append(v.payload))
    p = mrp.add_proposer()

    p.multicast(0, "m1", SIZE)
    mrp.run(until=0.1)
    p.multicast(1, "m2", SIZE)
    mrp.run(until=0.2)
    p.multicast(0, "m3", SIZE)
    mrp.run(until=0.3)
    p.multicast(0, "m4", SIZE)
    mrp.run(until=0.4)

    # Learner 1 (g1 only) delivered everything immediately.
    assert log1 == ["m1", "m3", "m4"]
    # Learner 2 delivered m1, m2, m3 — but m4 is buffered: it must first
    # deliver one instance from g2 (M = 1 round-robin).
    assert log2 == ["m1", "m2", "m3"]
    assert learner2.buffered_instances == 1

    # The coordinator of ring 2 realises its rate is below expectation and
    # proposes a skip; learner 2 can then deliver m4 (Figure 4's ending).
    mrp.rings[1].coordinator.propose_skip(1)
    mrp.run(until=0.5)
    assert log2 == ["m1", "m2", "m3", "m4"]
    assert learner2.buffered_instances == 0


def test_figure4_with_automatic_skips():
    """Same flow, but the skip manager does the topping-up by itself."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=1000.0, m=1))
    log2 = []
    mrp.add_learner(groups=[0, 1], on_deliver=lambda g, v: log2.append(v.payload))
    p = mrp.add_proposer()
    p.multicast(0, "m1", SIZE)
    p.multicast(1, "m2", SIZE)
    p.multicast(0, "m3", SIZE)
    p.multicast(0, "m4", SIZE)
    mrp.run(until=1.0)
    assert sorted(log2) == ["m1", "m2", "m3", "m4"]
    # g1's messages kept their order.
    assert [m for m in log2 if m != "m2"] == ["m1", "m3", "m4"]


def common_order(log_a, log_b):
    """Each log restricted to the messages both learners delivered."""
    common = set(log_a) & set(log_b)
    return [m for m in log_a if m in common], [m for m in log_b if m in common]


def test_learners_with_different_subscriptions_visit_rings_in_one_order():
    """Four groups on two rings (0 and 2 on ring 0, 1 and 3 on ring 1).
    The learner of groups 1-3 meets ring 1 first in its subscription, the
    learner of groups 2-3 meets ring 0 first: both must still visit the
    rings in one order, or the messages of groups 2 and 3 that share a
    round reach them in different orders."""
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=4, n_rings=2, lambda_rate=1000.0, m=1))
    logs = [[], []]
    for groups, log in zip(([1, 2, 3], [2, 3]), logs):
        mrp.add_learner(groups=groups, on_deliver=lambda g, v, log=log: log.append(v.payload))
    p, q = mrp.add_proposer(), mrp.add_proposer()
    for i in range(40):
        mrp.sim.at(0.1 + 0.01 * i, p.multicast, 2, f"a{i}", SIZE)
        mrp.sim.at(0.1 + 0.01 * i, q.multicast, 3, f"b{i}", SIZE)
    mrp.run(until=1.5)
    a, b = common_order(*logs)
    assert len(a) == 80
    assert a == b
