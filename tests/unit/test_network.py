"""Unit tests for the switched-network model."""

import pytest

from repro.errors import NetworkError
from repro.obs import ProbeBus
from repro.sim import GeoNetwork, Network, NoLoss, Node, Simulator, Topology, UniformLoss


def make_net(n=3, **kwargs):
    sim = Simulator(seed=1)
    net = Network(sim, **kwargs)
    nodes = [net.add_node(Node(sim, f"n{i}")) for i in range(n)]
    return sim, net, nodes


def test_unicast_delivery_and_latency():
    sim, net, (a, b, _) = make_net(propagation_delay=50e-6, bandwidth=125e6)
    got = []
    b.register("app", lambda src, msg: got.append((sim.now, src, msg)))
    net.send("n0", "n1", "app", "hello", size=8192)
    sim.run()
    assert len(got) == 1
    t, src, msg = got[0]
    assert src == "n0" and msg == "hello"
    # two serializations of 8 KB at 125 MB/s (65.5 us each) + 50 us switch
    assert t == pytest.approx(2 * 8192 / 125e6 + 50e-6)


def test_unknown_node_raises():
    sim, net, _ = make_net()
    with pytest.raises(NetworkError):
        net.send("n0", "ghost", "app", "x", size=1)
    with pytest.raises(NetworkError):
        net.send("ghost", "n0", "app", "x", size=1)


def test_duplicate_node_rejected():
    sim, net, _ = make_net()
    with pytest.raises(NetworkError):
        net.add_node(Node(sim, "n0"))


def test_unbound_port_drops_silently():
    sim, net, _ = make_net()
    net.send("n0", "n1", "nobody-home", "x", size=64)
    sim.run()  # must not raise


def test_multicast_reaches_all_members():
    sim, net, nodes = make_net(5)
    got = {n.name: [] for n in nodes}
    for n in nodes:
        n.register("mc", lambda src, msg, name=n.name: got[name].append(msg))
    for n in nodes[1:]:
        net.join("grp", n.name)
    net.multicast("n0", "grp", "mc", "payload", size=8192)
    sim.run()
    assert got["n0"] == []  # sender not subscribed
    for n in nodes[1:]:
        assert got[n.name] == ["payload"]


def test_multicast_single_egress_serialization():
    """The sender pays one serialization regardless of group size."""
    sim, net, nodes = make_net(5)
    for n in nodes[1:]:
        net.join("grp", n.name)
        n.register("mc", lambda src, msg: None)
    net.multicast("n0", "grp", "mc", "x", size=8192)
    assert net.nic("n0").bytes_sent == 8192
    assert net.nic("n0").egress.demand_served == pytest.approx(8192)


def test_multicast_loopback_when_sender_subscribed():
    sim, net, nodes = make_net(2)
    got = []
    nodes[0].register("mc", lambda src, msg: got.append(msg))
    net.join("grp", "n0")
    net.multicast("n0", "grp", "mc", "self", size=1024)
    sim.run()
    assert got == ["self"]
    # Loopback must not consume ingress link capacity.
    assert net.nic("n0").ingress.demand_served == 0.0


def test_leave_group_stops_delivery():
    sim, net, nodes = make_net(3)
    got = []
    nodes[1].register("mc", lambda src, msg: got.append(msg))
    net.join("grp", "n1")
    net.leave("grp", "n1")
    net.multicast("n0", "grp", "mc", "x", size=64)
    sim.run()
    assert got == []


def test_crashed_node_does_not_send():
    sim, net, nodes = make_net(2)
    got = []
    nodes[1].register("app", lambda src, msg: got.append(msg))
    nodes[0].crash()
    net.send("n0", "n1", "app", "x", size=64)
    sim.run()
    assert got == []


def test_crashed_node_does_not_receive():
    sim, net, nodes = make_net(2)
    got = []
    nodes[1].register("app", lambda src, msg: got.append(msg))
    nodes[1].crash()
    net.send("n0", "n1", "app", "x", size=64)
    sim.run()
    assert got == []
    nodes[1].restart()
    net.send("n0", "n1", "app", "again", size=64)
    sim.run()
    assert got == ["again"]


def test_ingress_queue_serializes_concurrent_senders():
    sim, net, nodes = make_net(3, bandwidth=1000.0, propagation_delay=0.0)
    arrivals = []
    nodes[2].register("app", lambda src, msg: arrivals.append(sim.now))
    net.send("n0", "n2", "app", "a", size=1000)
    net.send("n1", "n2", "app", "b", size=1000)
    sim.run()
    # Both egress serializations overlap (1 s each), but n2's ingress can
    # only take one at a time: second delivery lands ~1 s after the first.
    assert arrivals[0] == pytest.approx(2.0)
    assert arrivals[1] == pytest.approx(3.0)


def test_uniform_loss_drops_messages():
    sim = Simulator(seed=7)
    net = Network(sim, loss=UniformLoss(1.0))
    a, b = net.add_node(Node(sim, "a")), net.add_node(Node(sim, "b"))
    got = []
    b.register("app", lambda src, msg: got.append(msg))
    net.send("a", "b", "app", "x", size=64)
    sim.run()
    assert got == []
    assert net.messages_dropped == 1


def test_loss_statistics_roughly_match_probability():
    sim = Simulator(seed=11)
    net = Network(sim, loss=UniformLoss(0.3))
    net.add_node(Node(sim, "a"))
    b = net.add_node(Node(sim, "b"))
    got = []
    b.register("app", lambda src, msg: got.append(msg))
    for i in range(1000):
        net.send("a", "b", "app", i, size=16)
    sim.run()
    assert 600 <= len(got) <= 800  # ~700 expected


def test_degenerate_loss_probabilities_consume_no_rng_draws():
    import random

    rng = random.Random(42)
    model = UniformLoss(0.0)
    for _ in range(5):
        assert model.should_drop(rng, "a", "b", 64) is False
    assert rng.random() == random.Random(42).random()
    rng = random.Random(42)
    assert UniformLoss(1.0).should_drop(rng, "a", "b", 64) is True
    assert rng.random() == random.Random(42).random()


def test_zero_loss_phase_is_trace_equal_to_no_loss():
    # Regression: UniformLoss(0.0) used to burn one rng draw per receiver
    # leg, so a lossless warm-up phase desynchronized the loss stream and
    # changed which messages a later positive-p phase dropped.
    def run(warmup_loss):
        sim = Simulator(seed=3)
        net = Network(sim, loss=warmup_loss)
        net.add_node(Node(sim, "a"))
        b = net.add_node(Node(sim, "b"))
        got = []
        b.register("app", lambda src, msg: got.append((sim.now, msg)))
        for i in range(50):
            net.send("a", "b", "app", ("warm", i), size=16)
        sim.run()
        net.loss = UniformLoss(0.4)
        for i in range(200):
            net.send("a", "b", "app", ("lossy", i), size=16)
        sim.run()
        return got

    assert run(UniformLoss(0.0)) == run(NoLoss())


def test_nic_counters():
    sim, net, nodes = make_net(2)
    nodes[1].register("app", lambda src, msg: None)
    net.send("n0", "n1", "app", "x", size=500)
    sim.run()
    assert net.nic("n0").bytes_sent == 500
    assert net.nic("n0").messages_sent == 1
    assert net.nic("n1").bytes_received == 500
    assert net.nic("n1").messages_received == 1


@pytest.mark.parametrize("bad", [float("nan"), -1e-6])
def test_a_bad_propagation_delay_is_rejected_when_assigned(bad):
    # The latency-spike fault assigns it mid-run. A bad value used to be
    # caught one send later, after the egress queue had taken the frame.
    sim, net, _ = make_net(2)
    geo = GeoNetwork(sim, Topology(["a", "b"], wan_latency=0.01, switch_delay=2e-5))
    for fabric, before in ((net, 50e-6), (geo, 2e-5)):
        with pytest.raises(NetworkError):
            fabric.propagation_delay = bad
        assert fabric.propagation_delay == before
    net.send("n0", "n1", "app", "x", size=100)
    assert net.nic("n0").egress.jobs_served == 1 and sim.pending_events == 1


def test_send_and_multicast_queue_arrivals_one_assigned_delay_after_departure():
    # send/multicast push their own heap entries, unchecked: every time they
    # queue is a departure (>= now) plus the delay validated at assignment.
    sim, net, nodes = make_net(3, bandwidth=1000.0, propagation_delay=0.25)
    arrivals = []
    for node in nodes:
        node.register("app", lambda src, msg, name=node.name: arrivals.append((sim.now, name, msg)))
        net.join("g", node.name)
    net.send("n0", "n1", "app", "uni", size=100)       # departs 0.1
    net.propagation_delay = 0.0
    net.multicast("n0", "g", "app", "multi", size=100)  # departs 0.2, overtakes
    assert sim.pending_events == 3  # unicast arrival, loopback, one fan-in
    sim.run()
    assert arrivals == [
        (pytest.approx(0.2), "n0", "multi"),  # loopback: no switch, no ingress
        (pytest.approx(0.3), "n1", "multi"),
        (pytest.approx(0.3), "n2", "multi"),
        (pytest.approx(0.45), "n1", "uni"),   # 0.1 + 0.25, then ingress 0.1
    ]


def test_network_attributes_are_declared():
    # Nothing replaces send/multicast per instance any more, so Network and
    # GeoNetwork are slotted; the attributes callers do assign still work.
    sim, net, _ = make_net()
    geo = GeoNetwork(sim, Topology(["a", "b"], wan_latency=0.01))
    for fabric in (net, geo):
        assert not hasattr(fabric, "__dict__")
        with pytest.raises(AttributeError):
            fabric.send_hook = print
        fabric.loss = UniformLoss(0.5)
        fabric.propagation_delay = 1e-3
        fabric.probe = ProbeBus()
        assert isinstance(fabric.loss, UniformLoss)
