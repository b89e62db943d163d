"""Unit tests for the geo topology description and ring placement."""

import pytest

from repro.core.config import MultiRingConfig
from repro.core.placement import place_rings
from repro.errors import ConfigurationError, NetworkError
from repro.sim import GeoNetwork, Node, Simulator, Topology, WanLink


# ---------------------------------------------------------------------------
# Topology / WanLink validation
# ---------------------------------------------------------------------------
def test_wan_link_validation():
    with pytest.raises(ConfigurationError):
        WanLink(latency=-0.001)
    with pytest.raises(ConfigurationError):
        WanLink(latency=0.01, jitter=-1e-3)
    with pytest.raises(ConfigurationError):
        WanLink(latency=0.01, bandwidth=0.0)


def test_topology_requires_distinct_regions_and_full_link_coverage():
    with pytest.raises(ConfigurationError):
        Topology([])
    with pytest.raises(ConfigurationError):
        Topology(["dc0", "dc0"], wan_latency=0.01)
    # Two regions but neither a default latency nor an explicit link.
    with pytest.raises(ConfigurationError):
        Topology(["dc0", "dc1"])
    # Explicit links must name known, distinct regions.
    with pytest.raises(ConfigurationError):
        Topology(["dc0", "dc1"], links={("dc0", "dc9"): WanLink(0.01)})
    with pytest.raises(ConfigurationError):
        Topology(["dc0", "dc1"], links={("dc0", "dc0"): WanLink(0.01)})


def test_topology_links_are_symmetric_with_per_pair_overrides():
    topo = Topology(
        ["eu", "us", "asia"],
        links={("eu", "us"): WanLink(0.040)},
        wan_latency=0.100,
    )
    assert topo.one_way("eu", "us") == topo.one_way("us", "eu") == 0.040
    assert topo.one_way("us", "asia") == 0.100  # the default fills the rest
    assert topo.rtt("eu", "us") == 0.080
    assert topo.one_way("eu", "eu") == 0.0
    with pytest.raises(ConfigurationError):
        topo.one_way("eu", "nowhere")


def test_single_region_topology_is_the_degenerate_case():
    topo = Topology.single()
    assert topo.regions == ("dc0",)
    assert topo.default_region == "dc0"
    assert topo.rtt("dc0", "dc0") == 0.0


# ---------------------------------------------------------------------------
# GeoNetwork region bookkeeping
# ---------------------------------------------------------------------------
def test_geo_network_tracks_regions_and_rejects_unknown_ones():
    sim = Simulator(seed=1)
    net = GeoNetwork(sim, Topology(["dc0", "dc1"], wan_latency=0.01))
    net.add_node(Node(sim, "a"))                  # defaults to first region
    net.add_node(Node(sim, "b"), region="dc1")
    assert net.region_of == {"a": "dc0", "b": "dc1"}
    assert net.nodes_in("dc1") == ["b"]
    with pytest.raises(NetworkError):
        net.add_node(Node(sim, "c"), region="mars")


def test_wan_partition_and_heal_bookkeeping():
    sim = Simulator(seed=1)
    net = GeoNetwork(sim, Topology(["dc0", "dc1", "dc2"], wan_latency=0.01))
    net.partition_wan("dc1", "dc0")
    assert net.wan_links_down() == [("dc0", "dc1")]
    net.heal_wan()
    assert net.wan_links_down() == []
    with pytest.raises(NetworkError):
        net.partition_wan("dc0", "dc9")
    for bad in (-1.0, float("nan")):  # nan * jitter > 0 is false: jitter silently off
        with pytest.raises(ConfigurationError):
            net.set_wan_jitter_scale(bad)
        assert net.wan_jitter_scale == 1.0
    net.set_wan_jitter_scale(2)
    assert net.wan_jitter_scale == 2.0


def test_arrivals_reordered_by_a_mid_run_latency_change_fire_in_time_order():
    # Fuzz delay spikes rewrite propagation_delay mid-run, so a frame sent
    # once the spike is over reaches the WAN link (and a same-region
    # receiver) before one sent during it: arrival times no longer follow
    # submission order, and delivery must follow arrival times.
    sim = Simulator(seed=1)
    net = GeoNetwork(sim, Topology(["dc0", "dc1"], wan_latency=0.010, switch_delay=0.005))
    net.add_node(Node(sim, "src"))
    near = net.add_node(Node(sim, "near"))
    far = net.add_node(Node(sim, "far"), region="dc1")
    got = []
    near.register("app", lambda src, msg: got.append(("near", msg, sim.now)))
    far.register("app", lambda src, msg: got.append(("far", msg, sim.now)))

    def send_both(msg):
        net.send("src", "far", "app", msg, size=100)
        net.send("src", "near", "app", msg, size=100)

    def spike_ends():
        net.propagation_delay = 50e-6
        send_both("after")

    send_both("during")
    sim.schedule(0.001, spike_ends)
    sim.run()
    assert [(who, msg) for who, msg, _ in got] == [
        ("near", "after"), ("near", "during"), ("far", "after"), ("far", "during"),
    ]
    times = [t for _, _, t in got]
    assert times == sorted(times)
    assert times[0] < 0.005 < times[1] < 0.011 < times[2] < 0.015 < times[3]
    assert sim.pending_events == 0


def test_a_frame_takes_one_first_hop_and_each_remote_link_once():
    # One send path: GeoNetwork routes a frame at its first hop and does
    # not re-implement egress, counters, probes and loss draws beside it.
    assert not {"send", "multicast"} & vars(GeoNetwork).keys()
    sim = Simulator(seed=1)
    net = GeoNetwork(sim, Topology(["a", "b", "c"], wan_latency=0.010))
    got = []
    for name in ("a0", "c0", "a1", "b0", "c1"):  # membership order: c before b
        node = net.add_node(Node(sim, name), region=name[0])
        node.register("app", lambda src, msg, name=name: got.append((name, round(sim.now, 6))))
        net.join("g", name)
    net.multicast("a0", "g", "app", "m", size=125)  # 1 us per NIC / WAN hop
    # Loopback, and one first hop for the in-region fan-in and both links.
    assert sim.pending_events == 2
    sim.run()
    assert got == [
        ("a0", 0.000001), ("a1", 0.000052),
        ("c0", 0.010053), ("c1", 0.010053), ("b0", 0.010053),
    ]
    assert [net._wan[("a", r)].messages_carried for r in "bc"] == [1, 1]
    net.send("b0", "a1", "app", "u", size=125)
    assert sim.pending_events == 1
    sim.run()
    assert got[-1] == ("a1", 0.020106) and net._wan[("b", "a")].messages_carried == 1


# ---------------------------------------------------------------------------
# Latency-aware placement
# ---------------------------------------------------------------------------
def _topo3(**kwargs):
    return Topology(["dc0", "dc1", "dc2"], wan_latency=0.025, **kwargs)


def test_placement_puts_each_ring_with_its_subscribers():
    config = MultiRingConfig(
        n_groups=3,
        topology=_topo3(),
        group_regions=["dc2", "dc0", "dc1"],
    )
    assert place_rings(config) == {0: "dc2", 1: "dc0", 2: "dc1"}


def test_placement_tie_break_is_topology_declaration_order():
    # One ring serving groups in dc1 and dc2 under uniform latencies:
    # every candidate region has the same worst-case RTT, so the winner
    # must be the earliest declared region — deterministically.
    config = MultiRingConfig(
        n_groups=2,
        n_rings=1,
        topology=_topo3(),
        group_regions=["dc1", "dc2"],
    )
    assert place_rings(config) == {0: "dc0"}
    # With a cheaper dc1<->dc2 link the tie disappears: either subscriber
    # region now beats dc0, and dc1 wins over dc2 by declaration order.
    config = MultiRingConfig(
        n_groups=2,
        n_rings=1,
        topology=Topology(
            ["dc0", "dc1", "dc2"],
            links={("dc1", "dc2"): WanLink(0.002)},
            wan_latency=0.025,
        ),
        group_regions=["dc1", "dc2"],
    )
    assert place_rings(config) == {0: "dc1"}


def test_placement_without_topology_is_empty():
    assert place_rings(MultiRingConfig(n_groups=2)) == {}


def test_placement_rejects_unknown_regions():
    with pytest.raises(ConfigurationError):
        place_rings(
            MultiRingConfig(
                n_groups=1, topology=_topo3(), group_regions=["atlantis"]
            )
        )
    with pytest.raises(ConfigurationError):
        place_rings(
            MultiRingConfig(
                n_groups=1, topology=_topo3(), ring_regions=["atlantis"]
            )
        )


def test_explicit_ring_regions_override_the_policy():
    config = MultiRingConfig(
        n_groups=2,
        topology=_topo3(),
        group_regions=["dc1", "dc1"],
        ring_regions=["dc2", "dc0"],
    )
    assert place_rings(config) == {0: "dc2", 1: "dc0"}


def test_config_region_validation():
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=1, group_regions=["dc0"])  # no topology
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=2, topology=_topo3(), group_regions=["dc0"])
    with pytest.raises(ConfigurationError):
        MultiRingConfig(n_groups=2, topology=_topo3(), ring_regions=["dc0"])
    config = MultiRingConfig(n_groups=2, topology=_topo3(), group_regions=["dc2", "dc1"])
    assert config.region_of_group(0) == "dc2"
    assert MultiRingConfig(n_groups=1).region_of_group(0) is None
