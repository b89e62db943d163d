"""Geo-distribution experiment runners ("Stretching Multi-Ring Paxos").

Three measurement shapes reproduce that paper's headline results on the
multi-datacenter fabric (:mod:`repro.sim.topology`):

* **Stretch vs throughput** — moving a ring member a WAN hop away leaves
  throughput essentially unchanged: Ring Paxos pipelines instances, so
  added propagation delay costs latency, not capacity.
* **Slowest-member latency** — decision latency tracks the WAN RTT of the
  *farthest* ring member, wherever it sits in the ring.
* **Placement** — putting a group's ring inside its subscribers' region
  (the latency-aware default) beats placing it a WAN hop away by roughly
  the link RTT per delivery.

Same contract as :mod:`repro.bench.runner`: every runner is a pure
function of JSON-primitive kwargs, addressable as a
``repro.bench.geo:<name>`` spec, one fresh simulator per point.

A WAN-stretched ring needs its protocol knobs scaled to the
bandwidth-delay product: the coordinator's in-flight window must cover
``rate x decision latency`` instances, and its Phase 2A retry must
exceed the decision latency or it re-multicasts every in-flight instance
into the WAN link. :func:`_stretch_knobs` centralizes that scaling.
"""

from __future__ import annotations

from ..calibration import DEFAULT_VALUE_SIZE, bytes_per_s_to_mbps
from ..core.config import MultiRingConfig
from ..core.deployment import MultiRingPaxos
from ..ringpaxos.builder import build_ring
from ..sim.simulator import Simulator
from ..sim.topology import GeoNetwork, Topology
from ..workload.generator import OpenLoopGenerator
from ..workload.rates import ConstantRate
from .runner import PointResult, _measure, _rate_to_msgs

__all__ = ["run_geo_ring_point", "run_geo_placement_point"]

# The stretch ring: three acceptors (the coordinator last) loaded at
# 500 Mbit/s. The placement experiment offers 200 Mbit/s.
STRETCH_ACCEPTORS = 3
STRETCH_OFFERED_MBPS = 500.0
PLACEMENT_OFFERED_MBPS = 200.0


def _stretch_knobs(rate_msgs: float, far_s: float) -> dict:
    """Window and retry sized to the ring's bandwidth-delay product.

    Decision latency of a ring with one member ``far_s`` away is about
    one WAN RTT (2A out + 2B back), so the coordinator must keep
    ``rate x RTT`` instances in flight and must not retry before a
    decision can possibly return.
    """
    decision_latency = 2.0 * far_s + 0.005
    return {
        "window": max(48, int(2.0 * rate_msgs * decision_latency)),
        "retry_timeout": max(0.02, 4.0 * decision_latency),
    }


def run_geo_ring_point(
    far_ms: float,
    far_position: int = 0,
    duration: float = 2.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> PointResult:
    """One ring with one member stretched ``far_ms`` (one-way) away.

    ``far_ms = 0`` is the one-region baseline on the same fabric. The
    ring has ``STRETCH_ACCEPTORS`` (3) acceptors and is loaded with 8 KiB
    values at ``STRETCH_OFFERED_MBPS`` (500 Mbit/s). The acceptor at ring
    index ``far_position`` moves to the remote region; coordinator,
    remaining acceptors, learner, and proposer stay local — the paper's
    "stretch one member at a time" setup. The coordinator (the last ring
    index) is pinned local, so ``far_position`` ranges over the
    non-coordinator indices.
    """
    if not 0 <= far_position < STRETCH_ACCEPTORS - 1:
        raise ValueError("far_position must index a non-coordinator acceptor")
    far_s = far_ms * 1e-3
    sim = Simulator(seed=seed)
    regions = ["dc0"] * STRETCH_ACCEPTORS
    if far_ms > 0:
        topo = Topology(["dc0", "dc1"], wan_latency=far_s)
        regions[far_position] = "dc1"
    else:
        topo = Topology.single()
    net = GeoNetwork(sim, topo)
    rate = _rate_to_msgs(STRETCH_OFFERED_MBPS)
    ring = build_ring(
        sim, net,
        n_acceptors=STRETCH_ACCEPTORS,
        acceptor_regions=regions,
        learner_regions=["dc0"],
        proposer_regions=["dc0"],
        **_stretch_knobs(rate, far_s),
    )
    prop = ring.proposers[0]
    learner = ring.learners[0]
    OpenLoopGenerator(
        sim, lambda: prop.multicast(None, DEFAULT_VALUE_SIZE), ConstantRate(rate)
    ).start()
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: learner.delivered_bytes.value,
        messages=lambda: learner.delivered_messages.value,
        cpu=ring.coordinator.node.cpu.busy_time,
    )
    return PointResult(
        label=f"stretch {far_ms:g}ms@{far_position}",
        offered_mbps=STRETCH_OFFERED_MBPS,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=rates.messages,
        latency_ms=learner.latency.trimmed_mean() * 1e3,
        cpu_pct=100.0 * rates.cpu,
        extra={"slowest_rtt_ms": 2.0 * far_ms},
    )


def run_geo_placement_point(
    placement: str,
    wan_ms: float = 25.0,
    duration: float = 2.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> PointResult:
    """Group subscribers in one region; its ring in-region or a hop away.

    The group's proposer offers 8 KiB values at ``PLACEMENT_OFFERED_MBPS``
    (200 Mbit/s). ``placement="local"`` exercises the latency-aware
    default — :func:`~repro.core.placement.place_rings` puts the ring
    where the group's subscribers are. ``placement="remote"`` pins the
    ring to the other region via ``ring_regions``, the layout the paper
    warns about: every delivery then pays the submission leg plus the
    decision leg over the WAN.
    """
    if placement not in ("local", "remote"):
        raise ValueError(f"placement must be 'local' or 'remote', not {placement!r}")
    topo = Topology(["dc0", "dc1"], wan_latency=wan_ms * 1e-3)
    mrp = MultiRingPaxos(
        MultiRingConfig(
            n_groups=1,
            seed=seed,
            topology=topo,
            group_regions=["dc1"],
            ring_regions=["dc0"] if placement == "remote" else None,
        )
    )
    sim = mrp.sim
    learner = mrp.add_learner(groups=[0])  # region-local by default: dc1
    prop = mrp.add_proposer(region="dc1")
    OpenLoopGenerator(
        sim, lambda: prop.multicast(0, None, DEFAULT_VALUE_SIZE),
        ConstantRate(_rate_to_msgs(PLACEMENT_OFFERED_MBPS)),
    ).start()
    rates = _measure(
        sim, warmup, duration,
        delivered=lambda: learner.delivered_bytes.value,
        messages=lambda: learner.delivered_messages.value,
        cpu=mrp.rings[0].coordinator.node.cpu.busy_time,
    )
    ring_region = mrp.ring_placement[0]
    return PointResult(
        label=f"{placement} ring ({ring_region})",
        offered_mbps=PLACEMENT_OFFERED_MBPS,
        delivered_mbps=bytes_per_s_to_mbps(rates.delivered),
        msgs_per_s=rates.messages,
        latency_ms=learner.latency.trimmed_mean() * 1e3,
        cpu_pct=100.0 * rates.cpu,
        extra={"ring_region": ring_region, "wan_rtt_ms": 2.0 * wan_ms},
    )
