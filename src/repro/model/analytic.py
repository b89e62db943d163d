"""Closed-form queueing/bottleneck model of (Multi-)Ring Paxos.

The simulator answers "what happens" by running the protocol event by
event; this module answers the same capacity questions in closed form,
driven **only** by the constants in :mod:`repro.calibration` and the
deployment knobs (:class:`~repro.core.config.MultiRingConfig` /
:class:`~repro.ringpaxos.config.RingConfig`). The paper itself derives
maximum-throughput bounds this way ("Ring Paxos: High-Throughput Atomic
Broadcast", Section IV), and a calibrated resource model is how "The
Performance of Paxos in the Cloud" explains measured saturation.

The model of one ring is a set of per-value service demands, one per
resource on the decision path:

* **coordinator.cpu** — receive the submission (small-message cost),
  prepare and multicast the Phase 2A (fixed + per-byte cost), process
  the returning Phase 2B (small-message cost);
* **coordinator.nic.tx / .rx** — wire bytes serialized per value
  (submission in, 2A out; the 2A is multicast, so egress is paid once
  regardless of fan-out — the Ring Paxos asymmetry);
* **acceptor.cpu** — validate the 2A, forward the small 2B;
* **acceptor.disk** — Recoverable mode writes the batch through the
  acceptor's disk (buffered: a throughput bound, not a latency term);
* **learner.cpu / learner.nic.rx** — deliver the batch; the ingress
  link is what caps a learner subscribed to many rings (Figure 6).

Saturation throughput is the smallest per-resource capacity; the
bottleneck is the argmin. Latency below saturation is the sum of the
decision path's legs (serialize + propagate + process, the unloaded
base) plus an M/M/1-style waiting term ``rho/(1-rho) * s`` per shared
resource. Skip traffic (one small 2A per sampling interval Δ while the
ring runs below λ) enters as a background load on the coordinator and
on subscribed learners' links.

Everything here is deterministic arithmetic — no simulator imports, so
the model is importable from the CLI without pulling in the event
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import calibration as _cal
from ..ringpaxos.messages import _DECISION_ENTRY_BYTES

__all__ = ["Calibration", "RingModel", "MultiRingModel"]

# The rings' default ``RingConfig.decision_flush_timeout``: how long a
# decision waits for a 2A to piggyback on before it is multicast alone.
_DECISION_FLUSH_TIMEOUT = 100e-6


@dataclass(frozen=True, slots=True)
class Calibration:
    """The substrate constants the model is calibrated with.

    Defaults mirror :mod:`repro.calibration` exactly; an experiment that
    overrides a simulator constant (e.g. ``build_ring(disk_bandwidth=...)``)
    models the change with ``replace(Calibration(), disk_bandwidth=...)``
    — the property tests perturb one constant on both sides and check the
    predictions move together.
    """

    link_bandwidth: float = _cal.LINK_BANDWIDTH_BYTES_PER_S
    propagation: float = _cal.ONE_WAY_PROPAGATION_S
    cpu_byte_coordinator: float = _cal.CPU_BYTE_COST_COORDINATOR
    cpu_fixed_coordinator: float = _cal.CPU_FIXED_COST_COORDINATOR
    cpu_byte_acceptor: float = _cal.CPU_BYTE_COST_ACCEPTOR
    cpu_fixed_acceptor: float = _cal.CPU_FIXED_COST_ACCEPTOR
    cpu_byte_learner: float = _cal.CPU_BYTE_COST_LEARNER
    cpu_fixed_learner: float = _cal.CPU_FIXED_COST_LEARNER
    cpu_small_message: float = _cal.CPU_FIXED_COST_SMALL_MESSAGE
    disk_bandwidth: float = _cal.DISK_BANDWIDTH_BYTES_PER_S
    control_size: int = _cal.CONTROL_MESSAGE_SIZE
    decision_entry_bytes: int = _DECISION_ENTRY_BYTES

    def with_overrides(self, **kwargs: float) -> "Calibration":
        """A copy with some constants replaced (property-test hook)."""
        return replace(self, **kwargs)


def _mbps(bytes_per_s: float) -> float:
    return bytes_per_s * 8.0 / 1e6


class RingModel:
    """Analytic model of one Ring Paxos instance.

    Parameters mirror :class:`~repro.ringpaxos.config.RingConfig` plus
    the Multi-Ring knobs that shape background traffic (λ, Δ). WAN
    stretch enters through ``member_rtts``: the round-trip time from the
    ring's home region to each in-ring acceptor (0 for local members) —
    a stretched member adds its RTT to the decision path once (the 2A
    reaches it over the WAN, its 2B crosses back), which is the
    "latency tracks the slowest member" shape of the geo experiments.
    """

    def __init__(
        self,
        calibration: Calibration | None = None,
        *,
        value_size: int = _cal.BATCH_SIZE_BYTES,
        durable: bool = False,
        ring_size: int = 2,
        lambda_rate: float = 9000.0,
        delta: float = 1e-3,
        member_rtts: tuple[float, ...] | list[float] | None = None,
    ) -> None:
        if value_size <= 0 or ring_size < 1 or delta <= 0:
            raise ValueError("value_size/ring_size/delta must be positive")
        self.cal = calibration or Calibration()
        self.value_size = value_size
        self.durable = durable
        self.ring_size = ring_size
        self.lambda_rate = lambda_rate
        self.delta = delta
        self.member_rtts = tuple(member_rtts or ())

    # ------------------------------------------------------------------
    # Per-value service demands (seconds or bytes per decided value)
    # ------------------------------------------------------------------
    @property
    def wire_2a_bytes(self) -> float:
        """Phase 2A wire size: header + batch + one piggybacked decision."""
        return self.cal.control_size + self.value_size + self.cal.decision_entry_bytes

    @property
    def coordinator_cpu_per_value(self) -> float:
        """Coordinator CPU seconds per decided value.

        Submission receive (small) + 2A prepare/multicast (fixed +
        per-byte over the batch) + Phase 2B processing (small). This is
        the 97.6%-CPU hot path of Figure 1's In-memory knee.
        """
        c = self.cal
        return (
            c.cpu_small_message
            + c.cpu_fixed_coordinator + c.cpu_byte_coordinator * self.value_size
            + c.cpu_small_message
        )

    @property
    def acceptor_cpu_per_value(self) -> float:
        c = self.cal
        return (
            c.cpu_fixed_acceptor + c.cpu_byte_acceptor * self.value_size
            + c.cpu_small_message  # forward the 2B token
        )

    @property
    def learner_cpu_per_value(self) -> float:
        c = self.cal
        return c.cpu_fixed_learner + c.cpu_byte_learner * self.value_size

    @property
    def skip_rate(self) -> float:
        """Skip instances per second while the ring runs below λ.

        Any gap is closed by **one** skip instance per sampling interval
        (``propose_skip`` batches the whole deficit into one consensus
        execution), so the background rate is 1/Δ, independent of λ —
        and zero when λ = 0 disables skipping.
        """
        return 0.0 if self.lambda_rate <= 0 else 1.0 / self.delta

    @property
    def _skip_cpu_load(self) -> float:
        """Coordinator CPU fraction consumed by skip 2As."""
        c = self.cal
        per_skip = (
            c.cpu_fixed_coordinator + c.cpu_byte_coordinator * c.control_size
            + c.cpu_small_message  # its 2B
        )
        return self.skip_rate * per_skip

    @property
    def skip_wire_bytes_per_s(self) -> float:
        """Wire bytes/s of skip 2As seen by every group subscriber."""
        return self.skip_rate * (self.cal.control_size + self.cal.decision_entry_bytes)

    # ------------------------------------------------------------------
    # Capacities and saturation
    # ------------------------------------------------------------------
    def capacities(self) -> dict[str, float]:
        """Values/second each resource can sustain, resource by resource."""
        c = self.cal
        size = self.value_size
        caps = {
            "coordinator.cpu": max(0.0, 1.0 - self._skip_cpu_load) / self.coordinator_cpu_per_value,
            # Egress is multicast: one 2A serialization per value.
            "coordinator.nic.tx": c.link_bandwidth / self.wire_2a_bytes,
            # Ingress: the submission (header + value) plus the 2B token.
            "coordinator.nic.rx": c.link_bandwidth / (c.control_size + size + c.control_size),
            "acceptor.cpu": 1.0 / self.acceptor_cpu_per_value,
            "learner.cpu": 1.0 / self.learner_cpu_per_value,
        }
        if self.durable:
            caps["acceptor.disk"] = c.disk_bandwidth / size
        return caps

    @property
    def saturation_msgs_per_s(self) -> float:
        return min(self.capacities().values())

    @property
    def saturation_mbps(self) -> float:
        return _mbps(self.saturation_msgs_per_s * self.value_size)

    def bottleneck(self) -> str:
        caps = self.capacities()
        return min(caps, key=caps.get)

    def delivered_mbps(self, offered_mbps: float) -> float:
        """Predicted delivery rate at an offered load (min of the two)."""
        return min(offered_mbps, self.saturation_mbps)

    def utilization(self, offered_mbps: float) -> dict[str, float]:
        """Per-resource utilization at an offered load (clipped at 1)."""
        rate = min(
            _cal.mbps_to_bytes_per_s(offered_mbps) / self.value_size,
            self.saturation_msgs_per_s,
        )
        out = {}
        for resource, cap in self.capacities().items():
            util = rate / cap
            if resource == "coordinator.cpu":
                util += self._skip_cpu_load
            out[resource] = min(util, 1.0)
        return out

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def base_latency_s(self) -> float:
        """Unloaded decision latency: the sum of the path's legs.

        Submission (serialize + switch hop + deserialize + receive CPU),
        2A preparation and multicast to the first acceptor, the ring
        traversal of the small 2B through ``ring_size - 1`` hops, and
        the decision reaching the learner after the piggyback flush
        timeout. WAN-stretched members add their RTT once (2A out over
        the WAN, 2B back).
        """
        c = self.cal
        bw = c.link_bandwidth
        prop = c.propagation
        size = self.value_size
        submit_wire = c.control_size + size
        small = c.control_size / bw

        submit_leg = submit_wire / bw + prop + submit_wire / bw + c.cpu_small_message
        prepare = c.cpu_fixed_coordinator + c.cpu_byte_coordinator * size
        mcast_leg = (
            self.wire_2a_bytes / bw + prop + self.wire_2a_bytes / bw
            + c.cpu_fixed_acceptor + c.cpu_byte_acceptor * size
        )
        ring_hop = small + prop + small + c.cpu_small_message
        decision_leg = (
            _DECISION_FLUSH_TIMEOUT + small + prop + small + c.cpu_small_message
        )
        wan = sum(self.member_rtts)
        return (
            submit_leg + prepare + mcast_leg
            + (self.ring_size - 1) * ring_hop
            + decision_leg + wan
        )

    def response_time_s(self, offered_mbps: float) -> float:
        """Mean decision latency at an offered load below saturation.

        Base latency plus an M/M/1-style waiting term per queueing
        resource: ``rho / (1 - rho) * s``. The acceptor disk is excluded
        — writes are buffered, so below saturation the disk bounds
        throughput without appearing on the latency path (which is why
        Figure 1's Recoverable latency matches In-memory at low load).
        Diverges as offered approaches saturation, like the real system.
        """
        rate = _cal.mbps_to_bytes_per_s(offered_mbps) / self.value_size
        c = self.cal
        services = {
            "coordinator.cpu": self.coordinator_cpu_per_value,
            "coordinator.nic.tx": self.wire_2a_bytes / c.link_bandwidth,
            "coordinator.nic.rx": (c.control_size + self.value_size) / c.link_bandwidth,
            "acceptor.cpu": self.acceptor_cpu_per_value,
            "learner.cpu": self.learner_cpu_per_value,
        }
        waiting = 0.0
        for resource, s in services.items():
            rho = rate * s
            if resource == "coordinator.cpu":
                rho += self._skip_cpu_load
            if rho >= 1.0:
                return float("inf")
            waiting += rho / (1.0 - rho) * s
        return self.base_latency_s() + waiting


class MultiRingModel:
    """Aggregate model of a Multi-Ring Paxos deployment.

    Composes one homogeneous :class:`RingModel` per ring. With one
    learner per group (Figure 5), aggregate capacity is ``n_rings``
    times the per-ring saturation — learners see only their own ring's
    traffic, so nothing new binds. With a learner subscribed to every
    group (Figure 6) the learner's ingress link and CPU become shared
    ceilings across all rings, and whichever of the three is smallest
    caps aggregate delivery.
    """

    def __init__(self, ring: RingModel, n_rings: int) -> None:
        if n_rings < 1:
            raise ValueError("need at least one ring")
        self.ring = ring
        self.n_rings = n_rings

    @classmethod
    def from_config(cls, config) -> "MultiRingModel":
        """Build from a :class:`~repro.core.config.MultiRingConfig`.

        With a topology, each ring's member RTTs are taken relative to
        the ring's placement region (``ring_regions`` when given); the
        slowest ring bounds the deployment's latency estimate.
        """
        n_rings = config.n_rings or config.n_groups
        member_rtts: tuple[float, ...] = ()
        if config.topology is not None and config.ring_regions:
            # Acceptors of ring i are placed in ring_regions[i]; a
            # subscriber region that differs pays the WAN RTT once.
            topo = config.topology
            rtts = []
            for g in range(config.n_groups):
                ring_region = config.ring_regions[config.ring_of_group(g)]
                sub_region = config.region_of_group(g)
                if sub_region is not None:
                    rtts.append(topo.rtt(ring_region, sub_region))
            member_rtts = (max(rtts),) if rtts else ()
        ring = RingModel(
            value_size=config.batch_size,
            durable=config.durable,
            ring_size=config.acceptors_per_ring,
            lambda_rate=config.lambda_rate,
            delta=config.delta,
            member_rtts=member_rtts,
        )
        return cls(ring, n_rings)

    # ------------------------------------------------------------------
    # Aggregate capacity
    # ------------------------------------------------------------------
    def learner_ingress_ceiling_mbps(self) -> float:
        """Payload Mbps one learner's ingress link can carry.

        The link serializes full 2A frames (header + batch + piggyback)
        from every subscribed ring plus their skip 2As; only the batch
        bytes count as delivered payload.
        """
        ring = self.ring
        link = ring.cal.link_bandwidth - self.n_rings * ring.skip_wire_bytes_per_s
        payload_share = ring.value_size / ring.wire_2a_bytes
        return _mbps(max(link, 0.0) * payload_share)

    def learner_cpu_ceiling_mbps(self) -> float:
        """Payload Mbps one learner's CPU can deliver (all rings merged)."""
        ring = self.ring
        return _mbps(ring.value_size / ring.learner_cpu_per_value)

    def aggregate_saturation_mbps(self, subscribe_all: bool = False) -> float:
        per_ring_total = self.n_rings * self.ring.saturation_mbps
        if not subscribe_all:
            return per_ring_total
        return min(
            per_ring_total,
            self.learner_ingress_ceiling_mbps(),
            self.learner_cpu_ceiling_mbps(),
        )

    def bottleneck(self, subscribe_all: bool = False) -> str:
        if not subscribe_all:
            return self.ring.bottleneck()
        ceilings = {
            self.ring.bottleneck(): self.n_rings * self.ring.saturation_mbps,
            "learner.nic.rx": self.learner_ingress_ceiling_mbps(),
            "learner.cpu": self.learner_cpu_ceiling_mbps(),
        }
        return min(ceilings, key=ceilings.get)

