"""Multi-datacenter topologies: per-region switches joined by WAN links.

The base :class:`~repro.sim.network.Network` models the paper's testbed —
every server on one non-blocking switch. "Stretching Multi-Ring Paxos"
deploys the same protocol across datacenters, which changes exactly one
thing about the fabric: a message between servers in *different* regions
must additionally cross a WAN link with its own one-way latency,
bandwidth, and jitter. Everything else — NIC egress/ingress contention,
the switch's fixed hop, per-receiver-leg loss — stays as it is.

:class:`Topology` is the static description (region names, per-region
switch delay, a :class:`WanLink` per region pair); :class:`GeoNetwork`
is the live fabric. It changes that one thing and nothing else:
``send`` and ``multicast`` are the base class's, and only the two hooks
they queue a frame's first hop under — what the frame does at the
sender's switch — are overridden. Cross-region traffic serializes at the
sender NIC, crosses the local switch, then traverses the WAN link **once
per destination region** and fans out at the remote switch — so an
ip-multicast spanning three regions pays the sender's egress once and
each WAN link once, preserving the NIC-egress asymmetry that makes Ring
Paxos cheap.

A one-region :class:`GeoNetwork` is the degenerate case: both hooks
deliver as the base class does, with the same random draws in the same
order, so traces are byte-identical to a plain :class:`Network`. The
golden-trace suite pins that equivalence.

Jitter draws come from the dedicated ``network.wan`` stream of
:class:`~repro.sim.rng.RandomStreams`, so enabling jitter never perturbs
loss draws (and a jitter-free geo run draws nothing at all). Deliveries
over one link remain FIFO even under jitter — a jittered arrival is
clamped to the link's previous arrival time, modelling a single ordered
circuit rather than per-packet routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError, NetworkError
from .loss import LossModel
from .network import Network
from .node import Node
from .server import FifoServer
from .simulator import Simulator

__all__ = ["WanLink", "Topology", "GeoNetwork"]


@dataclass(frozen=True, slots=True)
class WanLink:
    """Static description of one inter-region link (symmetric).

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds (RTT / 2).
    bandwidth:
        Link capacity in bytes per second (default 1 Gbps, matching the
        NICs: the interesting WAN regime here is latency, not capacity).
    jitter:
        Maximum extra one-way delay in seconds; each crossing draws
        uniformly from ``[0, jitter]`` on the ``network.wan`` stream.
    """

    latency: float
    bandwidth: float = 1e9 / 8
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN is rejected too.
        if not (self.latency >= 0 and self.jitter >= 0):
            raise ConfigurationError("WAN latency and jitter must be non-negative")
        if not self.bandwidth > 0:
            raise ConfigurationError("WAN bandwidth must be positive")


class Topology:
    """Region names plus the WAN links joining them.

    Parameters
    ----------
    regions:
        Region names in declaration order. The order is meaningful: it is
        the deterministic tie-break used by latency-aware placement, and
        the first region is the default for nodes added without one.
    links:
        Mapping of unordered region pairs ``(a, b)`` to :class:`WanLink`.
        Pairs not listed fall back to the uniform ``wan_latency`` /
        ``wan_bandwidth`` / ``wan_jitter`` defaults.
    wan_latency:
        Default one-way latency for unlisted pairs. Required (directly or
        via ``links`` covering every pair) once there is more than one
        region.
    switch_delay:
        One-way delay of each region's local switch (the base model's
        ``propagation_delay``, default 50 us).
    """

    __slots__ = ("regions", "switch_delay", "_links")

    def __init__(
        self,
        regions: Iterable[str],
        links: Mapping[tuple[str, str], WanLink] | None = None,
        wan_latency: float | None = None,
        wan_bandwidth: float = 1e9 / 8,
        wan_jitter: float = 0.0,
        switch_delay: float = 50e-6,
    ) -> None:
        self.regions: tuple[str, ...] = tuple(regions)
        if not self.regions:
            raise ConfigurationError("a topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigurationError("region names must be distinct")
        if not switch_delay >= 0:  # written so that NaN is rejected too
            raise ConfigurationError("switch_delay must be non-negative")
        self.switch_delay = switch_delay
        known = set(self.regions)
        self._links: dict[tuple[str, str], WanLink] = {}
        for (a, b), link in (links or {}).items():
            if a not in known or b not in known:
                raise ConfigurationError(f"link ({a!r}, {b!r}) names an unknown region")
            if a == b:
                raise ConfigurationError(f"region {a!r} cannot link to itself")
            self._links[(a, b)] = link
            self._links[(b, a)] = link
        default = None
        if wan_latency is not None:
            default = WanLink(wan_latency, bandwidth=wan_bandwidth, jitter=wan_jitter)
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                if (a, b) not in self._links:
                    if default is None:
                        raise ConfigurationError(
                            f"no WAN link between {a!r} and {b!r} "
                            "(give wan_latency or list the pair in links)"
                        )
                    self._links[(a, b)] = default
                    self._links[(b, a)] = default

    @classmethod
    def single(cls, region: str = "dc0", switch_delay: float = 50e-6) -> "Topology":
        """The degenerate one-region topology (the paper's single switch)."""
        return cls([region], switch_delay=switch_delay)

    @property
    def default_region(self) -> str:
        """Where nodes land when attached without an explicit region."""
        return self.regions[0]

    def link(self, a: str, b: str) -> WanLink:
        """The WAN link between two distinct regions."""
        try:
            return self._links[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no WAN link between {a!r} and {b!r}") from None

    def one_way(self, a: str, b: str) -> float:
        """One-way WAN latency between regions (0 within a region)."""
        if a == b:
            if a not in self.regions:
                raise ConfigurationError(f"unknown region {a!r}")
            return 0.0
        return self.link(a, b).latency

    def rtt(self, a: str, b: str) -> float:
        """Round-trip WAN latency between regions (0 within a region)."""
        return 2.0 * self.one_way(a, b)


class _LiveLink:
    """Run-time state of one *direction* of a WAN link."""

    __slots__ = (
        "src_region", "dst_region", "latency", "jitter", "fifo",
        "last_arrival", "down", "messages_carried", "bytes_carried",
        "messages_dropped",
    )

    def __init__(self, sim: Simulator, src_region: str, dst_region: str, spec: WanLink) -> None:
        self.src_region = src_region
        self.dst_region = dst_region
        self.latency = spec.latency
        self.jitter = spec.jitter
        self.fifo = FifoServer(sim, rate=spec.bandwidth, name=f"wan.{src_region}->{dst_region}")
        self.last_arrival = 0.0
        self.down = False
        self.messages_carried = 0
        self.bytes_carried = 0
        self.messages_dropped = 0


class GeoNetwork(Network):
    """A multi-region fabric: one switch per region, WAN links between.

    Sending is the base class's (egress, counters, probes, loss draws);
    this class routes a frame at its first hop. Intra-region legs are
    delivered there as on a single switch; only a leg whose destination
    sits in a different region is routed over the region pair's WAN
    link. Loss is still decided per receiver leg at send time, in
    membership order, on the shared ``network.loss`` stream — link state
    (a partitioned WAN link) is evaluated at link-entry time, like a
    node's ``up`` flag.
    """

    __slots__ = ("topology", "region_of", "wan_jitter_scale", "_wan_rng", "_wan")

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        bandwidth: float = 1e9 / 8,
        loss: LossModel | None = None,
    ) -> None:
        super().__init__(
            sim,
            propagation_delay=topology.switch_delay,
            bandwidth=bandwidth,
            loss=loss,
        )
        self.topology = topology
        self.region_of: dict[str, str] = {}
        self.wan_jitter_scale = 1.0
        # Dedicated stream: jitter draws never perturb network.loss.
        self._wan_rng = sim.random.get("network.wan")
        self._wan: dict[tuple[str, str], _LiveLink] = {}
        for i, a in enumerate(topology.regions):
            for b in topology.regions[i + 1:]:
                spec = topology.link(a, b)
                self._wan[(a, b)] = _LiveLink(sim, a, b, spec)
                self._wan[(b, a)] = _LiveLink(sim, b, a, spec)
        if self.probe is not None:
            # A network-creation observer (e.g. an obs session) attaches
            # its probe during super().__init__, before the links exist.
            for link in self._wan.values():
                link.fifo.probe = self.probe

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(
        self, node: Node, bandwidth: float | None = None, region: str | None = None
    ) -> Node:
        """Attach ``node`` to its region's switch (default: first region)."""
        if region is None:
            region = self.topology.default_region
        elif region not in self.topology.regions:
            raise NetworkError(f"unknown region {region!r}")
        super().add_node(node, bandwidth)
        self.region_of[node.name] = region
        return node

    def nodes_in(self, region: str) -> list[str]:
        """Names of the nodes attached in ``region``, in attach order."""
        return [name for name, r in self.region_of.items() if r == region]

    def attach_probe(self, bus) -> None:
        super().attach_probe(bus)
        # Called mid-super().__init__ by creation observers, before the
        # link table exists; __init__ re-propagates the probe afterwards.
        for link in getattr(self, "_wan", {}).values():
            link.fifo.probe = bus

    # ------------------------------------------------------------------
    # WAN fault injection
    # ------------------------------------------------------------------
    def partition_wan(self, a: str, b: str) -> None:
        """Cut the WAN link between two regions (both directions)."""
        self._wan_pair(a, b)
        self._wan[(a, b)].down = True
        self._wan[(b, a)].down = True

    def heal_wan(self, a: str | None = None, b: str | None = None) -> None:
        """Restore one WAN link, or every link when called without args."""
        if a is None and b is None:
            for link in self._wan.values():
                link.down = False
            return
        assert a is not None and b is not None
        self._wan_pair(a, b)
        self._wan[(a, b)].down = False
        self._wan[(b, a)].down = False

    def set_wan_jitter_scale(self, factor: float) -> None:
        """Scale every link's jitter amplitude (1.0 = configured level)."""
        if not factor >= 0:  # written so that NaN is rejected too
            raise ConfigurationError("jitter scale must be non-negative")
        self.wan_jitter_scale = float(factor)

    def wan_links_down(self) -> list[tuple[str, str]]:
        """Region pairs whose link is currently cut (each once, sorted)."""
        return sorted(
            (a, b) for (a, b), link in self._wan.items() if link.down and a < b
        )

    def _wan_pair(self, a: str, b: str) -> None:
        if (a, b) not in self._wan:
            raise NetworkError(f"no WAN link between {a!r} and {b!r}")

    # ------------------------------------------------------------------
    # Routing: the two first-hop hooks of Network.send / multicast
    # ------------------------------------------------------------------
    def _route(self, dst: str, port: str, src: str, msg: Any, size: int) -> None:
        """A unicast frame at the sender's switch: deliver, or cross the WAN."""
        region_of = self.region_of
        src_region = region_of[src]
        dst_region = region_of[dst]
        if src_region == dst_region:
            self._deliver(dst, port, src, msg, size)
        else:
            self._wan_entry(self._wan[(src_region, dst_region)], [dst], port, src, msg, size)

    def _route_group(self, targets: list[str], port: str, src: str, msg: Any, size: int) -> None:
        """A multicast frame's survivors at the sender's switch.

        In-region subscribers are delivered in membership order, as on a
        single switch; then each remote region's subscribers enter that
        region's WAN link **once** and fan out at the remote switch
        (regions in first-occurrence order: deterministic).
        """
        region_of = self.region_of
        src_region = region_of[src]
        deliver = self._deliver
        remote: dict[str, list[str]] = {}
        for dst in targets:
            region = region_of[dst]
            if region == src_region:
                deliver(dst, port, src, msg, size)
            else:
                remote.setdefault(region, []).append(dst)
        for region, bucket in remote.items():
            self._wan_entry(self._wan[(src_region, region)], bucket, port, src, msg, size)

    def _wan_entry(
        self, link: _LiveLink, targets: list[str], port: str, src: str, msg: Any, size: int
    ) -> None:
        """A frame reaching its WAN link: serialize, cross, fan out remote.

        Link state is sampled here (entry time), so a partition installed
        mid-flight drops frames already queued toward the link — the same
        semantics as a node crashing before its ingress dispatch. The
        arrival is clamped to the link's previous arrival, keeping
        deliveries over one link FIFO even under jitter.
        """
        if link.down:
            link.messages_dropped += len(targets)
            self.messages_dropped += len(targets)
            probe = self.probe
            if probe is not None and "net.drop" in probe.subscribers:
                for dst in targets:
                    probe.emit(
                        "net.drop", self.sim.now, src,
                        dst=dst, port=port, msg=type(msg).__name__, size=size,
                    )
            return
        finish = link.fifo.submit(size)
        link.messages_carried += 1
        link.bytes_carried += size
        delay = link.latency
        jitter = link.jitter * self.wan_jitter_scale
        if jitter > 0.0:
            delay += self._wan_rng.uniform(0.0, jitter)
        arrival = finish + delay
        if arrival < link.last_arrival:
            arrival = link.last_arrival
        link.last_arrival = arrival
        self.sim.at(arrival, self._fan_in, targets, port, src, msg, size)
