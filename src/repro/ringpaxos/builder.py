"""Convenience builder for single-ring deployments.

Wires one complete Ring Paxos instance — acceptor nodes (the last one
doubling as coordinator), learner nodes, proposer nodes — onto a simulator
and network, using the paper's defaults (2 in-ring acceptors, 1 Gbps NICs,
disks only in Recoverable mode). Multi-Ring Paxos has its own deployment
builder in ``repro.core.deployment`` that composes these pieces across
rings and shared learner nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..calibration import DISK_BANDWIDTH_BYTES_PER_S, DISK_BUFFER_BYTES
from ..errors import ConfigurationError
from ..metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.node import Node
from ..sim.simulator import Simulator
from .acceptor import RingAcceptor
from .config import RingConfig
from .coordinator import RingCoordinator
from .learner import RingLearner
from .proposer import RingProposer

__all__ = ["RingDeployment", "attach_node", "build_ring"]


def attach_node(network: Network, node: Node, region: str | None) -> Node:
    """Add ``node`` to ``network``, in ``region`` when one is requested.

    The region keyword exists only on :class:`~repro.sim.topology.
    GeoNetwork`; passing one to a single-switch network is a
    configuration error rather than a silent collapse to one site.
    """
    if region is None:
        return network.add_node(node)
    if not hasattr(network, "region_of"):
        raise ConfigurationError(
            f"node {node.name!r} requests region {region!r} but the network "
            "has no regions (use a GeoNetwork)"
        )
    return network.add_node(node, region=region)


@dataclass(slots=True)
class RingDeployment:
    """Handles to every role of one deployed ring."""

    config: RingConfig
    coordinator: RingCoordinator
    acceptors: list[RingAcceptor] = field(default_factory=list)
    learners: list[RingLearner] = field(default_factory=list)
    proposers: list[RingProposer] = field(default_factory=list)


def build_ring(
    sim: Simulator,
    network: Network,
    ring_id: int = 0,
    n_acceptors: int = 2,
    n_learners: int = 1,
    n_proposers: int = 1,
    durable: bool = False,
    disk_bandwidth: float = DISK_BANDWIDTH_BYTES_PER_S,
    learner_nodes: list[Node] | None = None,
    on_deliver=None,
    metrics: MetricsRegistry | None = None,
    acceptor_regions: list[str] | None = None,
    learner_regions: list[str] | None = None,
    proposer_regions: list[str] | None = None,
    **config_kwargs,
) -> RingDeployment:
    """Create nodes and roles for one ring and wire them together.

    Node names follow ``r{ring_id}-acc{i}`` / ``r{ring_id}-coord`` /
    ``r{ring_id}-lrn{i}`` / ``r{ring_id}-prop{i}``. Pass pre-existing
    ``learner_nodes`` to attach this ring's learners to shared machines
    (how Multi-Ring learners subscribe to several rings).

    On a :class:`~repro.sim.topology.GeoNetwork`, ``acceptor_regions``
    (one region per acceptor, ring order — the last is the coordinator),
    ``learner_regions``, and ``proposer_regions`` pin each node to a
    region; this is how a ring is *stretched* across datacenters.
    """
    acc_names = [f"r{ring_id}-acc{i}" for i in range(n_acceptors - 1)]
    acc_names.append(f"r{ring_id}-coord")
    config = RingConfig(
        ring_id=ring_id, acceptors=acc_names, durable=durable,
        acceptor_regions=acceptor_regions, **config_kwargs,
    )
    if learner_regions is not None and len(learner_regions) != n_learners:
        raise ConfigurationError("learner_regions must name one region per learner")
    if proposer_regions is not None and len(proposer_regions) != n_proposers:
        raise ConfigurationError("proposer_regions must name one region per proposer")

    acc_nodes = []
    for i, name in enumerate(acc_names):
        node = Node(
            sim,
            name,
            disk_bandwidth=disk_bandwidth if durable else None,
            disk_buffer_bytes=DISK_BUFFER_BYTES,
        )
        attach_node(network, node, acceptor_regions[i] if acceptor_regions else None)
        acc_nodes.append(node)

    if metrics is None:
        metrics = MetricsRegistry()
    coordinator = RingCoordinator(sim, network, acc_nodes[-1], config, metrics=metrics)
    acceptors = [
        RingAcceptor(sim, network, node, config, metrics=metrics) for node in acc_nodes[:-1]
    ]

    if learner_nodes is None:
        learner_nodes = []
        for i in range(n_learners):
            node = Node(sim, f"r{ring_id}-lrn{i}")
            attach_node(network, node, learner_regions[i] if learner_regions else None)
            learner_nodes.append(node)
    learners = [
        RingLearner(
            sim, network, node, config,
            learner_index=i, on_deliver=on_deliver, metrics=metrics,
        )
        for i, node in enumerate(learner_nodes)
    ]

    proposers = []
    for i in range(n_proposers):
        node = Node(sim, f"r{ring_id}-prop{i}")
        attach_node(network, node, proposer_regions[i] if proposer_regions else None)
        proposers.append(RingProposer(sim, network, node, config))

    return RingDeployment(
        config=config,
        coordinator=coordinator,
        acceptors=acceptors,
        learners=learners,
        proposers=proposers,
    )
