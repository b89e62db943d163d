"""The Multi-Ring Paxos deployment: the library's top-level facade.

A :class:`MultiRingPaxos` object owns the simulated cluster: it builds one
Ring Paxos instance per ring (acceptor nodes, coordinator, skip manager),
registers the groups, and hands out learners and proposers. Typical use::

    from repro import MultiRingConfig, MultiRingPaxos

    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2))
    learner = mrp.add_learner(groups=[0, 1],
                              on_deliver=lambda g, v: print(g, v.payload))
    proposer = mrp.add_proposer()
    proposer.multicast(0, payload="hello", size=8192)
    mrp.run(until=1.0)

Failure injection for the Figure 12 experiment is built in:
``crash_coordinator`` / ``restart_coordinator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..calibration import DISK_BANDWIDTH_BYTES_PER_S, DISK_BUFFER_BYTES
from ..errors import ConfigurationError
from ..metrics import MetricsRegistry
from ..ringpaxos.acceptor import RingAcceptor
from ..ringpaxos.builder import attach_node
from ..ringpaxos.config import RingConfig
from ..ringpaxos.coordinator import RingCoordinator
from ..ringpaxos.messages import ClientValue
from ..ringpaxos.reconfig import RingFailover
from ..sim.network import Network
from ..sim.node import Node
from ..sim.simulator import Simulator
from ..sim.topology import GeoNetwork
from .admission import AdmissionPolicy
from .config import MultiRingConfig
from .groups import GroupRegistry
from .learner import MultiRingLearner
from .placement import place_rings
from .proposer import MultiRingProposer
from .skip import SkipManager, skips_due

__all__ = ["RingHandle", "MultiRingPaxos"]


@dataclass(slots=True)
class RingHandle:
    """Everything belonging to one deployed ring."""

    coordinator: RingCoordinator
    skip_manager: SkipManager
    acceptors: list[RingAcceptor] = field(default_factory=list)
    spares: list[Node] = field(default_factory=list)
    failover: RingFailover | None = None
    # A retired ring (emptied by a ring merge) stops producing instances
    # (its skip manager is down) but its processes stay up: learners that
    # have not yet consumed their switch cut still drain its stream.
    retired: bool = False

    @property
    def config(self) -> RingConfig:
        """The ring's current layout: its serving coordinator's."""
        return self.coordinator.config


class MultiRingPaxos:
    """A complete Multi-Ring Paxos deployment on a simulated cluster."""

    def __init__(
        self,
        config: MultiRingConfig | None = None,
        sim: Simulator | None = None,
        network: Network | None = None,
    ) -> None:
        self.config = config if config is not None else MultiRingConfig()
        self.sim = sim if sim is not None else Simulator(seed=self.config.seed)
        if network is not None:
            self.network = network
        elif self.config.topology is not None:
            self.network = GeoNetwork(self.sim, self.config.topology)
        else:
            self.network = Network(self.sim)
        # Ring id -> region, from latency-aware placement (empty without a
        # topology). Computed once: reconfiguration keeps a ring in place.
        self.ring_placement = place_rings(self.config)
        # One root registry for the whole deployment; every role creates
        # its metrics in a labeled child (ring=i, role=..., node=...).
        self.metrics = MetricsRegistry()
        self.registry = GroupRegistry()
        self.rings: dict[int, RingHandle] = {}
        # Ring id -> current layout. One table, shared by every learner and
        # proposer: a takeover or a new ring updates it in one place.
        self.ring_configs: dict[int, RingConfig] = {}
        self.learners: list[MultiRingLearner] = []
        self.proposers: list[MultiRingProposer] = []
        self._learner_count = 0
        self._proposer_count = 0
        assert self.config.n_rings is not None
        for ring_id in range(self.config.n_rings):
            self.rings[ring_id] = self._build_ring(ring_id)
        for group_id in range(self.config.n_groups):
            self.registry.add(group_id, self.config.ring_of_group(group_id))
        # Elasticity: epoch-numbered live remaps, ring splits/merges, and
        # the autoscaler hang off this manager. Constructing it is free —
        # it schedules nothing until an operation is requested.
        from .reconfig import ReconfigManager

        self.reconfig = ReconfigManager(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_ring(self, ring_id: int) -> RingHandle:
        cfg = self.config
        region = self.ring_placement.get(ring_id)
        acc_names = [f"mr{ring_id}-acc{i}" for i in range(cfg.acceptors_per_ring - 1)]
        acc_names.append(f"mr{ring_id}-coord")
        ring_config = RingConfig(
            ring_id=ring_id,
            acceptors=acc_names,
            durable=cfg.durable,
            batch_size=cfg.batch_size,
            batch_timeout=cfg.batch_timeout,
            window=cfg.window,
            suspect_timeout=cfg.suspect_timeout,
            acceptor_regions=[region] * len(acc_names) if region is not None else None,
        )
        nodes = []
        for name in acc_names + [f"mr{ring_id}-spare{i}" for i in range(cfg.spares_per_ring)]:
            node = Node(
                self.sim,
                name,
                disk_bandwidth=DISK_BANDWIDTH_BYTES_PER_S if cfg.durable else None,
                disk_buffer_bytes=DISK_BUFFER_BYTES,
            )
            attach_node(self.network, node, region)
            nodes.append(node)
        nodes, spares = nodes[: len(acc_names)], nodes[len(acc_names):]
        failover = host = None
        if cfg.auto_failover:
            failover = RingFailover(
                self.sim, ring_id, spares, partial(self._on_ring_failover, ring_id), self.metrics
            )
            # Dormant acceptors: the coordinator's node's own, which a higher
            # round's Phase 1 deposes the coordinator into, and the spares'.
            host, *_ = [
                RingAcceptor(self.sim, self.network, node, ring_config,
                             metrics=self.metrics, service=failover)
                for node in (nodes[-1], *spares)
            ]
        coordinator = RingCoordinator(
            self.sim, self.network, nodes[-1], ring_config, metrics=self.metrics, host=host
        )
        acceptors = [
            RingAcceptor(
                self.sim, self.network, node, ring_config, metrics=self.metrics, service=failover
            )
            for node in nodes[:-1]
        ]
        if failover is not None:
            failover.coordinator = coordinator
        skip_manager = SkipManager(
            self.sim,
            coordinator,
            lambda_rate=cfg.lambda_rate,
            delta=cfg.delta,
            metrics=self.metrics,
        )
        handle = RingHandle(
            coordinator=coordinator,
            skip_manager=skip_manager,
            acceptors=acceptors,
            spares=spares,
            failover=failover,
        )
        self.ring_configs[ring_id] = ring_config
        return handle

    # ------------------------------------------------------------------
    # Participants
    # ------------------------------------------------------------------
    def add_learner(
        self,
        groups: list[int],
        on_deliver: Callable[[int, ClientValue], None] | None = None,
        name: str | None = None,
        disk_bandwidth: float | None = None,
        region: str | None = None,
    ) -> MultiRingLearner:
        """Attach a new learner node subscribed to ``groups``.

        ``disk_bandwidth`` gives the learner's node a disk — needed when
        the learner backs a checkpointing replica, whose snapshot writes
        are billed against it. On a geo topology the learner is
        region-local by default: it lands in the subscriber region of its
        first group unless ``region`` says otherwise.
        """
        for gid in groups:
            if gid not in self.registry:
                raise ConfigurationError(f"unknown group {gid}")
        if name is None:
            name = f"mr-lrn{self._learner_count}"
        if region is None and groups:
            region = self.config.region_of_group(groups[0])
        node = Node(self.sim, name, disk_bandwidth=disk_bandwidth)
        attach_node(self.network, node, region)
        learner = MultiRingLearner(
            self.sim,
            self.network,
            node,
            self.registry,
            self.ring_configs,
            subscriptions=groups,
            on_deliver=on_deliver,
            m=self.config.m,
            buffer_limit=self.config.buffer_limit,
            learner_index=self._learner_count,
            series_bucket=self.config.series_bucket,
            metrics=self.metrics,
        )
        self._learner_count += 1
        self.learners.append(learner)
        return learner

    def add_proposer(
        self,
        name: str | None = None,
        region: str | None = None,
        admission: "AdmissionPolicy | None" = None,
    ) -> MultiRingProposer:
        """Attach a new proposer node (it can multicast to any group).

        ``admission`` bounds its intake (shed-or-delay backpressure, see
        ``repro.core.admission``); omitted, every submission is admitted.
        """
        if name is None:
            name = f"mr-prop{self._proposer_count}"
        node = Node(self.sim, name)
        attach_node(self.network, node, region)
        # A group mid-move reaches no ring until the move releases it.
        proposer = MultiRingProposer(
            self.sim, self.network, node, self.registry, self.ring_configs,
            metrics=self.metrics, held=self.reconfig.held_groups,
        )
        if admission is not None:
            proposer.enable_admission(admission)
        self._proposer_count += 1
        self.proposers.append(proposer)
        return proposer

    # ------------------------------------------------------------------
    # Execution and failure injection
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until``."""
        self.sim.run(until=until)

    def crash_coordinator(self, ring_id: int) -> None:
        """Stop a ring's coordinator (machine down, Figure 12 at t = 20 s)."""
        handle = self.rings[ring_id]
        handle.coordinator.crash()
        handle.coordinator.node.crash()

    def restart_coordinator(self, ring_id: int) -> None:
        """Bring a crashed coordinator back; it catches up with skips."""
        handle = self.rings[ring_id]
        handle.coordinator.node.restart()
        handle.coordinator.restart()

    def _on_ring_failover(self, ring_id: int, coordinator: RingCoordinator) -> None:
        """A takeover recovered: record the ring's new coordinator, layout
        and in-ring acceptors, and tell the proposers — the
        reconfiguration manager's too — where to submit. The skip manager
        keeps its rate window, so the first tick tops up the whole outage."""
        handle = self.rings[ring_id]
        handle.coordinator = coordinator
        members = handle.failover.acceptors
        handle.acceptors = [members[name] for name in coordinator.config.acceptors[:-1]]
        self.ring_configs[ring_id] = coordinator.config
        handle.skip_manager.follow(coordinator)
        for proposer in self.proposers:
            proposer.retarget(ring_id)
        cut_proposer = self.reconfig.ring_proposers.get(ring_id)
        if cut_proposer is not None:
            cut_proposer.retarget(coordinator.config)

    # ------------------------------------------------------------------
    # Elastic membership (ring add / retire)
    # ------------------------------------------------------------------
    def add_ring(self) -> int:
        """Deploy a fresh, empty ring; returns its id.

        The ring starts with no groups — traffic arrives once the
        reconfiguration manager remaps a group onto it. Its configuration
        enters the shared ``ring_configs``, so every learner and proposer
        can subscribe or submit there later. Its first instance is a skip
        of the λ·t instances a ring deployed at time 0 has decided by now,
        so its instance numbers line up with the other rings' in the
        learners' merge rounds.
        """
        ring_id = max(self.rings) + 1 if self.rings else 0
        handle = self.rings[ring_id] = self._build_ring(ring_id)
        behind, handle.skip_manager.carry = skips_due(self.config.lambda_rate * self.sim.now, 0.0)
        if behind > 0:
            handle.coordinator.propose_skip(behind)
        return ring_id

    def retire_ring(self, ring_id: int) -> None:
        """Take an emptied ring out of service (ring-merge completion).

        The ring must no longer order any group. Its skip manager stops
        (no new instances), but acceptors and the coordinator stay up so
        lagging learners can finish draining the decided stream.
        """
        handle = self.rings[ring_id]
        if handle.retired:
            return
        remaining = self.registry.groups_on_ring(ring_id)
        if remaining:
            raise ConfigurationError(
                f"cannot retire ring {ring_id}: still orders groups {remaining}"
            )
        handle.retired = True
        handle.skip_manager.crash()
