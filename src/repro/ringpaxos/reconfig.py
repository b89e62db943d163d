"""Ring reconfiguration: the configuration service's record of a ring.

Paper, Section IV-C: Ring Paxos keeps only f+1 acceptors in the ring; the
remaining acceptors are spares (shared across rings, as in Cheap Paxos).
When an acceptor is suspected, the ring is reconfigured — the suspect is
excluded, a spare is included — and until then, learners of this ring
cannot deliver.

The ring's own roles run the takeover by messages (see
:mod:`~repro.ringpaxos.acceptor`). :class:`RingFailover` is what a
configuration service holds for the ring: the spare pool, the layout and
coordinator, the acceptors that own rounds, and whom to tell when a
successor recovers. It reads no process's liveness and drives no step.
"""

from __future__ import annotations

from typing import Callable

from ..metrics import MetricsRegistry
from ..obs.probe import FAILOVER_SUSPECT, FAILOVER_TAKEOVER
from ..sim.node import Node
from ..sim.simulator import Simulator
from .acceptor import RingAcceptor
from .config import RingConfig
from .coordinator import RingCoordinator

__all__ = ["RingFailover"]


class RingFailover:
    """The configuration service's record of one ring."""

    def __init__(
        self,
        sim: Simulator,
        ring_id: int,
        spare_nodes: list[Node],
        on_new_coordinator: Callable[[RingCoordinator], None],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.coordinator: RingCoordinator | None = None  # set by the deployment
        # The caller's list, not a copy: RingHandle.spares and this pool are
        # one list, so a promoted spare or an online add/remove shows in both.
        self.spare_nodes = spare_nodes
        self.on_new_coordinator = on_new_coordinator
        self.metrics = metrics
        # Every acceptor of the ring by node name — members, spares and the
        # coordinators' own — in enlistment order, which is round ownership.
        self.acceptors: dict[str, RingAcceptor] = {}
        base = metrics if metrics is not None else MetricsRegistry()
        own = base.child(ring=ring_id, role="failover")
        self.suspects = own.counter("suspects")
        self.takeovers = own.counter("takeovers")
        self.degraded_takeovers = own.counter("degraded_takeovers")

    @property
    def config(self) -> RingConfig:
        """The ring's layout: its serving coordinator's."""
        return self.coordinator.config

    def enlist(self, acceptor: RingAcceptor) -> int:
        """Record ``acceptor``; returns the index of the rounds it owns."""
        self.acceptors[acceptor.node.name] = acceptor
        return len(self.acceptors) - 1

    def universe(self) -> list[str]:
        """Whom a Phase 1 asks: f spares, then the ring's f+1 members — the
        2f+1 acceptors of Cheap Paxos."""
        layout = self.config.acceptors
        return [node.name for node in self.spare_nodes[: len(layout) - 1]] + layout

    def _emit(self, kind: str, **data) -> None:
        bus = self.sim.probe
        if bus is not None and kind in bus.subscribers:
            ring = self.config.ring_id
            bus.emit(kind, self.sim.now, f"failover/ring{ring}", ring=ring, **data)

    def suspected(self, by: str) -> None:
        """A member suspected the coordinator and stood as a candidate."""
        self.suspects.value += 1
        self.takeovers.value += 1
        self._emit(FAILOVER_SUSPECT, by=by, coordinator=self.config.coordinator)

    def recovered(self, coordinator: RingCoordinator) -> None:
        """A successor recovered: record it, take its spares out of the
        pool, and tell the deployment. Nothing is handed over: no process
        observes a coordinator's decisions but through the ring's own
        messages, so a successor needs no hook."""
        self.coordinator = coordinator
        layout = coordinator.config.acceptors
        kept = [node for node in self.spare_nodes if node.name not in layout]
        degraded = len(kept) == len(self.spare_nodes)  # no spare left to include
        self.spare_nodes[:] = kept
        self.degraded_takeovers.value += degraded
        self._emit(FAILOVER_TAKEOVER, coordinator=coordinator.node.name,
                   rnd=coordinator.rnd, ring_size=len(layout), degraded=degraded)
        self.on_new_coordinator(coordinator)
