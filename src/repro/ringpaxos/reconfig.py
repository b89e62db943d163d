"""Ring reconfiguration: failure detection and coordinator takeover.

Paper, Section IV-C: Ring Paxos keeps only f+1 acceptors in the ring; the
remaining acceptors are spares (shared across rings, as in Cheap Paxos).
When an acceptor is suspected, the ring is reconfigured — the suspect is
excluded, a spare is included — and until then, learners of this ring
cannot deliver.

:class:`RingFailover` implements the coordinator-failure case end to end:

* every non-coordinator acceptor watches the coordinator's multicast
  liveness (heartbeats double as failure-detector input);
* on suspicion, the lowest-indexed surviving acceptor promotes itself:
  it retires its old data path, lays the new ring out as
  ``[spare, other survivors..., itself]``, and runs Phase 1 over all
  instances with a round it owns (see
  :meth:`~repro.ringpaxos.coordinator.RingCoordinator.begin_takeover`);
* safety: a decision required accepts from all f+1 in-ring acceptors, and
  the takeover quorum (initiator + majority-completing members) intersects
  every such quorum in at least one surviving acceptor, so every possibly
  decided value is recovered and re-proposed under the higher round;
* the new coordinator announces a :class:`CoordinatorChange` on the
  ring's multicast group (learners and surviving acceptors re-chain);
* the ring's hooks are ring state, not coordinator state: the successor
  takes over its predecessor's decide observer and group-redirect table
  (the very dict, so a drain installed mid-takeover is seen by both), and
  ``on_new_coordinator`` — the deployment, standing in for the
  configuration service — re-targets proposers. Nothing is re-installed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..errors import ConfigurationError
from ..metrics import MetricsRegistry
from ..obs.probe import FAILOVER_SUSPECT, FAILOVER_TAKEOVER
from ..paxos.ballot import next_round
from ..sim.network import Network
from ..sim.node import Node
from ..sim.simulator import Simulator
from .acceptor import RingAcceptor
from .config import RingConfig
from .coordinator import RingCoordinator

__all__ = ["RingFailover"]


class RingFailover:
    """Automated coordinator failover for one ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        coordinator: RingCoordinator,
        acceptors: list[RingAcceptor],
        spare_nodes: list[Node],
        on_new_coordinator: Callable[[RingCoordinator], None],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not acceptors:
            raise ConfigurationError("failover needs at least one non-coordinator acceptor")
        config = coordinator.config
        self.sim = sim
        self.network = network
        # The ring's serving coordinator; a takeover replaces it once the
        # successor has recovered.
        self.coordinator = coordinator
        self.acceptors = list(acceptors)
        # The caller's list, not a copy: a deployment's RingHandle.spares and
        # this pool are one list, so a takeover that promotes a spare or an
        # online add/remove is seen by both.
        self.spare_nodes = spare_nodes
        self.on_new_coordinator = on_new_coordinator
        self.metrics = metrics
        self.last_rnd = 0
        base = metrics if metrics is not None else MetricsRegistry()
        own = base.child(ring=config.ring_id, role="failover")
        self._suspects_ctr = own.counter("suspects")
        self.takeovers = own.counter("takeovers")
        self.degraded_takeovers = own.counter("degraded_takeovers")
        self._ring_size_gauge = own.gauge("ring_size")
        self._ring_size_gauge.value = config.ring_size
        # The total acceptor universe (in-ring + spares) defines majority.
        self.total_acceptors = config.ring_size + len(self.spare_nodes)
        self._in_progress = False
        self._last_degraded = False
        self._probe_source = f"failover/ring{config.ring_id}"
        for acceptor in self.acceptors:
            acceptor.watch_coordinator(self._on_suspect)

    def _emit(self, kind: str, **data) -> None:
        bus = self.sim.probe
        if bus is not None and kind in bus.subscribers:
            bus.emit(kind, self.sim.now, self._probe_source,
                     ring=self.config.ring_id, **data)

    @property
    def config(self) -> RingConfig:
        """The ring's layout: its serving coordinator's."""
        return self.coordinator.config

    @property
    def majority(self) -> int:
        """Majority of the total acceptor universe (in-ring + spares)."""
        return self.total_acceptors // 2 + 1

    # ------------------------------------------------------------------
    # Takeover
    # ------------------------------------------------------------------
    def _on_suspect(self, suspecting: RingAcceptor) -> None:
        if self._in_progress or suspecting.crashed:
            return
        self._suspects_ctr.value += 1
        self._emit(FAILOVER_SUSPECT, by=suspecting.node.name,
                   coordinator=self.config.coordinator)
        survivors = [a for a in self.acceptors if not a.crashed and a.node.up]
        if suspecting not in survivors:
            survivors.append(suspecting)
        self._in_progress = True
        self.takeovers.value += 1
        # Deterministic initiator: the lowest-indexed survivor. (The first
        # suspicion usually comes from it anyway; if another acceptor's
        # timer fired first, defer to the canonical choice.)
        initiator = min(survivors, key=lambda a: a.index)
        others = [a for a in survivors if a is not initiator]

        spare_acceptor = None
        new_order: list[str] = []
        spare_node = None
        if self.spare_nodes:
            spare_node = self.spare_nodes.pop(0)
            new_order.append(spare_node.name)
        # With the spare pool exhausted the ring shrinks by one member.
        self._last_degraded = spare_node is None
        if self._last_degraded:
            self.degraded_takeovers.value += 1
        new_order.extend(a.node.name for a in others)
        new_order.append(initiator.node.name)
        new_config = dataclasses.replace(self.config, acceptors=new_order)
        self._ring_size_gauge.value = len(new_order)

        if spare_node is not None:
            # Instantiate the spare's acceptor role with the new layout
            # (the JoinRing step of a real deployment).
            spare_acceptor = RingAcceptor(
                self.sim, self.network, spare_node, new_config, metrics=self.metrics
            )
        for acceptor in others:
            acceptor.stop_watching()
            acceptor.adopt(new_config)
        initiator.retire()

        # Strictly above every round any earlier coordinator of this ring
        # used (the orchestrator serialises takeovers, so tracking the
        # highest installed round suffices for uniqueness).
        rnd = next_round(self.last_rnd, self._universe_index(initiator), self.total_acceptors)
        self.last_rnd = rnd
        coordinator = RingCoordinator(
            self.sim, self.network, initiator.node, new_config, rnd=rnd,
            metrics=self.metrics,
        )
        if spare_acceptor is not None:
            self.acceptors.append(spare_acceptor)
        local = initiator.local_promise(0, rnd)
        # The universe majority is capped at the members that can still
        # answer Phase 1 (survivors re-chained into the new layout plus
        # the joining spare). Sound because a decision required accepts
        # from ALL in-ring acceptors and every takeover re-proposes the
        # recovered history under its round into the new membership — any
        # surviving in-ring member alone covers the decided prefix. The
        # uncapped count wedges a degraded (spare-exhausted) takeover
        # forever: the initiator would await promises from the dead.
        reachable = len(others) + (1 if spare_acceptor is not None else 0)
        promises_needed = min(max(0, self.majority - 1), reachable)
        coordinator.begin_takeover(local, promises_needed, on_recovered=self._recovered)

    def _recovered(self, coordinator: RingCoordinator) -> None:
        self._in_progress = False
        predecessor, self.coordinator = self.coordinator, coordinator
        coordinator.on_decide = predecessor.on_decide
        coordinator.redirects = predecessor.redirects
        self._emit(FAILOVER_TAKEOVER, coordinator=coordinator.node.name,
                   rnd=coordinator.rnd, ring_size=coordinator.config.ring_size,
                   degraded=self._last_degraded)
        # Re-arm failure detection on the new ring's member acceptors so
        # a later failure of the new coordinator can also be handled
        # (while spares remain).
        for acceptor in self.acceptors:
            if (
                not acceptor.crashed
                and not acceptor.retired
                and acceptor.node.name in coordinator.config.acceptors[:-1]
            ):
                acceptor.watch_coordinator(self._on_suspect)
        self.on_new_coordinator(coordinator)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _universe_index(self, acceptor: RingAcceptor) -> int:
        """A stable ballot-owner index for ``acceptor`` in the universe."""
        return acceptor.index % self.total_acceptors
