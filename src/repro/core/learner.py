"""The Multi-Ring Paxos learner: per-ring learners + deterministic merge.

One :class:`MultiRingLearner` lives on one node and subscribes to a set of
groups. For every ring backing those groups it instantiates a
:class:`~repro.ringpaxos.learner.RingLearner` (sharing the node, so all
rings compete for the same NIC and CPU — the resource model behind
Figure 6) and feeds the per-ring ordered streams into a
:class:`~repro.core.merge.DeterministicMerge`.

Messages of groups the learner does not subscribe to (possible when
several groups share a ring, Section IV-D) are discarded after the merge —
they still cost ingress bandwidth and CPU, as the paper notes.

All the quantities the evaluation plots are measured here: delivery
throughput (aggregate and per group), delivery latency from the original
multicast timestamp, per-ring receive rate, and merge-buffer occupancy.
"""

from __future__ import annotations

from typing import Callable


from ..metrics import BucketSeries, Counter, MetricsRegistry
from ..obs.probe import RECONFIG_DRAIN, RECONFIG_EPOCH
from ..ringpaxos.config import RingConfig
from ..ringpaxos.learner import RingLearner
from ..ringpaxos.messages import (
    CONTROL_GROUP,
    ClientValue,
    ConfigChange,
    DataBatch,
    SkipRange,
)
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from .groups import GroupRegistry
from .merge import DeterministicMerge, stream_ends

__all__ = ["MultiRingLearner"]


class MultiRingLearner(Process):
    """A learner subscribed to one or more groups.

    Parameters
    ----------
    subscriptions:
        Group ids this learner delivers; must exist in the registry.
    ring_configs:
        Mapping ring id -> :class:`RingConfig` of the deployment.
    on_deliver:
        Application callback ``(group_id, value)`` in merged order.
    m:
        The merge quota M (consensus instances per ring per visit).
    buffer_limit:
        Merge-buffer halt threshold in logical instances (Figure 10).
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        registry: GroupRegistry,
        ring_configs: dict[int, RingConfig],
        subscriptions: list[int],
        on_deliver: Callable[[int, ClientValue], None] | None = None,
        m: int = 1,
        buffer_limit: int = 200_000,
        learner_index: int = 0,
        series_bucket: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"mrlearner@{node.name}")
        if not subscriptions:
            raise ValueError("a learner must subscribe to at least one group")
        self.network = network
        self.node = node
        self.registry = registry
        self.subscriptions = sorted(set(subscriptions))
        self.on_deliver = on_deliver
        self.m = m
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(role="learner", node=node.name)
        self.delivered_messages = self.metrics.counter("delivered_messages")
        self.delivered_bytes = self.metrics.counter("delivered_bytes")
        self.discarded_messages = self.metrics.counter("discarded_messages")
        # Logical position in the merged delivery sequence. Unlike the
        # cumulative counter above, it is rewound by ``restore_state`` and
        # so always equals the index of the next delivery — checkpoints
        # record it, and the oracles use it to truncate their logs.
        self.delivered_log_count = 0
        self.latency = self.metrics.histogram("delivery_latency")
        self.delivery_series = self.metrics.series(
            "delivered_bytes_per_s", bucket_width=series_bucket
        )
        self.latency_series = self.metrics.series("latency_mean", bucket_width=series_bucket)
        self.group_bytes: dict[int, Counter] = {
            gid: self.metrics.counter("delivered_bytes", group=gid)
            for gid in self.subscriptions
        }
        self.group_series: dict[int, BucketSeries] = {
            gid: self.metrics.series(
                "delivered_bytes_per_s", bucket_width=series_bucket, group=gid
            )
            for gid in self.subscriptions
        }
        ring_order = registry.rings_for(self.subscriptions)
        self.merge = DeterministicMerge(
            ring_order=ring_order,
            m=m,
            on_deliver=self._merged_delivery,
            buffer_limit=buffer_limit,
            metrics=self.metrics,
        )
        # Reconfiguration state. ``ring_configs`` is the deployment's map
        # (kept current by it) so a ring joined later can be subscribed;
        # ``_group_rings`` is the ring each subscribed group is delivered
        # from, moved only when a switch cut is consumed, so the merge
        # switches at the decided boundary. ``_moves`` holds the moves of
        # subscribed groups seen (epoch -> move), ``_parked`` a group's
        # values from a ring its moves have not reached yet.
        self.ring_configs = ring_configs
        self.epoch = 0
        self._learner_index = learner_index
        self._series_bucket = series_bucket
        self._metrics_base = base
        self._group_rings = {gid: registry.ring_for(gid) for gid in self.subscriptions}
        self._moves: dict[int, dict] = {}
        self._parked: dict[int, list[tuple[int, int, ClientValue]]] = {}
        self.ring_learners: dict[int, RingLearner] = {}
        for ring_id in ring_order:
            config = ring_configs[ring_id]
            self.ring_learners[ring_id] = RingLearner(
                sim,
                network,
                node,
                config,
                learner_index=learner_index,
                on_decide=self._make_ring_feed(ring_id),
                series_bucket=series_bucket,
                metrics=base,
            )

    # ------------------------------------------------------------------
    # Ring stream -> merge
    # ------------------------------------------------------------------
    def _make_ring_feed(self, ring_id: int):
        def feed(instance: int, item: DataBatch | SkipRange) -> None:
            if self.crashed:
                return
            self.merge.push(ring_id, instance, item, self.sim.now)

        return feed

    # ------------------------------------------------------------------
    # Merged delivery
    # ------------------------------------------------------------------
    def _merged_delivery(self, ring_id: int, instance: int, value: ClientValue) -> None:
        if value.group == CONTROL_GROUP:
            if isinstance(value.payload, ConfigChange):
                self._on_config_change(value.payload)
            return
        ring = self._group_rings.get(value.group)
        if ring is None:
            # A co-hosted group this learner does not subscribe to: the
            # bandwidth and CPU were already spent; the message is dropped.
            self.discarded_messages.value += 1
            return
        if ring != ring_id and any(m["new_ring"] == ring_id and not m["applied"]
                                   for m in self._moves.values() if m["group"] == value.group):
            # Mid-move: the group's new ring is already delivering, but
            # this learner has not yet consumed the switch cut on the old
            # ring — its old-ring suffix for the group is still ahead.
            # Park the value; it is flushed, in new-ring order, at the
            # switch (so the group's stream stays old-suffix-then-new).
            self._parked.setdefault(value.group, []).append((ring_id, instance, value))
            return
        now = self.sim.now
        self.delivered_messages.value += 1
        self.delivered_log_count += 1
        self.delivered_bytes.value += value.size
        self.delivery_series.record(now, value.size)
        self.group_bytes[value.group].value += value.size
        self.group_series[value.group].record(now, value.size)
        lag = max(0.0, now - value.created_at)
        self.latency.record(lag)
        self.latency_series.record(now, lag)
        probe = self.sim.probe
        if probe is not None and "learner.deliver" in probe.subscribers:
            probe.emit(
                "learner.deliver", now, self.name,
                node=self.node.name, group=value.group,
                sender=value.sender, seq=value.seq,
                ring=ring_id, instance=instance,
            )
        if self.on_deliver is not None:
            self.on_deliver(value.group, value)

    # ------------------------------------------------------------------
    # Reconfiguration cuts (consumed in-stream, in merged order)
    # ------------------------------------------------------------------
    def _on_config_change(self, cut: ConfigChange) -> None:
        """Act on an epoch cut at its decided position in the merge.

        Every learner consumes the cuts of a move at a definite point of
        its delivery sequence, so all learners with the same subscription
        set reconfigure at the same logical boundary. A join (new ring)
        makes the move known: the new ring is kept, and the group's values
        on it park until the switch. The switch (old ring) activates the
        move, in the group's own order of moves: cuts on different rings
        can be consumed out of epoch order, so a switch whose old ring is
        not yet the group's waits for the switches that bring it there.
        """
        if cut.group in self.group_bytes:
            move = self._moves.setdefault(cut.epoch, {
                "epoch": cut.epoch, "group": cut.group, "old_ring": cut.old_ring,
                "new_ring": cut.new_ring, "join_instance": None, "applied": False,
            })
            if cut.kind == "switch" and move["join_instance"] is None:
                move["join_instance"] = cut.join_instance
                while (ready := self._next_move(cut.group)) is not None:
                    self._activate_move(ready)
                self._drop_unused_rings()
        self._adopt_epoch(cut)

    def _next_move(self, group: int) -> dict | None:
        """The group's next move — its earliest known one from the ring it
        is on — if that move's switch has been consumed."""
        ring = self._group_rings[group]
        for epoch in sorted(self._moves):
            move = self._moves[epoch]
            if move["group"] == group and not move["applied"] and move["old_ring"] == ring:
                return move if move["join_instance"] is not None else None
        return None

    def _activate_move(self, move: dict) -> None:
        """Deliver the group from its new ring: a learner new to the ring
        starts at the join instance, the merge joins it at its current
        place, and the values parked from it are next, in their decided
        order (the old-ring suffix is delivered: the group drained off
        the old ring before the switch was submitted)."""
        move["applied"] = True
        group, new_ring = move["group"], move["new_ring"]
        self._group_rings[group] = new_ring
        if new_ring not in self.ring_learners:
            self._start_ring_learner(new_ring, move["join_instance"], move["epoch"])
            self.merge.join(new_ring, move["join_instance"])
        parked = self._parked.pop(group, [])
        self._parked[group] = [p for p in parked if p[0] != new_ring]
        for rid, inst, value in parked:
            if rid == new_ring:
                self._merged_delivery(rid, inst, value)

    def _drop_unused_rings(self) -> None:
        """Leave every ring no subscribed group is on and no move seen
        and not yet applied starts from or goes to."""
        rings = set(self._group_rings.values())
        for move in self._moves.values():
            if not move["applied"]:
                rings.update((move["old_ring"], move["new_ring"]))
        for rid in list(self.ring_learners):
            if rid not in rings:
                dropped = self.ring_learners.pop(rid)
                dropped.crash()
                self.network.leave(dropped.config.multicast_group, self.node.name)
                self.merge.leave(rid)

    def _start_ring_learner(self, ring_id: int, join_instance: int, epoch: int) -> None:
        learner = RingLearner(
            self.sim,
            self.network,
            self.node,
            self.ring_configs[ring_id],
            learner_index=self._learner_index,
            on_decide=self._make_ring_feed(ring_id),
            series_bucket=self._series_bucket,
            metrics=self._metrics_base,
        )
        probe = self.sim.probe
        if probe is not None and RECONFIG_DRAIN in probe.subscribers:
            probe.emit(
                RECONFIG_DRAIN, self.sim.now, self.name,
                node=self.node.name, ring=ring_id,
                ring_source=learner.name, instance=join_instance,
                epoch=epoch,
            )
        learner.position_at(join_instance)
        self.ring_learners[ring_id] = learner

    def _adopt_epoch(self, cut: ConfigChange) -> None:
        if cut.epoch <= self.epoch:
            return
        self.epoch = cut.epoch
        probe = self.sim.probe
        if probe is not None and RECONFIG_EPOCH in probe.subscribers:
            probe.emit(
                RECONFIG_EPOCH, self.sim.now, self.name,
                node=self.node.name, role="learner", epoch=cut.epoch,
                group=cut.group, phase=cut.kind,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """True once the merge buffer overflowed (no recovery, as in Fig 10)."""
        return self.merge.halted

    @property
    def buffered_instances(self) -> float:
        """Logical instances waiting in the merge buffer."""
        return self.merge.buffered_instances.value

    def receive_rate_series(self, ring_id: int) -> BucketSeries:
        """Per-ring receive-side byte series (Figure 12's left plot)."""
        return self.ring_learners[ring_id].receive_series

    def on_crash(self) -> None:
        for learner in self.ring_learners.values():
            learner.crash()

    def on_restart(self) -> None:
        for learner in self.ring_learners.values():
            learner.restart()

    # ------------------------------------------------------------------
    # Checkpoint support (replica crash-recovery)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Everything needed to resume merged delivery from this point.

        Captured between deliveries (the replica checkpoints after fully
        applying a command), so the merge state — its place and what it has
        buffered, whose ends are the ring learners' input positions —
        describes the delivery sequence position exactly.
        """
        return {
            "merge": self.merge.snapshot(),
            "delivered": self.delivered_log_count,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a checkpoint; the suffix replays via normal decides.

        Call while the learner (and its ring learners) are still crashed:
        rollback touches only positions, and after the subsequent
        ``restart`` each ring learner's gap repair pulls the suffix from
        the rolled-back position. The ``learner.rewind`` probe tells the
        oracles to truncate this learner's merged-delivery log to the
        checkpoint.
        """
        ends = stream_ends(state["merge"])
        for ring_id, rl in self.ring_learners.items():
            # A ring joined after the checkpoint has no recorded position:
            # it goes on where it is (best effort under an in-flight
            # reconfiguration), and so does its merge queue.
            if ring_id in ends:
                rl.rollback_to(ends[ring_id])
        self.merge.restore(state["merge"])
        self.delivered_log_count = state["delivered"]
        probe = self.sim.probe
        if probe is not None and "learner.rewind" in probe.subscribers:
            probe.emit(
                "learner.rewind", self.sim.now, self.name,
                node=self.node.name, delivered=state["delivered"],
            )
