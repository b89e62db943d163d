"""Ring Paxos learners.

A learner subscribes to its ring's ip-multicast group, so it receives the
full client values in Phase 2A packets and learns outcomes from the
decision announcements piggybacked on later multicasts (paper, Figure 3,
step 6). It emits decided items — data batches or skip ranges — in gapless
*logical instance* order through ``on_decide``; data batches are also
unpacked to the application through ``on_deliver``.

Loss recovery follows Section III-B: a learner that received a value
without its notification, the notification without the value, or neither,
asks its *preferential acceptor* to repair the head-of-line instance. The
decision frontier carried by coordinator heartbeats makes trailing losses
observable.

The learner also measures everything the evaluation plots: delivery
throughput (bytes and messages, cumulative and per-second series),
delivery latency (stamped at multicast time), and the receive-side byte
series used in Figure 12.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..calibration import (
    CPU_BYTE_COST_LEARNER,
    CPU_FIXED_COST_LEARNER,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process, Timer
from .config import RingConfig
from .messages import (
    CatchupReply,
    CatchupRequest,
    ClientValue,
    CoordinatorChange,
    DataBatch,
    DecisionAnnounce,
    Heartbeat,
    Phase2A,
    RepairReply,
    RepairRequest,
    SkipRange,
)
from .valuestore import ValueStore

__all__ = ["RingLearner"]


def _item_fingerprint(item: DataBatch | SkipRange) -> tuple:
    """Content fingerprint of a decided item, for the agreement oracle.

    Identifies the item by what was decided — the batched values' (sender,
    seq, group) identities, or the skip length — not by the value id alone,
    so id reuse across coordinator changes cannot mask a divergence.
    """
    if isinstance(item, DataBatch):
        return ("batch", item.value_id, tuple((v.sender, v.seq, v.group) for v in item.values))
    return ("skip", item.count)


class RingLearner(Process):
    """Learner role for one ring.

    Parameters
    ----------
    learner_index:
        Used to spread learners across preferential acceptors.
    on_decide:
        ``(instance, item)`` for every decided item in logical order —
        including skip ranges. This is the stream Multi-Ring Paxos merges.
    on_deliver:
        ``(instance, client_value)`` for application messages only.
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
        learner_index: int = 0,
        on_decide: Callable[[int, DataBatch | SkipRange], None] | None = None,
        on_deliver: Callable[[int, ClientValue], None] | None = None,
        series_bucket: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"learner@{node.name}/ring{config.ring_id}")
        self.network = network
        self.node = node
        self.config = config
        self.learner_index = learner_index
        self.on_decide = on_decide
        self.on_deliver = on_deliver
        self.next_instance = 0
        self.frontier = 0  # highest instance known to exist (from heartbeats etc.)
        self.values = ValueStore()
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(ring=config.ring_id, role="learner", node=node.name)
        self.delivered_messages = self.metrics.counter("delivered_messages")
        self.delivered_bytes = self.metrics.counter("delivered_bytes")
        self.received_bytes = self.metrics.counter("received_bytes")
        self.skipped_instances = self.metrics.counter("skipped_instances")
        self.repairs_requested = self.metrics.counter("repairs_requested")
        self.catchups_requested = self.metrics.counter("catchups_requested")
        self.reorder_depth = self.metrics.gauge("reorder_buffered")
        self.latency = self.metrics.histogram("delivery_latency")
        self.delivery_series = self.metrics.series(
            "delivered_bytes_per_s", bucket_width=series_bucket
        )
        self.receive_series = self.metrics.series(
            "received_bytes_per_s", bucket_width=series_bucket
        )
        self.latency_series = self.metrics.series("latency_mean", bucket_width=series_bucket)
        self._ready: dict[int, DataBatch | SkipRange] = {}
        self._repair_attempts = 0
        self._last_repair_instance = -1
        self._awaiting_value: dict[int, int] = {}  # instance -> value id
        self._awaiting_by_vid: dict[int, int] = {}  # value id -> instance
        self._learner_port = f"rp{config.ring_id}.learner"
        network.join(config.multicast_group, node.name)
        node.register(config.mcast_port, self._on_mcast)
        node.register(self._learner_port, self._on_learner_port)
        self._repair_timer = PeriodicTimer(sim, config.repair_interval, self._check_gaps)
        self._repair_timer.start()
        # Catch-up (pull-based state transfer after a restart): a one-shot
        # timer drives retries with exponential backoff; replies that make
        # progress reset the backoff, timeouts rotate the target.
        self._catchup_timer = Timer(sim, config.repair_interval, self._on_catchup_timeout)
        self._catchup_backoff = config.repair_interval
        self._catchup_attempts = 0
        self._catching_up = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buffered_items(self) -> int:
        """Decided items waiting for earlier instances (out-of-order)."""
        return len(self._ready)

    @property
    def preferential_acceptor(self) -> str:
        """The acceptor this learner sends repair requests to."""
        return self.config.preferential_acceptor(self.learner_index)

    # ------------------------------------------------------------------
    # Multicast traffic
    # ------------------------------------------------------------------
    def _on_mcast(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, Phase2A):
            self.received_bytes.value += msg.item.size
            self.receive_series.record(self.sim.now, msg.item.size)
            cost = CPU_FIXED_COST_LEARNER + CPU_BYTE_COST_LEARNER * msg.item.size
            self.node.cpu.execute(cost, self._on_phase2a, (msg,))
        elif isinstance(msg, DecisionAnnounce):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._on_decisions, (msg.decisions,)
            )
        elif isinstance(msg, Heartbeat):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_heartbeat, (msg,))
        elif isinstance(msg, CoordinatorChange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_coordinator_change, (msg,))

    def _on_phase2a(self, msg: Phase2A) -> None:
        if self.crashed:
            return
        value_id = msg.item.value_id if isinstance(msg.item, DataBatch) else -msg.instance - 1
        self.values.put(value_id, msg.item)
        self.frontier = max(self.frontier, msg.instance + msg.item.instance_count)
        # A decision that was waiting for this value can now be placed.
        waiting = self._awaiting_by_vid.pop(value_id, None)
        if waiting is not None:
            self._awaiting_value.pop(waiting, None)
            self._place(waiting, msg.item)
        if msg.decisions:
            self._on_decisions(msg.decisions)

    def _on_decisions(self, decisions: tuple[tuple[int, int], ...]) -> None:
        if self.crashed:
            return
        for instance, value_id in decisions:
            if instance < self.next_instance or instance in self._ready:
                continue
            item = self.values.get(value_id)
            if item is None:
                # Notification without the value (Section III-B): remember
                # and repair if the 2A never shows up.
                self._awaiting_value[instance] = value_id
                self._awaiting_by_vid[value_id] = instance
            else:
                self._place(instance, item)

    def _on_heartbeat(self, msg: Heartbeat) -> None:
        if self.crashed:
            return
        self.frontier = max(self.frontier, msg.next_instance)

    def _on_coordinator_change(self, msg: CoordinatorChange) -> None:
        """Adopt a reconfigured ring: repairs re-target the new members."""
        if self.crashed:
            return
        self.config = dataclasses.replace(self.config, acceptors=list(msg.acceptors))
        self._repair_attempts = 0
        self._last_repair_instance = -1

    def _on_learner_port(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, (RepairReply, CatchupReply)):
            return
        total = sum(item.size for item in msg.items)
        cost = CPU_FIXED_COST_LEARNER + CPU_BYTE_COST_LEARNER * total
        if isinstance(msg, CatchupReply):
            self.node.cpu.execute(cost, self._on_catchup_reply, (msg,))
        else:
            self.node.cpu.execute(cost, self._on_repair_reply, (msg,))

    def _on_repair_reply(self, msg: RepairReply) -> None:
        if self.crashed:
            return
        cursor = msg.instance
        for item in msg.items:
            if cursor >= self.next_instance:
                self._awaiting_value.pop(cursor, None)
                self._place(cursor, item)
            cursor += item.instance_count

    # ------------------------------------------------------------------
    # Ordered emission
    # ------------------------------------------------------------------
    def _place(self, instance: int, item: DataBatch | SkipRange) -> None:
        if instance < self.next_instance or instance in self._ready:
            return
        self._ready[instance] = item
        self.frontier = max(self.frontier, instance + item.instance_count)
        self._emit_ready()
        self.reorder_depth.value = len(self._ready)

    def _emit_ready(self) -> None:
        while self.next_instance in self._ready:
            instance = self.next_instance
            item = self._ready.pop(instance)
            self.next_instance += item.instance_count
            if isinstance(item, DataBatch):
                self.values.forget(item.value_id)
            else:
                self.skipped_instances.value += item.count
            probe = self.sim.probe
            if probe is not None and "learner.decide" in probe.subscribers:
                probe.emit(
                    "learner.decide", self.sim.now, self.name,
                    ring=self.config.ring_id, node=self.node.name,
                    instance=instance, count=item.instance_count,
                    item=_item_fingerprint(item),
                )
            if self.on_decide is not None:
                # Merge mode (Multi-Ring Paxos): the merger consumes items
                # and does the delivery accounting — latency must include
                # the deterministic-merge buffering.
                self.on_decide(instance, item)
            elif isinstance(item, DataBatch):
                now = self.sim.now
                for value in item.values:
                    self.delivered_messages.value += 1
                    self.delivered_bytes.value += value.size
                    self.delivery_series.record(now, value.size)
                    lag = max(0.0, now - value.created_at)
                    self.latency.record(lag)
                    self.latency_series.record(now, lag)
                    if self.on_deliver is not None:
                        self.on_deliver(instance, value)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _check_gaps(self) -> None:
        """Repair the head-of-line instance when it is observably missing.

        Repairs go to the learner's preferential acceptor first; if several
        consecutive attempts for the same instance go unanswered (e.g. that
        acceptor missed the decision announcement too), the learner rotates
        through the other ring members, including the coordinator.
        """
        if self.crashed:
            return
        gap_observable = self._ready or self._awaiting_value or self.next_instance < self.frontier
        if not gap_observable:
            return
        if self.next_instance == self._last_repair_instance:
            self._repair_attempts += 1
        else:
            self._last_repair_instance = self.next_instance
            self._repair_attempts = 0
        ring = self.config.acceptors
        target = ring[(self.learner_index + self._repair_attempts // 3) % len(ring)]
        # Ask for the whole observable gap (bounded); batched replies make
        # catch-up after an outage a few round trips, not one per instance.
        count = max(1, min(self.frontier - self.next_instance, 256))
        req = RepairRequest(self.next_instance, count)
        self.repairs_requested.value += 1
        self.network.send(self.node.name, target, self.config.repair_port, req, req.size)

    # ------------------------------------------------------------------
    # Catch-up: pull-based state transfer after a restart
    # ------------------------------------------------------------------
    def begin_catchup(self) -> None:
        """Start pulling missed decisions until the frontier is reached.

        The periodic gap repair only fires when a gap is *observable*; a
        freshly restarted learner may be arbitrarily far behind with no
        local evidence of it. Catch-up requests are answered even when the
        target has nothing buffered — the reply's frontier bounds the
        remaining gap — and retries back off exponentially while rotating
        through the ring members, so a dead target delays recovery by at
        most a few timeouts.
        """
        self._catching_up = True
        self._catchup_backoff = self.config.repair_interval
        self._catchup_attempts = 0
        # Always probe at least once: the local frontier is stale after an
        # outage, so "caught up" can only be trusted once a reply reports
        # a serving member's frontier.
        self._send_catchup()

    def _catchup_done(self) -> bool:
        return self.next_instance >= self.frontier

    def _pull_catchup(self) -> None:
        if self.crashed or not self._catching_up:
            return
        if self._catchup_done():
            self._catching_up = False
            self._catchup_timer.stop()
            return
        self._send_catchup()

    def _send_catchup(self) -> None:
        ring = self.config.acceptors
        target = ring[(self.learner_index + self._catchup_attempts) % len(ring)]
        count = max(1, min(self.frontier - self.next_instance, 256))
        req = CatchupRequest(self.next_instance, count)
        self.catchups_requested.value += 1
        self.network.send(self.node.name, target, self.config.repair_port, req, req.size)
        self._catchup_timer.start(delay=self._catchup_backoff)

    def _on_catchup_timeout(self) -> None:
        """No reply within the backoff window: rotate target, back off."""
        if self.crashed or not self._catching_up:
            return
        self._catchup_attempts += 1
        self._catchup_backoff = min(
            self._catchup_backoff * 2.0, 32.0 * self.config.repair_interval
        )
        self._pull_catchup()

    def _on_catchup_reply(self, msg: CatchupReply) -> None:
        if self.crashed:
            return
        self.frontier = max(self.frontier, msg.frontier)
        before = self.next_instance
        cursor = msg.instance
        for item in msg.items:
            if cursor >= self.next_instance:
                self._awaiting_value.pop(cursor, None)
                self._place(cursor, item)
            cursor += item.instance_count
        if not self._catching_up:
            return
        self._catchup_timer.stop()
        if self.next_instance > before:
            # Progress: stay on this target and pull the next chunk now.
            self._catchup_backoff = self.config.repair_interval
        else:
            # An empty (or useless) reply: this member GC'd the prefix or
            # is as lost as we are — try the next one after a backoff.
            self._catchup_attempts += 1
        self._pull_catchup()

    def rollback_to(self, instance: int) -> None:
        """Rewind delivery to ``instance`` (the next instance to emit).

        Used by checkpoint-restoring replicas: the suffix after the
        checkpoint is replayed through the normal decide path. Only
        positions and reorder state are touched — no messages are sent, so
        a crashed learner can be rolled back before its restart.
        """
        self.next_instance = instance
        self._ready.clear()
        self._awaiting_value.clear()
        self._awaiting_by_vid.clear()
        self.reorder_depth.value = 0
        self._repair_attempts = 0
        self._last_repair_instance = -1
        probe = self.sim.probe
        if probe is not None and "learner.rollback" in probe.subscribers:
            probe.emit(
                "learner.rollback", self.sim.now, self.name,
                ring=self.config.ring_id, node=self.node.name, instance=instance,
            )

    def position_at(self, instance: int) -> None:
        """Start consuming the ring at ``instance``, skipping the prefix.

        Used when a learner joins a ring mid-stream at a reconfiguration
        cut: everything before the cut belongs to epochs this learner
        never subscribed to, so it is not a rollback (no rewind probe) —
        the oracle is repositioned by the manager's ``reconfig.drain``
        event instead. The frontier only moves forward: multicast traffic
        observed before positioning keeps its evidence.
        """
        self.next_instance = instance
        self.frontier = max(self.frontier, instance)
        for ready in list(self._ready):
            if ready < instance:
                item = self._ready.pop(ready)
                if isinstance(item, DataBatch):
                    self.values.forget(item.value_id)
        for waiting in list(self._awaiting_value):
            if waiting < instance:
                vid = self._awaiting_value.pop(waiting)
                self._awaiting_by_vid.pop(vid, None)
        self.reorder_depth.value = len(self._ready)
        self._repair_attempts = 0
        self._last_repair_instance = -1
        self._emit_ready()

    def on_crash(self) -> None:
        self._repair_timer.stop()
        self._catchup_timer.stop()
        self._catching_up = False

    def on_restart(self) -> None:
        self._repair_timer.start()
        self.begin_catchup()
