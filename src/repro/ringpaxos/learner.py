"""Ring Paxos learners.

A learner subscribes to its ring's ip-multicast group, so it receives the
full client values in Phase 2A packets and learns outcomes from the
decision announcements piggybacked on later multicasts (paper, Figure 3,
step 6). It emits decided items — data batches or skip ranges — in gapless
*logical instance* order through ``on_decide``; data batches are also
unpacked to the application through ``on_deliver``.

Loss recovery follows Section III-B: a learner that received a value
without its notification, the notification without the value, or neither,
asks its *preferential acceptor* to repair the head-of-line instance once
it has been missing for a repair interval (until then it may only be in
flight). The coordinator's next instance, carried by every 2A and by its
heartbeats on an idle ring, makes trailing losses observable. The same
loop recovers every learner that is behind: one restarted after a crash,
one rolled back to a replica's checkpoint, one positioned at a remap's
join instance and one added online. A reply that moves the head while
instances missing at the last tick remain is followed at once by a
request for the next run, to the member that answered: recovery runs at
the round-trip rate, not one reply per tick.

The learner also measures everything the evaluation plots: delivery
throughput (bytes and messages, cumulative and per-second series),
delivery latency (stamped at multicast time), and the receive-side byte
series used in Figure 12.
"""

from __future__ import annotations

from typing import Callable

from ..calibration import (
    CPU_BYTE_COST_LEARNER,
    CPU_FIXED_COST_LEARNER,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from .config import RingConfig
from .messages import (
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
        self._missing_head = -1  # head-of-line instance missing at the last tick
        self._missing_end = 0  # frontier at the last tick
        self._layout_rnd = 0  # round of the CoordinatorChange adopted last
        self._awaiting_value: dict[int, int] = {}  # decided, value missing: instance -> id
        self._learner_port = f"rp{config.ring_id}.learner"
        network.join(config.multicast_group, node.name)
        node.register(config.mcast_port, self._on_mcast)
        node.register(self._learner_port, self._on_learner_port)
        self._repair_timer = PeriodicTimer(sim, config.repair_interval, self._check_gaps)
        self._repair_timer.start()

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
        item = msg.item
        value_id = msg.value_id
        self.values.put(value_id, item)
        self.frontier = max(self.frontier, msg.instance + item.instance_count)
        # A decision that was waiting for this value can now be placed.
        if self._awaiting_value.get(msg.instance) == value_id:
            del self._awaiting_value[msg.instance]
            self._place(msg.instance, item)
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
            else:
                self._place(instance, item)

    def _on_heartbeat(self, msg: Heartbeat) -> None:
        if self.crashed:
            return
        self.frontier = max(self.frontier, msg.next_instance)

    def _on_coordinator_change(self, msg: CoordinatorChange) -> None:
        """Adopt a reconfigured ring: repairs re-target the new members. A
        deposed coordinator's announcement, or a repeat, changes nothing."""
        if self.crashed or msg.rnd <= self._layout_rnd:
            return
        self._layout_rnd = msg.rnd
        self.config = self.config.with_layout(msg.acceptors, self.network)
        self._repair_attempts = 0

    def _on_learner_port(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, RepairReply):
            return
        total = sum(item.size for item in msg.items)
        cost = CPU_FIXED_COST_LEARNER + CPU_BYTE_COST_LEARNER * total
        self.node.cpu.execute(cost, self._on_repair_reply, (src, msg))

    def _on_repair_reply(self, src: str, msg: RepairReply) -> None:
        """Place a reply's consecutive decided items from ``msg.instance``;
        if they moved the head and instances missing at the last tick
        remain, ask the member that answered for the next run at once."""
        if self.crashed:
            return
        head = self.next_instance
        cursor = msg.instance
        for item in msg.items:
            if cursor >= self.next_instance:
                self._awaiting_value.pop(cursor, None)
                self._place(cursor, item)
            cursor += item.instance_count
        if head < self.next_instance < self._missing_end:
            self._request_repair(src)

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
        # ``on_decide`` may crash this learner (a remap dropped its ring):
        # it then emits nothing more.
        while self.next_instance in self._ready and not self.crashed:
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
        """Repair the head-of-line instance once it is overdue.

        An instance is overdue when it was already observably missing at
        the previous tick, a repair interval ago: one missing only since
        may still be in flight (its decision behind its 2A, or a backlog in
        this learner's ingress), and a repair would resend what is coming.

        Repairs go to the learner's preferential acceptor first; if several
        consecutive attempts for the same instance go unanswered (e.g. that
        acceptor missed the decision announcement too), the learner rotates
        through the other ring members, including the coordinator.
        """
        if self.crashed:
            return
        gap_observable = self._ready or self._awaiting_value or self.next_instance < self.frontier
        if not gap_observable:
            self._missing_head = -1
            return
        overdue = self.next_instance == self._missing_head
        self._missing_head, self._missing_end = self.next_instance, self.frontier
        if not overdue:
            self._repair_attempts = 0
            return
        ring = self.config.acceptors
        self._request_repair(ring[(self.learner_index + self._repair_attempts // 3) % len(ring)])
        self._repair_attempts += 1

    def _request_repair(self, target: str) -> None:
        """Ask ``target`` for the run from the head to the frontier seen at
        the last tick (bounded): batched replies make recovery after an
        outage a few round trips, not one per instance."""
        count = max(1, min(self._missing_end - self.next_instance, 256))
        req = RepairRequest(self.next_instance, count)
        self.repairs_requested.value += 1
        self.network.send(self.node.name, target, self.config.repair_port, req, req.size)

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
        self.reorder_depth.value = 0
        self._missing_head = -1
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
        self._awaiting_value = {i: v for i, v in self._awaiting_value.items() if i >= instance}
        self.reorder_depth.value = len(self._ready)
        self._missing_head = -1
        self._emit_ready()

    def on_crash(self) -> None:
        self._repair_timer.stop()

    def on_restart(self) -> None:
        # Whatever the head misses was decided while this learner was down,
        # so it is overdue at the first tick.
        self._missing_head = self.next_instance
        self._repair_timer.start()
