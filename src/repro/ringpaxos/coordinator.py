"""The Ring Paxos coordinator.

The coordinator is the distinguished acceptor at the end of the ring
(paper, Figure 3). Its hot path per consensus instance:

1. receive client values from proposers and batch them (8 KB batches),
2. assign a value ID and an instance number, ip-multicast the Phase 2A
   packet — containing the full batch, the ID, the round and the instance
   — to all acceptors *and* learners,
3. receive the Phase 2B token that travelled the ring collecting every
   other acceptor's accept, add its own accept, and declare the decision,
4. announce the decision to learners by confirming the value ID — normally
   piggybacked on the next ip-multicast, with a small flush timeout bound.

Phase 1 is value-independent and pre-executed (Section III-A): acceptors
start promised to the coordinator's round; an explicit PrepareRange is run
only by a *new* coordinator after reconfiguration (see ``reconfig``).

The per-instance CPU charges on this path are what saturate In-memory Ring
Paxos at ~700 Mbps in Figure 1; in Recoverable mode the coordinator also
writes its accepts through its disk like any acceptor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..calibration import (
    CPU_BYTE_COST_COORDINATOR,
    CPU_FIXED_COST_COORDINATOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ProtocolError
from ..metrics import MetricsRegistry
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process, Timer
from .batcher import Batcher
from .config import RingConfig
from .messages import (
    CatchupReply,
    CatchupRequest,
    ClientValue,
    ConfigChange,
    CoordinatorChange,
    DataBatch,
    DecisionAnnounce,
    Heartbeat,
    Phase2A,
    Phase2B,
    PrepareRange,
    PromiseRange,
    RepairReply,
    RepairRequest,
    SkipRange,
    Submit,
    SubmitAck,
)
from .valuestore import decided_run

__all__ = ["RingCoordinator"]


@dataclass(slots=True)
class _Inflight:
    """Coordinator-side state of one undecided instance."""

    instance: int
    value_id: int
    item: DataBatch | SkipRange
    attempt: int = 0
    ring_accepted: bool = False
    self_persisted: bool = False
    # Kernel seq of the retry deadline that still counts; a queued retry
    # with any other seq is stale (decided or re-armed since).
    retry_seq: int = -1


class RingCoordinator(Process):
    """Coordinator role of one Ring Paxos instance.

    ``on_decide`` (None, or ``(instance, item)`` fired at decision time)
    and ``redirects`` (group id -> drain handler, see :meth:`_ingest`) are
    the ring's hooks: a takeover hands both to the successor as they are.
    ``metrics`` is the registry to create this coordinator's metrics in
    (labeled with ``ring``/``role``/``node``); a private one when None.
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
        rnd: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"coord@{node.name}/ring{config.ring_id}")
        if node.name != config.coordinator:
            raise ProtocolError(
                f"coordinator must run on {config.coordinator!r}, got {node.name!r}"
            )
        if config.durable and node.disk is None:
            raise ProtocolError("Recoverable mode requires a disk on the coordinator")
        if not config.retry_timeout >= 0:  # NaN too
            raise ProtocolError(f"retry_timeout must be non-negative, got {config.retry_timeout!r}")
        self.network = network
        self.node = node
        self.config = config
        self.rnd = rnd
        self.on_decide: Callable[[int, DataBatch | SkipRange], None] | None = None
        self.next_instance = 0
        self.next_value_id = 0
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(ring=config.ring_id, role="coordinator", node=node.name)
        self.submissions = self.metrics.counter("submissions")
        self.instances_started = self.metrics.counter("instances_started")
        self.instances_decided = self.metrics.counter("instances_decided")
        self.skips_proposed = self.metrics.counter("skips_proposed")
        self.retries = self.metrics.counter("retries")
        self.backlog_depth = self.metrics.gauge("backlog_depth")
        self.inflight_depth = self.metrics.gauge("inflight_depth")
        self._inflight: dict[int, _Inflight] = {}
        # Retry deadlines, (deadline, seq, state, attempt) in arming order —
        # sorted, since every deadline is now + the one retry_timeout. The
        # head, and only the head, has a kernel event. An entry keeps its
        # state referenced until its deadline has passed, decided or not:
        # retry_timeout x the decide rate of them, 184 bytes each (31 KiB
        # at the LAN retry_timeout, 165 KiB at the geo one; the batch is
        # held by the decided log for longer anyway).
        self._retry_timeout = config.retry_timeout
        self._retries: deque[tuple[float, int, _Inflight, int]] = deque()
        self._backlog: deque[DataBatch | SkipRange] = deque()
        self._pending_decisions: list[tuple[int, int]] = []
        self._submit_expected: dict[str, int] = {}
        self._submit_acked: dict[str, int] = {}
        self._submit_buffer: dict[str, dict[int, ClientValue]] = {}
        # Group drains (reconfiguration): values of a redirected group are
        # bounced to the handler instead of being ordered here. Installed
        # before the group's leave cut is submitted, so no value of the
        # group is ordered after the cut; a bounced value has passed
        # per-sender dedup, so its handler sees it once per coordinator.
        self.redirects: dict[int, Callable[[ClientValue], None]] = {}
        # Idempotence keys of externally injected values (reconfiguration
        # cuts, forwarded bounces) already accepted for ordering here.
        self._foreign_keys: set = set()
        self._decided_log: dict[int, DataBatch | SkipRange] = {}
        self._decided_order: deque[int] = deque()
        self._decided_log_limit = 4 * config.window + 1024
        self._ack_port = f"rp{config.ring_id}.submitack"
        self.batcher = Batcher(sim, config.batch_size, config.batch_timeout, self._on_batch)
        self._decision_timer = Timer(sim, config.decision_flush_timeout, self._flush_decisions)
        self._heartbeat_timer = Timer(sim, config.heartbeat_interval, self._heartbeat)
        self._recovering = False
        self._promises: list[PromiseRange] = []
        self._promises_needed = 0
        self._on_recovered = None
        node.register(config.coord_port, self._on_coord_message)
        node.register(config.ring_port, self._on_ring_message)
        node.register(config.repair_port, self._on_repair_port)
        self._heartbeat_timer.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def planned_instance(self) -> int:
        """First instance number not yet claimed by started or queued work.

        Multi-Ring Paxos's rate monitor measures this frontier: it advances
        immediately when skips are proposed, so an interval's skip batch is
        not re-proposed while it waits for a window slot.
        """
        return self.next_instance + sum(item.instance_count for item in self._backlog)

    @property
    def backlog(self) -> int:
        """Batches/skips waiting for a window slot."""
        return len(self._backlog)

    def submit_unique(self, key, value: ClientValue) -> bool:
        """Inject ``value`` locally at most once per ``key``.

        Reconfiguration retries its control submissions until their
        decision is observed; the key set — re-seeded from recovered
        values after a takeover — keeps those retries idempotent even
        across coordinator changes. Returns False on a duplicate.
        """
        if self.crashed or key in self._foreign_keys:
            return False
        self._foreign_keys.add(key)
        self._ingest(value)
        return True

    def note_foreign_decide(self, sender: str, seq: int) -> None:
        """Advance ``sender``'s decided watermark for a value ordered
        elsewhere (a bounced value decided on the group's new ring), and
        ack so the proposer can drop it."""
        if self.crashed:
            return
        if seq > self._submit_acked.get(sender, -1):
            self._submit_acked[sender] = seq
        self._send_ack(sender)

    def _ingest(self, value: ClientValue) -> None:
        """Order ``value`` here — or bounce it if its group is draining."""
        handler = self.redirects.get(value.group)
        if handler is not None:
            handler(value)
            return
        self.submissions.value += 1
        self.batcher.add(value)

    def propose_skip(self, count: int) -> None:
        """Propose ``count`` skip instances as one consensus execution.

        This is the Multi-Ring Paxos optimization of Section IV-D: any
        number of skips costs a single instance.
        """
        if not count > 0:  # written so that NaN is rejected too
            raise ProtocolError(f"skip count must be positive, got {count!r}")
        if self.crashed:
            return
        self.skips_proposed.value += count
        self._backlog.append(SkipRange(count))
        self._pump()

    # ------------------------------------------------------------------
    # Batching and windowing
    # ------------------------------------------------------------------
    def _on_batch(self, values: list[ClientValue]) -> None:
        value_id = self.next_value_id
        self.next_value_id += 1
        self._backlog.append(DataBatch(value_id, tuple(values)))
        self._pump()

    def _pump(self) -> None:
        if self._recovering:
            return  # new work queues up until Phase 1 recovery completes
        while self._backlog and len(self._inflight) < self.config.window:
            self._start_instance(self._backlog.popleft())
        self.backlog_depth.value = len(self._backlog)
        self.inflight_depth.value = len(self._inflight)

    def _start_instance(self, item: DataBatch | SkipRange, instance: int | None = None) -> None:
        """Drive Phase 2 for ``item`` at the next free instance — or, for an
        item recovered by a takeover, at the fixed ``instance`` it held."""
        if instance is None:
            instance = self.next_instance
            self.next_instance += item.instance_count
        value_id = item.value_id if isinstance(item, DataBatch) else -instance - 1
        state = _Inflight(instance, value_id, item)
        self._inflight[instance] = state
        self.instances_started.value += 1
        self._send_phase2a(state)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _send_phase2a(self, state: _Inflight) -> None:
        decisions: tuple[tuple[int, int], ...] = ()
        if self.config.piggyback_decisions:
            decisions = tuple(self._pending_decisions)
            self._pending_decisions.clear()
            self._decision_timer.deadline = None  # stop(): they ride on this 2A
        msg = Phase2A(state.instance, self.rnd, state.item, state.attempt, decisions)
        cost = CPU_FIXED_COST_COORDINATOR + CPU_BYTE_COST_COORDINATOR * state.item.size
        self.node.cpu.execute(cost, self._multicast_phase2a, (msg, state))

    def _multicast_phase2a(self, msg: Phase2A, state: _Inflight) -> None:
        if self.crashed or state.instance not in self._inflight:
            return
        self.network.multicast(
            self.node.name, self.config.multicast_group, self.config.mcast_port, msg, msg.size
        )
        self._heartbeat_timer.start()  # any multicast is a liveness signal
        # The coordinator accepts its own proposal: in Recoverable mode the
        # accept must be durable before it can count towards the decision
        # (the disk ack is the barrier); in In-memory mode it counts now.
        if self.config.durable:
            self.node.disk.write(
                state.item.size, self._on_self_persisted, (state.instance, state.attempt)
            )
        else:
            state.self_persisted = True
            if state.ring_accepted or self.config.ring_size == 1:
                self._maybe_decide(state)
        self._arm_retry(state)

    def _on_self_persisted(self, instance: int, attempt: int) -> None:
        """Recoverable mode: the disk acked the coordinator's own accept."""
        state = self._inflight.get(instance)
        if state is None or state.attempt != attempt:
            return
        state.self_persisted = True
        self._maybe_decide(state)

    def _on_ring_message(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, Phase2B):
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_phase2b, (msg,))

    def _on_phase2b(self, msg: Phase2B) -> None:
        if self.crashed:
            return
        state = self._inflight.get(msg.instance)
        if state is None or msg.rnd != self.rnd or msg.attempt != state.attempt:
            return
        if msg.accepts >= self.config.ring_size - 1:
            state.ring_accepted = True
            self._maybe_decide(state)

    def _maybe_decide(self, state: _Inflight) -> None:
        ring_ok = state.ring_accepted or self.config.ring_size == 1
        if not (ring_ok and state.self_persisted):
            return
        state.retry_seq = -1
        del self._inflight[state.instance]
        self.instances_decided.value += 1
        # The decided log serves learner repairs, bounded FIFO.
        self._decided_log[state.instance] = state.item
        self._decided_order.append(state.instance)
        while len(self._decided_order) > self._decided_log_limit:
            self._decided_log.pop(self._decided_order.popleft(), None)
        if isinstance(state.item, DataBatch):
            self._ack_decided_batch(state.item)
        self._pending_decisions.append((state.instance, state.value_id))
        if not self.config.piggyback_decisions:
            # Ablation mode: every decision goes out as its own multicast.
            self._flush_decisions()
        elif not (self._backlog and len(self._inflight) < self.config.window):
            # Piggyback on the next 2A if one is imminent; else flush soon.
            if self._decision_timer.deadline is None:
                self._decision_timer.start()
        if self.on_decide is not None:
            self.on_decide(state.instance, state.item)
        self._pump()

    # ------------------------------------------------------------------
    # Decisions, heartbeats, retries
    # ------------------------------------------------------------------
    def _flush_decisions(self) -> None:
        if self.crashed or not self._pending_decisions:
            return
        msg = DecisionAnnounce(tuple(self._pending_decisions))
        self._pending_decisions.clear()
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._multicast_small, (msg,))

    def _heartbeat(self) -> None:
        if self.crashed:
            return
        msg = Heartbeat(self.next_instance)
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._multicast_small, (msg,))
        self._heartbeat_timer.start()

    def _multicast_small(self, msg) -> None:
        if self.crashed:
            return
        self.network.multicast(
            self.node.name, self.config.multicast_group, self.config.mcast_port, msg, msg.size
        )

    def _arm_retry(self, state: _Inflight) -> None:
        if state.instance not in self._inflight:
            return  # decided while the 2A was being processed
        sim = self.sim
        deadline = sim.now + self._retry_timeout
        # One seq per arming, drawn where the kernel would draw it for a
        # scheduled callback; it supersedes the state's earlier deadline.
        state.retry_seq = seq = sim.reserve_seq()
        if not self._retries:
            sim.post_reserved(deadline, seq, self._on_retry_due, ())
        self._retries.append((deadline, seq, state, state.attempt))

    def _on_retry_due(self) -> None:
        """The head of the retry FIFO is due: retry it if it still counts."""
        retries = self._retries
        _, seq, state, attempt = retries[0]
        if state.retry_seq == seq and not self.crashed:
            self._retry(state.instance, attempt)
        retries.popleft()
        # Next event at the first deadline that still counts, if any.
        while retries:
            deadline, seq, state, _ = retries[0]
            if state.retry_seq == seq:
                self.sim.post_reserved(deadline, seq, self._on_retry_due, ())
                return
            retries.popleft()

    def _retry(self, instance: int, attempt: int) -> None:
        state = self._inflight.get(instance)
        if state is None or state.attempt != attempt:
            return
        state.attempt += 1
        state.ring_accepted = False
        state.self_persisted = False
        self.retries.value += 1
        self._send_phase2a(state)

    # ------------------------------------------------------------------
    # Inbound submissions and repairs
    # ------------------------------------------------------------------
    def _on_coord_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, Submit):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._accept_submission,
                (src, msg.value, msg.floor),
            )
        elif isinstance(msg, RepairRequest):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._repair, (src, msg))
        elif isinstance(msg, PromiseRange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_promise_range, (msg,))

    def _accept_submission(self, src: str, value: ClientValue, floor: int) -> None:
        """Dedup/reorder per-proposer submissions, then batch them.

        Proposer->coordinator links can lose messages; proposers
        retransmit unacked values, so the coordinator restores per-sender
        FIFO order (buffering gaps). Acknowledgements are cumulative and
        sent only once the value's batch *decides* — an ack therefore
        guarantees the value survives coordinator crashes (validity).

        ``floor`` is the sender's stream floor (see
        :class:`~repro.ringpaxos.messages.Submit`): every seq below it is
        decided, so the cursor may jump forward over seq ranges the
        sender will never send — e.g. the range a group remap burned when
        it bumped the sender's seq past its old ring's.
        """
        if self.crashed:
            return
        expected = self._submit_expected.get(src, 0)
        buffered = self._submit_buffer.get(src)
        if floor > expected:
            if buffered:
                for stale in [s for s in buffered if s < floor]:
                    del buffered[stale]
            expected = floor
            while buffered and expected in buffered:
                self._ingest(buffered.pop(expected))
                expected += 1
            self._submit_expected[src] = expected
        if value.seq == expected:
            self._ingest(value)
            expected += 1
            buffered = self._submit_buffer.get(src)
            while buffered and expected in buffered:
                self._ingest(buffered.pop(expected))
                expected += 1
            self._submit_expected[src] = expected
        elif value.seq > expected:
            self._submit_buffer.setdefault(src, {})[value.seq] = value
        # Always acknowledge with both watermarks: received (suppresses
        # retransmission immediately) and decided (durability frontier).
        self._send_ack(src)

    def _send_ack(self, src: str) -> None:
        # (received_cum, decided_cum)
        ack = SubmitAck(self._submit_expected.get(src, 0) - 1, self._submit_acked.get(src, -1))
        self.network.send(self.node.name, src, self._ack_port, ack, ack.size)

    def _ack_decided_batch(self, batch: DataBatch) -> None:
        """Advance the decided watermark for every sender in the batch and
        ack them in first-occurrence order (a set would iterate the names
        in hash order, making the trace depend on ``PYTHONHASHSEED``)."""
        senders: dict[str, None] = {}
        for value in batch.values:
            # A redirected value carries a seq from the sender's stream on
            # the ring it was bounced off — folding it into this ring's
            # watermark would ack (and drop) undecided local submissions.
            # Its origin coordinator is acked via note_foreign_decide.
            if value.sender and not value.redirected:
                senders[value.sender] = None
                acked = max(self._submit_acked.get(value.sender, -1), value.seq)
                self._submit_acked[value.sender] = acked
        for sender in senders:
            self._send_ack(sender)

    def _repair(self, src: str, msg: RepairRequest) -> None:
        """Resend the Phase 2A for an undecided instance an acceptor missed."""
        if self.crashed:
            return
        state = self._inflight.get(msg.instance)
        if state is None:
            return
        reply = Phase2A(state.instance, self.rnd, state.item, state.attempt)
        self.network.send(self.node.name, src, self.config.mcast_port, reply, reply.size)

    def _on_repair_port(self, src: str, msg) -> None:
        """Serve learner repairs and catch-ups from the own decided log."""
        if self.crashed:
            return
        if isinstance(msg, RepairRequest):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._serve_learner_repair, (src, msg)
            )
        elif isinstance(msg, CatchupRequest):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._serve_learner_catchup, (src, msg)
            )
        # CheckpointAcks are an acceptor concern; the coordinator's decided
        # log is already FIFO-bounded.

    def _serve_learner_repair(self, src: str, msg: RepairRequest) -> None:
        if self.crashed:
            return
        items = decided_run(self._decided_log, msg.instance, msg.count)
        if not items:
            return
        reply = RepairReply(msg.instance, items)
        self.network.send(
            self.node.name, src, f"rp{self.config.ring_id}.learner", reply, reply.size
        )

    def _serve_learner_catchup(self, src: str, msg: CatchupRequest) -> None:
        """Answer a recovering learner; the coordinator knows the true frontier."""
        if self.crashed:
            return
        items = decided_run(self._decided_log, msg.instance, msg.count)
        reply = CatchupReply(msg.instance, items, frontier=self.next_instance)
        self.network.send(
            self.node.name, src, f"rp{self.config.ring_id}.learner", reply, reply.size
        )

    def decided_item(self, instance: int) -> DataBatch | SkipRange | None:
        """Recently decided item for ``instance`` (None once GC'd)."""
        return self._decided_log.get(instance)

    # ------------------------------------------------------------------
    # Takeover (reconfiguration, paper Section IV-C)
    # ------------------------------------------------------------------
    def begin_takeover(
        self,
        local_promise: PromiseRange,
        promises_needed: int,
        on_recovered=None,
    ) -> None:
        """Run Phase 1 over all instances and recover accepted values.

        ``local_promise`` is the new coordinator's own acceptor state
        (read directly — it is co-located). ``promises_needed`` is how
        many *additional* PromiseRanges must arrive so that, together
        with the local one, a majority of the original acceptor set has
        promised. Once recovered, the coordinator announces the new ring,
        re-proposes every recovered value at its original instance, fills
        observable gaps with skips, and resumes normal service.
        """
        self._recovering = True
        self._heartbeat_timer.stop()
        self._promises = [local_promise]
        self._promises_needed = promises_needed
        self._on_recovered = on_recovered
        prepare = PrepareRange(local_promise.from_instance, self.rnd)
        for member in self.config.acceptors[:-1]:
            self.network.send(self.node.name, member, self.config.ring_port, prepare, prepare.size)
        if promises_needed <= 0:
            self._finish_recovery()

    def _on_promise_range(self, msg: PromiseRange) -> None:
        if self.crashed or not self._recovering or msg.rnd != self.rnd:
            return
        self._promises.append(msg)
        if len(self._promises) - 1 >= self._promises_needed:
            self._finish_recovery()

    def _finish_recovery(self) -> None:
        if not self._recovering:
            return
        self._recovering = False
        # Highest-vrnd accepted item per instance (Paxos value selection).
        best: dict[int, tuple[int, DataBatch | SkipRange]] = {}
        for promise in self._promises:
            for instance, vrnd, item in promise.accepted:
                held = best.get(instance)
                if held is None or vrnd > held[0]:
                    best[instance] = (vrnd, item)
        self._promises = []
        # Announce the new layout before any 2A so surviving acceptors
        # re-chain their successors first (FIFO links keep the order).
        announce = CoordinatorChange(
            self.config.ring_id, tuple(self.config.acceptors), self.rnd
        )
        self.network.multicast(
            self.node.name, self.config.multicast_group, self.config.mcast_port,
            announce, announce.size,
        )
        # Re-propose recovered values at their instances; fill gaps (an
        # instance below the recovered horizon with no accepted value
        # anywhere in the quorum cannot have been decided) with skips.
        horizon = 0
        for instance, (_, item) in best.items():
            horizon = max(horizon, instance + item.instance_count)
        # Seed per-sender dedup state from recovered values so proposers'
        # retransmissions of already-ordered submissions are recognised
        # (they will be acked when the re-proposed batches re-decide).
        for _, item in best.values():
            if isinstance(item, DataBatch):
                for value in item.values:
                    if value.sender and not value.redirected:
                        have = self._submit_expected.get(value.sender, 0)
                        self._submit_expected[value.sender] = max(have, value.seq + 1)
                    # Re-seed the idempotence keys of recovered control
                    # cuts and forwarded bounces, so the reconfiguration
                    # manager's retries stay exactly-once across this
                    # coordinator change.
                    if isinstance(value.payload, ConfigChange):
                        cut = value.payload
                        self._foreign_keys.add(("cut", cut.epoch, cut.kind))
                    if value.redirected:
                        self._foreign_keys.add(("fwd", value.sender, value.seq))
        max_vid = -1
        cursor = 0
        while cursor < horizon:
            held = best.get(cursor)
            if held is not None:
                item = held[1]
                if isinstance(item, DataBatch):
                    max_vid = max(max_vid, item.value_id)
                self._start_instance(item, cursor)
                cursor += item.instance_count
            else:
                gap_end = cursor
                while gap_end < horizon and gap_end not in best:
                    gap_end += 1
                self._start_instance(SkipRange(gap_end - cursor), cursor)
                cursor = gap_end
        self.next_instance = max(self.next_instance, horizon)
        self.next_value_id = max(self.next_value_id, max_vid + 1)
        self._heartbeat_timer.start()
        self._pump()
        if self._on_recovered is not None:
            callback, self._on_recovered = self._on_recovered, None
            callback(self)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self.batcher.stop()
        self._decision_timer.stop()
        self._heartbeat_timer.stop()

    def on_restart(self) -> None:
        """Resume after a forced restart (same node, Figure 12 scenario).

        The coordinator's volatile queues survive in this model (the paper
        restarts the same process); undecided in-flight instances are
        re-driven by re-multicasting their Phase 2A, and anything stuck in
        the batcher goes out immediately — on an idle ring nothing else
        would re-arm the batch timeout, and a buffered control value must
        not wedge a reconfiguration.
        """
        self._heartbeat_timer.start()
        self.batcher.flush()
        for state in self._inflight.values():
            state.attempt += 1
            state.ring_accepted = False
            state.self_persisted = False
            self._send_phase2a(state)
        self._pump()
