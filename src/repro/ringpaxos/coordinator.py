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
only by an acceptor that suspects its coordinator, then hosts the successor
(:meth:`~RingCoordinator.recover`). Value IDs belong to the round: round
``r`` numbers batches from ``r * 2**32``. An instance's ID is computed here,
once (:func:`~.messages.value_id_of`), and acceptors and learners read it
from the Phase 2A.

The per-instance CPU charges on this path are what saturate In-memory Ring
Paxos at ~700 Mbps in Figure 1; in Recoverable mode the coordinator also
writes its accepts through its disk like any acceptor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from ..calibration import (
    CPU_BYTE_COST_COORDINATOR,
    CPU_FIXED_COST_COORDINATOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ProtocolError
from ..metrics import MetricsRegistry
from ..paxos.storage import select_value
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process, Timer
from .batcher import Batcher
from .config import RingConfig
from .messages import (
    ClientValue,
    CoordinatorChange,
    DataBatch,
    DecisionAnnounce,
    Heartbeat,
    Phase2A,
    Phase2B,
    PrepareRange,
    PromiseRange,
    RepairRequest,
    SkipRange,
    Submit,
    SubmitAck,
    value_id_of,
)
from .valuestore import DecidedLog

__all__ = ["RingCoordinator"]

# A sender nothing of which is decided yet: (decided_cum, decided_instance).
_NONE = (-1, -1)


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

    It orders what proposers submit and nothing else: a control value
    (a reconfiguration cut) arrives as an ordinary :class:`Submit` from
    its sender, is deduplicated by the sender's seq like any value, and
    its sender learns the deciding instance from the ``SubmitAck``.
    ``metrics`` is the registry to create this coordinator's metrics in
    (labeled with ``ring``/``role``/``node``); a private one when None;
    ``host``, the node's own acceptor on a ring that reconfigures itself.
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
        rnd: int = 0,
        metrics: MetricsRegistry | None = None,
        host=None,
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
        self.host = host
        self.deposed = False
        self.next_instance = 0
        self.next_value_id = rnd << 32
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
        # Sender -> (decided watermark, the instance that decided it).
        self._submit_acked: dict[str, tuple[int, int]] = {}
        self._submit_buffer: dict[str, dict[int, ClientValue]] = {}
        # Serves learner repairs; what it has dropped, the host's may hold.
        self.decided = DecidedLog(4 * config.window + 1024)
        self._ack_port = f"rp{config.ring_id}.submitack"
        self.batcher = Batcher(sim, config.batch_size, config.batch_timeout, self._on_batch)
        self._decision_timer = Timer(sim, config.decision_flush_timeout, self._flush_decisions)
        self._heartbeat_timer = Timer(sim, config.heartbeat_interval, self._heartbeat)
        # A takeover repeats its CoordinatorChange twice per suspect timeout.
        self._announce_timer = Timer(sim, config.suspect_timeout / 2, self._announce)
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

    def _ingest(self, value: ClientValue) -> None:
        """Order ``value`` here."""
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
        state = _Inflight(instance, value_id_of(instance, self.rnd, item), item)
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
        msg = Phase2A(
            state.instance, self.rnd, state.value_id, state.item, state.attempt, decisions
        )
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
        if self.crashed:
            return
        if isinstance(msg, Phase2B):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_phase2b, (msg,))
        elif isinstance(msg, PrepareRange) and self.host is not None:
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._step_down, (src, msg))

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
        self.decided.add(state.instance, state.item)
        if isinstance(state.item, DataBatch):
            self._ack_decided_batch(state.instance, state.item)
        self._pending_decisions.append((state.instance, state.value_id))
        if not self.config.piggyback_decisions:
            # Ablation mode: every decision goes out as its own multicast.
            self._flush_decisions()
        elif not (self._backlog and len(self._inflight) < self.config.window):
            # Piggyback on the next 2A if one is imminent; else flush soon.
            if self._decision_timer.deadline is None:
                self._decision_timer.start()
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
        decided, at = self._submit_acked.get(src, _NONE)
        ack = SubmitAck(self._submit_expected.get(src, 0) - 1, decided, at)
        self.network.send(self.node.name, src, self._ack_port, ack, ack.size)

    def _ack_decided_batch(self, instance: int, batch: DataBatch) -> None:
        """Advance the decided watermark for every sender in the batch,
        decided at ``instance``, and ack them in first-occurrence order (a
        set would iterate the names in hash order, making the trace depend
        on ``PYTHONHASHSEED``)."""
        senders: dict[str, None] = {}
        acked = self._submit_acked
        for value in batch.values:
            sender = value.sender
            senders[sender] = None
            if value.seq > acked.get(sender, _NONE)[0]:
                acked[sender] = (value.seq, instance)
        for sender in senders:
            self._send_ack(sender)

    def _repair(self, src: str, msg: RepairRequest) -> None:
        """Resend the Phase 2A for an undecided instance an acceptor missed."""
        if self.crashed:
            return
        state = self._inflight.get(msg.instance)
        if state is None:
            return
        reply = Phase2A(state.instance, self.rnd, state.value_id, state.item, state.attempt)
        self.network.send(self.node.name, src, self.config.mcast_port, reply, reply.size)

    def _on_repair_port(self, src: str, msg) -> None:
        """Serve learner repairs from the own decided log."""
        if self.crashed:
            return
        if isinstance(msg, RepairRequest):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._serve_learner, (src, msg))
        # CheckpointAcks are an acceptor concern; this decided log is bounded.

    def _serve_learner(self, src: str, msg: RepairRequest) -> None:
        """Answer a learner's repair. What the coordinator's bounded log
        lacks, its node's acceptor may have seen decided."""
        if self.crashed:
            return
        reply = self.decided.reply(msg)
        if reply is None and self.host is not None:
            reply = self.host.decided.reply(msg)
        if reply is not None:
            self.network.send(
                self.node.name, src, f"rp{self.config.ring_id}.learner", reply, reply.size
            )

    # ------------------------------------------------------------------
    # Takeover (reconfiguration, paper Section IV-C)
    # ------------------------------------------------------------------
    def recover(self, promises: Iterable[PromiseRange]) -> None:
        """Take the ring over from a Phase 1 majority's promises.

        Announces the new layout and recovers only the undecided suffix.
        The promises carry the votes from the candidate's decided prefix
        up; the history below it is read from the host's decided log.
        Every instance below the highest prefix the host or a promiser
        reports is decided: its value (the host's, or the highest-round
        vote, which Paxos value selection guarantees is the decided one)
        enters this coordinator's decided log for learner repairs and
        counts as decided for the proposers' acks. Above it every
        recovered value is re-proposed at its original instance, gaps are
        filled with skips, and service resumes — so a takeover costs one
        round over what was in flight, however long the ring has run, and
        nothing below a promiser's checkpoint truncation is proposed again.
        """
        promises = list(promises)
        known = self.host.decided.prefix
        start = max(promise.from_instance for promise in promises)
        settled = max(known, *(promise.decided_prefix for promise in promises))
        votes: dict[int, list[tuple[int, DataBatch | SkipRange]]] = {}
        for promise in promises:
            for instance, vrnd, item in promise.accepted:
                if instance >= known:
                    votes.setdefault(instance, []).append((vrnd, item))
        best = {i: item for i, item in sorted(self.host.decided.items()) if i < known}
        best.update((instance, select_value(votes[instance])) for instance in sorted(votes))
        # Announce the new layout before any 2A so surviving acceptors
        # re-chain their successors first (FIFO links keep the order).
        self._announce()
        cursor = max(start, settled)
        horizon = cursor
        for instance, item in best.items():
            horizon = max(horizon, instance + item.instance_count)
            settle = instance < settled
            if settle:
                self.decided.add(instance, item)
            if not isinstance(item, DataBatch):
                continue
            for value in item.values:
                # Seed per-sender dedup state from every recovered value so
                # proposers' retransmissions of already-ordered submissions
                # are recognised; a settled value is acked as decided (at its
                # instance) now, a re-proposed one when it re-decides.
                sender = value.sender
                have = self._submit_expected.get(sender, 0)
                self._submit_expected[sender] = max(have, value.seq + 1)
                if settle and value.seq > self._submit_acked.get(sender, _NONE)[0]:
                    self._submit_acked[sender] = (value.seq, instance)
        # Re-propose the undecided suffix's recovered values at their
        # instances; fill its gaps (an instance below the recovered horizon
        # with no accepted value anywhere in the quorum cannot have been
        # decided) with skips.
        while cursor < horizon:
            item = best.get(cursor)
            if item is not None:
                self._start_instance(item, cursor)
                cursor += item.instance_count
            else:
                gap_end = cursor
                while gap_end < horizon and gap_end not in best:
                    gap_end += 1
                self._start_instance(SkipRange(gap_end - cursor), cursor)
                cursor = gap_end
        self.next_instance = max(self.next_instance, horizon)
        self._pump()

    def _announce(self) -> None:
        self._announce_timer.start()  # stopped by on_crash
        announce = CoordinatorChange(self.config.ring_id, tuple(self.config.acceptors), self.rnd)
        self.network.multicast(
            self.node.name, self.config.multicast_group, self.config.mcast_port,
            announce, announce.size,
        )

    def _step_down(self, src: str, msg: PrepareRange) -> None:
        """Fencing: a higher round's Phase 1 deposes this coordinator. It
        stops proposing, leaves what it proposed to its node's acceptor as
        accepted at its round and what it decided in that acceptor's
        decided log, and that acceptor answers like any member: with its
        votes from the candidate's ``from_instance`` up."""
        if self.crashed or msg.rnd <= self.rnd:
            return
        self.deposed = True
        self.crash()
        host = self.host
        for state in self._inflight.values():
            host.hold(state.instance, self.rnd, state.item)
        # What it decided stays available to learner repairs.
        for instance, item in self.decided.items():
            host.hold(instance, self.rnd, item)
            host.decided.add(instance, item)
        host.serve()
        host._on_prepare_range(src, msg)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def restart(self) -> None:
        if not self.deposed:  # a deposed coordinator never comes back
            super().restart()

    def on_crash(self) -> None:
        self.batcher.stop()
        self._decision_timer.stop()
        self._heartbeat_timer.stop()
        self._announce_timer.stop()

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
        if self.rnd:
            self._announce()
        self.batcher.flush()
        for state in self._inflight.values():
            state.attempt += 1
            state.ring_accepted = False
            state.self_persisted = False
            self._send_phase2a(state)
        self._pump()
