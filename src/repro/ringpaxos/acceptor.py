"""Ring Paxos acceptors (the non-coordinator ring members).

Acceptors receive the coordinator's Phase 2A by ip-multicast, accept it —
persisting through their disk in Recoverable mode — and participate in the
ring's Phase 2B relay: the first acceptor creates the small 2B token, every
subsequent acceptor appends its accept and forwards it, and the token
reaches the coordinator at the end of the ring (paper, Figure 3, steps
4-5).

The extra safety check of Section III-B is implemented literally: an
acceptor only accepts a Phase 2B whose value ID it knows; a 2B that
overtakes its 2A (possible when the 2A multicast copy to this acceptor was
lost) is parked until the value arrives, and a repair is requested from
the coordinator if the wait persists.

Acceptors also remember recently decided items (learned from piggybacked
decision announcements) so they can serve learner repair requests — each
learner is assigned a *preferential acceptor* to ask for lost messages.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from ..calibration import (
    CPU_BYTE_COST_ACCEPTOR,
    CPU_FIXED_COST_ACCEPTOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ProtocolError
from ..metrics import MetricsRegistry
from ..paxos.storage import AcceptorStorage, DurableStorage, InMemoryStorage
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process, Timer
from .config import RingConfig
from .messages import (
    CatchupReply,
    CatchupRequest,
    CheckpointAck,
    CoordinatorChange,
    DataBatch,
    DecisionAnnounce,
    Phase2A,
    Phase2B,
    PrepareRange,
    PromiseRange,
    RepairReply,
    RepairRequest,
    SkipRange,
)
from .valuestore import ValueStore, decided_run

__all__ = ["RingAcceptor"]

# Decided items kept for serving learner repairs and catch-ups; the oldest
# are dropped beyond it.
DECIDED_LOG_LIMIT = 100_000
# Instances of accepted state kept behind the highest decided one seen
# before the sweep garbage-collects them (``RingAcceptor.state_retention``).
STATE_RETENTION = 50_000


class RingAcceptor(Process):
    """One in-ring acceptor of a Ring Paxos instance."""

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"acceptor@{node.name}/ring{config.ring_id}")
        if node.name not in config.acceptors:
            raise ProtocolError(f"{node.name!r} is not an acceptor of ring {config.ring_id}")
        if node.name == config.coordinator:
            raise ProtocolError(
                "the coordinator's acceptor duties are handled by RingCoordinator"
            )
        if config.durable and node.disk is None:
            raise ProtocolError("Recoverable mode requires a disk on every acceptor")
        self.network = network
        self.node = node
        self.config = config
        self.storage: AcceptorStorage = (
            DurableStorage(node.disk) if config.durable else InMemoryStorage()
        )
        self.values = ValueStore()
        self.index = config.acceptors.index(node.name)
        self.successor = config.successor(node.name)
        self.is_first = node.name == config.first_acceptor()
        self.promised_floor = -1
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(ring=config.ring_id, role="acceptor", node=node.name)
        self.accepts = self.metrics.counter("accepts")
        self.forwards = self.metrics.counter("forwards")
        self.repairs_served = self.metrics.counter("repairs_served")
        self.catchups_served = self.metrics.counter("catchups_served")
        self.recoveries = self.metrics.counter("recoveries")
        self.recovered_instances = self.metrics.gauge("recovered_instances")
        self.truncations = self.metrics.counter("truncations")
        self.truncated_below = self.metrics.gauge("truncated_below")
        self.parked_depth = self.metrics.gauge("parked_phase2b")
        self._forwarded: set[tuple[int, int]] = set()
        self._parked_2b: dict[int, Phase2B] = {}
        self._accepted_vids: dict[int, int] = {}
        self.retired = False
        self.last_coordinator_traffic = 0.0
        self._watch_timer: Timer | None = None
        self._on_suspect = None
        self._decided: dict[int, DataBatch | SkipRange] = {}
        self._decided_order: deque[int] = deque()
        self.state_retention = STATE_RETENTION
        self._gc_horizon = 0
        self._max_decided_seen = -1
        self._decided_frontier = 0
        self._ckpt_watermarks: dict[str, int] = {}
        self._truncate_bound = -1
        network.join(config.multicast_group, node.name)
        node.register(config.mcast_port, self._on_mcast)
        node.register(config.ring_port, self._on_ring)
        node.register(config.repair_port, self._on_repair)

    # ------------------------------------------------------------------
    # Multicast traffic (Phase 2A, decisions, heartbeats)
    # ------------------------------------------------------------------
    def _on_mcast(self, src: str, msg) -> None:
        if self.crashed:
            return
        if src == self.config.coordinator:
            self.last_coordinator_traffic = self.sim.now
        if isinstance(msg, CoordinatorChange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_coordinator_change, (msg,))
            return
        if self.retired:
            return
        if isinstance(msg, Phase2A):
            cost = CPU_FIXED_COST_ACCEPTOR + CPU_BYTE_COST_ACCEPTOR * msg.item.size
            self.node.cpu.execute(cost, self._on_phase2a, (msg,))
        elif isinstance(msg, DecisionAnnounce):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._on_decisions, (msg.decisions,)
            )
        # Heartbeats carry nothing an acceptor needs beyond liveness.

    def _on_phase2a(self, msg: Phase2A) -> None:
        if self.crashed:
            return
        if msg.decisions:
            self._on_decisions(msg.decisions)
        value_id = msg.item.value_id if isinstance(msg.item, DataBatch) else -msg.instance - 1
        self.values.put(value_id, msg.item)
        if self.is_first:
            # The first acceptor accepts directly from the 2A and creates
            # the Phase 2B token (Figure 3, step 4). Each acceptor persists
            # its accept exactly once per instance.
            state = self.storage.get(msg.instance)
            if state.rnd > msg.rnd or msg.rnd < self.promised_floor:
                return
            state.rnd = msg.rnd
            state.vrnd = msg.rnd
            state.vval = msg.item
            self._accepted_vids[msg.instance] = value_id  # for PromiseRange answers
            self.accepts.value += 1
            # (instance, rnd, value_id, attempt, accepts)
            token = Phase2B(msg.instance, msg.rnd, value_id, msg.attempt, 1)
            self.storage.persist(msg.instance, msg.item.size, self._forward, (token,))
        else:
            # Later acceptors accept when the ring token reaches them; a 2B
            # that overtook our copy of the 2A can now proceed.
            parked = self._parked_2b.pop(msg.instance, None)
            self.parked_depth.value = len(self._parked_2b)
            if parked is not None and parked.value_id == value_id:
                self._on_phase2b(parked)

    # ------------------------------------------------------------------
    # Ring traffic (Phase 2B)
    # ------------------------------------------------------------------
    def _on_ring(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, PrepareRange):
            self.node.cpu.execute(
                CPU_FIXED_COST_SMALL_MESSAGE, self._on_prepare_range, (src, msg)
            )
            return
        if self.retired or not isinstance(msg, Phase2B):
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_phase2b, (msg,))

    def _on_phase2b(self, msg: Phase2B) -> None:
        if self.crashed:
            return
        item = self.values.get(msg.value_id)
        if item is None:
            # Section III-B safety check: we must know the client value
            # behind the ID before accepting. Park until the 2A arrives.
            self._parked_2b[msg.instance] = msg
            self.parked_depth.value = len(self._parked_2b)
            self.call_later(
                self.config.repair_interval, self._repair_from_coordinator, msg.instance
            )
            return
        state = self.storage.get(msg.instance)
        if state.rnd > msg.rnd or msg.rnd < self.promised_floor:
            return
        key = (msg.instance, msg.attempt)
        if key in self._forwarded:
            return
        state.rnd = msg.rnd
        state.vrnd = msg.rnd
        state.vval = item
        self._accepted_vids[msg.instance] = msg.value_id
        self.accepts.value += 1
        token = Phase2B(msg.instance, msg.rnd, msg.value_id, msg.attempt, msg.accepts + 1)
        self.storage.persist(msg.instance, item.size, self._forward, (token,))

    def _forward(self, token: Phase2B) -> None:
        if self.crashed or self.successor is None:
            return
        key = (token.instance, token.attempt)
        if key in self._forwarded:
            return
        self._forwarded.add(key)
        self.forwards.value += 1
        self.network.send(
            self.node.name, self.successor, self.config.ring_port, token, token.size
        )

    def _repair_from_coordinator(self, instance: int) -> None:
        """Ask the coordinator to resend a 2A we never received."""
        if self.crashed or instance not in self._parked_2b:
            return
        req = RepairRequest(instance)
        self.network.send(
            self.node.name, self.config.coordinator, self.config.coord_port, req, req.size
        )
        self.call_later(self.config.repair_interval, self._repair_from_coordinator, instance)

    # ------------------------------------------------------------------
    # Decisions and learner repair service
    # ------------------------------------------------------------------
    def _on_decisions(self, decisions: tuple[tuple[int, int], ...]) -> None:
        for instance, value_id in decisions:
            self._max_decided_seen = max(self._max_decided_seen, instance)
            if self._decided_frontier <= instance:
                self._decided_frontier = instance + 1
            if instance in self._decided:
                continue
            item = self.values.get(value_id)
            if item is None:
                continue
            if self._decided_frontier < instance + item.instance_count:
                self._decided_frontier = instance + item.instance_count
            self._decided[instance] = item
            self._decided_order.append(instance)
            while len(self._decided_order) > DECIDED_LOG_LIMIT:
                old = self._decided_order.popleft()
                self._decided.pop(old, None)
        # Prune per-instance Paxos state far below the decided frontier:
        # decided instances never change, and a generous retention window
        # (for takeover recovery and learner repairs) bounds memory on long
        # runs; a real deployment would checkpoint instead. Amortised: the
        # O(live state) sweep runs only after the frontier moved a chunk.
        horizon = self._max_decided_seen - self.state_retention
        if horizon > self._gc_horizon + max(1, self.state_retention // 10):
            self.storage.forget_up_to(horizon)
            for key in [k for k in self._accepted_vids if k <= horizon]:
                del self._accepted_vids[key]
            self._forwarded = {
                (inst, attempt) for inst, attempt in self._forwarded if inst > horizon
            }
            self._gc_horizon = horizon

    def _on_repair(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, RepairRequest):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._serve_repair, (src, msg))
        elif isinstance(msg, CatchupRequest):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._serve_catchup, (src, msg))
        elif isinstance(msg, CheckpointAck):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_checkpoint_ack, (msg,))

    def _serve_repair(self, src: str, msg: RepairRequest) -> None:
        if self.crashed:
            return
        items = decided_run(self._decided, msg.instance, msg.count)
        if not items:
            return
        reply = RepairReply(msg.instance, items)
        self.repairs_served.value += 1
        self.network.send(
            self.node.name, src, f"rp{self.config.ring_id}.learner", reply, reply.size
        )

    def _serve_catchup(self, src: str, msg: CatchupRequest) -> None:
        """State transfer for a recovering learner.

        Unlike a gap repair, a catch-up is always answered — even with no
        items, the reply's frontier tells the learner how far behind it
        still is (and an empty reply makes it rotate to another member).
        """
        if self.crashed:
            return
        items = decided_run(self._decided, msg.instance, msg.count)
        reply = CatchupReply(msg.instance, items, frontier=self._decided_frontier)
        self.catchups_served.value += 1
        self.network.send(
            self.node.name, src, f"rp{self.config.ring_id}.learner", reply, reply.size
        )

    # ------------------------------------------------------------------
    # Checkpoint-driven log truncation
    # ------------------------------------------------------------------
    def _on_checkpoint_ack(self, msg: CheckpointAck) -> None:
        """Truncate the Paxos log below the replicas' common checkpoint.

        Every replica's latest durable checkpoint watermark is tracked;
        instances below the minimum are recoverable from a checkpoint at
        every replica, so their consensus state can be forgotten. The
        truncation bound only ever advances: a newly appearing replica
        with a low first watermark lowers the minimum but never un-forgets.
        """
        if self.crashed or msg.ring_id != self.config.ring_id:
            return
        if msg.instance <= self._ckpt_watermarks.get(msg.replica, -1):
            return
        self._ckpt_watermarks[msg.replica] = msg.instance
        bound = min(self._ckpt_watermarks.values()) - 1
        if bound <= self._truncate_bound:
            return
        self._truncate_bound = bound
        self.storage.forget_up_to(bound)
        for key in [k for k in self._accepted_vids if k <= bound]:
            del self._accepted_vids[key]
        self.truncations.value += 1
        self.truncated_below.value = bound + 1

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self.storage.on_crash()

    def on_restart(self) -> None:
        """Rebuild from storage: replay the promise floor and accepted log.

        In Recoverable mode the durable image yields the highest promised
        round and every accepted (instance, item) whose disk write had
        acked — the restarted acceptor answers Phase 1 and parks back into
        the ring with real state. In-memory mode recovers amnesiac, as a
        RAM-only acceptor must. Volatile caches (parked tokens, decided
        log, forward dedup) start empty either way.
        """
        floor, states = self.storage.recover()
        self.promised_floor = floor
        self.values = ValueStore()
        self._accepted_vids = {}
        self._forwarded = set()
        self._parked_2b = {}
        self.parked_depth.value = 0
        self._decided = {}
        self._decided_order.clear()
        self._max_decided_seen = -1
        self._decided_frontier = 0
        self._gc_horizon = 0
        self._ckpt_watermarks = {}
        self._truncate_bound = -1
        recovered = 0
        for instance in sorted(states):
            state = states[instance]
            if state.vrnd < 0 or state.vval is None:
                continue
            item = state.vval
            vid = item.value_id if isinstance(item, DataBatch) else -instance - 1
            self.values.put(vid, item)
            self._accepted_vids[instance] = vid
            recovered += 1
        self.recoveries.value += 1
        self.recovered_instances.value = recovered

    # ------------------------------------------------------------------
    # Reconfiguration support (Phase 1 over an instance range)
    # ------------------------------------------------------------------
    def _on_prepare_range(self, src: str, msg: PrepareRange) -> None:
        """Promise every instance >= from_instance to a new coordinator."""
        if self.crashed or msg.rnd <= self.promised_floor:
            return
        self.promised_floor = msg.rnd
        self.storage.note_floor(msg.rnd)
        reply = PromiseRange(msg.from_instance, msg.rnd, self._accepted_from(msg.from_instance))
        self.storage.persist(
            -1, 64, self.network.send,
            (self.node.name, src, self.config.coord_port, reply, reply.size),
        )

    def decided_item(self, instance: int) -> DataBatch | SkipRange | None:
        """Recently decided item for ``instance`` (None once GC'd)."""
        return self._decided.get(instance)

    # ------------------------------------------------------------------
    # Reconfiguration (paper, Section IV-C)
    # ------------------------------------------------------------------
    def _on_coordinator_change(self, msg: CoordinatorChange) -> None:
        if self.crashed:
            return
        new_config = dataclasses.replace(self.config, acceptors=list(msg.acceptors))
        self.adopt(new_config)
        self.last_coordinator_traffic = self.sim.now

    def local_promise(self, from_instance: int, rnd: int) -> PromiseRange:
        """Promise ``rnd`` and return accepted state, without the network.

        Used by a co-located takeover coordinator: the node that promotes
        itself reads its own acceptor state directly instead of messaging
        itself.
        """
        if rnd > self.promised_floor:
            self.promised_floor = rnd
            self.storage.note_floor(rnd)
        return PromiseRange(from_instance, rnd, self._accepted_from(from_instance))

    def _accepted_from(
        self, from_instance: int
    ) -> tuple[tuple[int, int, DataBatch | SkipRange], ...]:
        """``(instance, vrnd, item)`` of every accepted instance >=
        ``from_instance`` whose value is still held: a PromiseRange body."""
        accepted: list[tuple[int, int, DataBatch | SkipRange]] = []
        for instance in self.storage.known_instances():
            if instance < from_instance:
                continue
            state = self.storage.get(instance)
            if state.vrnd >= 0:
                vid = self._accepted_vids.get(instance)
                item = self.values.get(vid) if vid is not None else None
                if item is not None:
                    accepted.append((instance, state.vrnd, item))
        return tuple(accepted)

    def adopt(self, config: RingConfig) -> None:
        """Switch to a reconfigured ring layout (same ring id and ports)."""
        self.config = config
        if self.node.name in config.acceptors:
            self.index = config.acceptors.index(self.node.name)
            self.successor = config.successor(self.node.name)
            self.is_first = self.node.name == config.first_acceptor()
            self.retired = False
        else:
            self.retire()

    def retire(self) -> None:
        """Stop participating in the data path (keeps state for Phase 1)."""
        self.retired = True
        self.stop_watching()

    def watch_coordinator(self, on_suspect) -> None:
        """Suspect the coordinator after ``config.suspect_timeout`` of
        multicast silence.

        The coordinator's heartbeats (and any 2A/decision traffic) reset
        the clock, so a healthy idle ring is never suspected.
        """
        self._on_suspect = on_suspect
        self.last_coordinator_traffic = self.sim.now
        self._watch_timer = Timer(
            self.sim, self.config.suspect_timeout, self._check_coordinator
        )
        self._watch_timer.start()

    def stop_watching(self) -> None:
        """Disarm the coordinator failure detector."""
        if self._watch_timer is not None:
            self._watch_timer.stop()
            self._watch_timer = None

    def _check_coordinator(self) -> None:
        if self.crashed or self._watch_timer is None:
            return
        timeout = self._watch_timer.delay
        silence = self.sim.now - self.last_coordinator_traffic
        # Tolerance guards against a float-precision livelock: rescheduling
        # by (timeout - silence) when the difference underflows would pin
        # the event loop at a single timestamp.
        if silence >= timeout * (1.0 - 1e-9):
            callback, self._on_suspect = self._on_suspect, None
            self.stop_watching()
            if callback is not None:
                callback(self)
        else:
            self._watch_timer.start(delay=max(timeout - silence, timeout * 0.05))
