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
decision announcements) in a ``DecidedLog`` so they can serve learner
repair requests — each learner is assigned a *preferential acceptor* to
ask for lost messages.

With a :class:`~repro.ringpaxos.reconfig.RingFailover` record, acceptors
also reconfigure the ring by messages alone (paper, Section IV-C; see
docs/protocol.md, "Reconfiguration"): a member that hears no coordinator
for ``suspect_timeout * (1 + index)`` runs Phase 1 with a round it owns
from its decided log's gap-free prefix up, and hosts the successor
coordinator, which reads the history below it there, once a majority
has promised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..calibration import (
    CPU_BYTE_COST_ACCEPTOR,
    CPU_FIXED_COST_ACCEPTOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ProtocolError
from ..metrics import MetricsRegistry
from ..paxos.ballot import next_round
from ..paxos.storage import AcceptorStorage, DurableStorage, InMemoryStorage
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process, Timer
from .config import RingConfig
from .coordinator import RingCoordinator
from .messages import (
    CheckpointAck,
    CoordinatorChange,
    DataBatch,
    DecisionAnnounce,
    Phase2A,
    Phase2B,
    PrepareRange,
    PromiseRange,
    RepairRequest,
    SkipRange,
    value_id_of,
)
from .valuestore import DecidedLog, ValueStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .reconfig import RingFailover

__all__ = ["RingAcceptor"]

# Decided items kept for serving learner repairs; the oldest are dropped
# beyond it.
DECIDED_LOG_LIMIT = 100_000
# Instances of accepted state kept behind the highest decided one seen
# before the sweep garbage-collects them (``RingAcceptor.state_retention``).
STATE_RETENTION = 50_000
# Acceptor k of a ring owns the rounds congruent to k modulo this, so no two
# candidates ever pick the same round (round 0 is the first coordinator's,
# whose Phase 1 is pre-executed).
ROUND_OWNERS = 1 << 16


@dataclass(slots=True)
class _Candidacy:
    """A suspecting member's Phase 1: its round, whom it asks, who promised."""

    rnd: int
    asked: list[str]
    promises: dict[str, PromiseRange]


class RingAcceptor(Process):
    """One in-ring acceptor of a Ring Paxos instance."""

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
        metrics: MetricsRegistry | None = None,
        service: RingFailover | None = None,
    ) -> None:
        super().__init__(sim, f"acceptor@{node.name}/ring{config.ring_id}")
        # Without a RingFailover record an acceptor is an in-ring member
        # (the coordinator's acceptor duties are RingCoordinator's).
        member = node.name in config.acceptors[:-1]
        if service is None and not member:
            raise ProtocolError(f"{node.name!r} is not an in-ring acceptor of ring {config.ring_id}")
        if config.durable and node.disk is None:
            raise ProtocolError("Recoverable mode requires a disk on every acceptor")
        self.network = network
        self.node = node
        self.config = config
        self.storage: AcceptorStorage = (
            DurableStorage(node.disk) if config.durable else InMemoryStorage()
        )
        self.values = ValueStore()
        self.index = config.acceptors.index(node.name) if member else -1
        self.successor = config.successor(node.name) if member else None
        self.is_first = node.name == config.first_acceptor()
        # Highest round a PrepareRange carried (never reset): a candidate bids
        # above it, so an amnesiac restart never reuses its last round.
        self._rnd_seen = 0
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(ring=config.ring_id, role="acceptor", node=node.name)
        self.accepts = self.metrics.counter("accepts")
        self.forwards = self.metrics.counter("forwards")
        self.repairs_served = self.metrics.counter("repairs_served")
        self.recoveries = self.metrics.counter("recoveries")
        self.recovered_instances = self.metrics.gauge("recovered_instances")
        self.truncations = self.metrics.counter("truncations")
        self.truncated_below = self.metrics.gauge("truncated_below")
        self.parked_depth = self.metrics.gauge("parked_phase2b")
        self._forwarded: set[tuple[int, int]] = set()
        self._parked_2b: dict[int, Phase2B] = {}
        # A spare or a coordinator's own acceptor is dormant until a
        # CoordinatorChange names it a member.
        self.retired = not member
        self.last_coordinator_traffic = sim.now
        self.service = service
        self._candidacy: _Candidacy | None = None
        self._watch_timer = None
        if service is not None:
            self.owner = service.enlist(self)
            self._watch_timer = Timer(sim, config.suspect_timeout, self._check_coordinator)
            if member:
                self._watch_timer.start()
        self.decided = DecidedLog(DECIDED_LOG_LIMIT)  # its prefix starts Phase 1
        self.state_retention = STATE_RETENTION
        self._gc_horizon = 0
        # The highest instance a decision named: the GC sweep's reference.
        self._highest_decided_instance = -1
        self._ckpt_watermarks: dict[str, int] = {}
        self._truncate_bound = -1
        if member:
            network.join(config.multicast_group, node.name)
        node.register(config.mcast_port, self._on_mcast)
        self.serve()

    def serve(self) -> None:
        """Answer the node's ring and repair ports (also after a step-down)."""
        self.node.register(self.config.ring_port, self._on_ring)
        self.node.register(self.config.repair_port, self._on_repair)

    # ------------------------------------------------------------------
    # Multicast traffic (Phase 2A, decisions, heartbeats)
    # ------------------------------------------------------------------
    def _on_mcast(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, CoordinatorChange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_coordinator_change, (msg,))
            return
        # Only the coordinator the layout names drives this acceptor: a
        # deposed one, or a successor whose CoordinatorChange has not
        # arrived, is not heard.
        if self.retired or src != self.config.coordinator:
            return
        self.last_coordinator_traffic = self.sim.now
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
        item = msg.item
        value_id = msg.value_id
        self.values.put(value_id, item)
        if self.is_first:
            # The first acceptor accepts directly from the 2A and creates
            # the Phase 2B token (Figure 3, step 4). Each acceptor persists
            # its accept exactly once per instance.
            if not self.storage.accept(msg.instance, msg.rnd, item):
                return
            self.accepts.value += 1
            # (instance, rnd, value_id, attempt, accepts)
            token = Phase2B(msg.instance, msg.rnd, value_id, msg.attempt, 1)
            self.storage.persist(msg.instance, item.size, self._forward, (token,))
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
            # behind the ID before accepting. Park until the 2A arrives; a
            # re-park (a retry's token) joins the repair chain already running.
            if msg.instance not in self._parked_2b:
                self.call_later(
                    self.config.repair_interval, self._repair_from_coordinator, msg.instance
                )
            self._parked_2b[msg.instance] = msg
            self.parked_depth.value = len(self._parked_2b)
            return
        if (msg.instance, msg.attempt) in self._forwarded:
            return
        if not self.storage.accept(msg.instance, msg.rnd, item):
            return
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
            self._highest_decided_instance = max(self._highest_decided_instance, instance)
            item = self.values.get(value_id)
            if item is not None:
                self.decided.add(instance, item)
        # Prune per-instance Paxos state far below the decided frontier:
        # decided instances never change, and a generous retention window
        # (for takeover recovery and learner repairs) bounds memory on long
        # runs; a real deployment would checkpoint instead. Amortised: the
        # O(live state) sweep runs only after the frontier moved a chunk.
        horizon = self._highest_decided_instance - self.state_retention
        if horizon > self._gc_horizon + max(1, self.state_retention // 10):
            self.storage.forget_up_to(horizon)
            self._forwarded = {
                (inst, attempt) for inst, attempt in self._forwarded if inst > horizon
            }
            self._gc_horizon = horizon

    def _on_repair(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, RepairRequest):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._serve_learner, (src, msg))
        elif isinstance(msg, CheckpointAck):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_checkpoint_ack, (msg,))

    def _serve_learner(self, src: str, msg: RepairRequest) -> None:
        """Answer a learner's repair from the decided log."""
        if self.crashed:
            return
        reply = self.decided.reply(msg)
        if reply is None:
            return
        self.repairs_served.value += 1
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
        log and its watermarks, forward dedup) start empty either way.
        """
        self.storage.recover()
        self.values = ValueStore()
        self._forwarded = set()
        self._parked_2b = {}
        self.parked_depth.value = 0
        self.decided = DecidedLog(DECIDED_LOG_LIMIT)
        self._highest_decided_instance = -1
        self._gc_horizon = 0
        self._ckpt_watermarks = {}
        self._truncate_bound = -1
        votes = self.storage.votes()
        for instance, vrnd, item in votes:
            self.values.put(value_id_of(instance, vrnd, item), item)
        self.recoveries.value += 1
        self.recovered_instances.value = len(votes)
        self._candidacy = None
        if self._watch_timer is not None and not self.retired:
            self.last_coordinator_traffic = self.sim.now
            self._watch_timer.start()

    # ------------------------------------------------------------------
    # Phase 1 over an instance range (paper, Section IV-C)
    # ------------------------------------------------------------------
    def _on_prepare_range(self, src: str, msg: PrepareRange) -> None:
        reply = self.promise(msg)
        if reply is not None:
            self.storage.persist(
                -1, 64, self.network.send,
                (self.node.name, src, self.config.coord_port, reply, reply.size),
            )

    def promise(self, msg: PrepareRange) -> PromiseRange | None:
        """Promise every instance >= from_instance to a candidate, or None
        when this acceptor has promised a higher round already. A repeated
        PrepareRange (its promise was lost) is answered again."""
        self._rnd_seen = max(self._rnd_seen, msg.rnd)
        if self.crashed or msg.rnd < self.storage.floor:
            return None
        if msg.rnd > self.storage.floor:
            self.storage.note_floor(msg.rnd)
            self.last_coordinator_traffic = self.sim.now
            if self._candidacy is not None and msg.rnd > self._candidacy.rnd:
                self._stand_down()
            # A dormant acceptor listens from here on: a CoordinatorChange
            # may name it, and the 2As that follow must reach it.
            self.network.join(self.config.multicast_group, self.node.name)
        # Below a checkpoint truncation everything is decided and forgotten:
        # the answer starts above it, and so does the successor's recovery.
        start = max(msg.from_instance, self._truncate_bound + 1)
        return PromiseRange(start, msg.rnd, self.storage.votes(start), self.decided.prefix)

    def hold(self, instance: int, rnd: int, item: DataBatch | SkipRange) -> None:
        """Vote for ``item`` at ``rnd`` where the rule allows, and keep its
        value: a deposed coordinator's proposals, which its node's acceptor
        answers."""
        self.storage.accept(instance, rnd, item)
        self.values.put(value_id_of(instance, rnd, item), item)

    # ------------------------------------------------------------------
    # Suspicion and candidacy
    # ------------------------------------------------------------------
    def _check_coordinator(self) -> None:
        if self.crashed or self.retired or self._candidacy is not None:
            return
        timeout = self.config.suspect_timeout * (1 + self.index)
        silence = self.sim.now - self.last_coordinator_traffic
        # Tolerance guards against a float-precision livelock: rescheduling
        # by (timeout - silence) when the difference underflows would pin
        # the event loop at a single timestamp.
        if silence < timeout * (1.0 - 1e-9):
            self._watch_timer.start(delay=max(timeout - silence, timeout * 0.05))
            return
        if self.node.name not in self.service.config.acceptors:
            return  # excluded by a takeover whose CoordinatorChange never came
        self.service.suspected(self.node.name)
        rnd = next_round(max(self._rnd_seen, self.storage.floor), self.owner, ROUND_OWNERS)
        # The candidate's own promise is read locally, not sent to itself.
        own = self.promise(PrepareRange(self.decided.prefix, rnd))
        self._candidacy = _Candidacy(rnd, self.service.universe(), {self.node.name: own})
        self.node.register(self.config.coord_port, self._on_coord_port)
        self._solicit(rnd)

    def _solicit(self, rnd: int) -> None:
        """(Re-)send the candidacy's PrepareRange to whoever has not promised."""
        bid = self._candidacy
        if bid is None or bid.rnd != rnd:
            return
        prepare = PrepareRange(self.decided.prefix, rnd)
        for name in bid.asked:
            if name not in bid.promises:
                self.network.send(self.node.name, name, self.config.ring_port, prepare, prepare.size)
        self.call_later(self.config.retry_timeout, self._solicit, rnd)

    def _stand_down(self) -> None:
        """End the candidacy (a higher round is running) and watch again."""
        self._candidacy = None
        self.last_coordinator_traffic = self.sim.now
        self._watch_timer.start()

    def _on_coord_port(self, src: str, msg) -> None:
        if not self.crashed and isinstance(msg, PromiseRange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_promise, (src, msg))

    def _on_promise(self, src: str, msg: PromiseRange) -> None:
        bid = self._candidacy
        if self.crashed or bid is None or msg.rnd != bid.rnd:
            return
        bid.promises[src] = msg
        if 2 * len(bid.promises) <= len(bid.asked):
            return
        # A majority promised: the new layout is the spares that did, then
        # the members that did, then this candidate, the coordinator.
        self._candidacy = None
        me = self.node.name
        layout = [name for name in bid.asked if name in bid.promises and name != me] + [me]
        config = self.config.with_layout(layout, self.network)
        coordinator = RingCoordinator(
            self.sim, self.network, self.node, config, rnd=bid.rnd,
            metrics=self.service.metrics, host=self,
        )
        coordinator.recover(bid.promises.values())
        self.service.recovered(coordinator)

    # ------------------------------------------------------------------
    # Reconfiguration (paper, Section IV-C)
    # ------------------------------------------------------------------
    def _on_coordinator_change(self, msg: CoordinatorChange) -> None:
        if self.crashed or msg.rnd < self.storage.floor:
            return
        self.adopt(self.config.with_layout(msg.acceptors, self.network))
        if self._watch_timer is not None and not self.retired:
            self._stand_down()

    def adopt(self, config: RingConfig) -> None:
        """Switch to a reconfigured ring layout (same ring id and ports)."""
        self.config = config
        if self.node.name in config.acceptors[:-1]:
            self.index = config.acceptors.index(self.node.name)
            self.successor = config.successor(self.node.name)
            self.is_first = self.node.name == config.first_acceptor()
            self.retired = False
        else:
            self.retire()

    def retire(self) -> None:
        """Leave the data path, state kept for Phase 1 (excluded, or coordinator)."""
        self.retired = True
        self._candidacy = None
