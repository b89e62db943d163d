"""Epoch-based elasticity: live group remaps, ring splits/merges, autoscaling.

A deployment changes shape through numbered *configuration epochs*
installed by the :class:`ReconfigManager`, an ordinary client of the
rings on a node of its own. Each epoch boundary is a ``ConfigChange`` cut
decided through the rings themselves, so every learner sees a move at a
definite position of its delivery stream. Moving group g from ring A to
ring B in epoch e is this message sequence::

    manager -> each proposer   hold      MoveRequest(e, g, A, B)
    proposer -> manager        drained   MoveReply(e), sent from the ack
                                         path once no g value of it on A
                                         is undecided
    manager -> B               Submit    join cut
    B -> manager               ack(J)    SubmitAck: decided at instance J
    manager -> A               Submit    switch cut carrying J
    A -> manager               ack       SubmitAck: the switch is decided
    manager -> each proposer   release   MoveRequest(e, ..., release=True)
    proposer -> manager        released  MoveReply(e, release=True)

Once every proposer is drained, every g value sent to A is decided
below both cuts; none reaches B before the release. Learners act on the
switch (see :meth:`~repro.core.merge.DeterministicMerge.join`). The cuts
ride the manager's ring proposers, which resend them and follow a
takeover; the per-sender seq keeps them exactly-once. A hold or release
whose reply is ``RETRY_INTERVAL`` overdue is sent again. Documented
limitation: durable replica log truncation combined with a coordinator
failover *during* a remap can collect the evidence the drain needs (the
fuzz profile runs without replicas for this reason).

The manager creates its node and schedules **nothing** until an
operation is requested — an idle deployment's event sequence is
bit-identical with or without it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable

from ..calibration import CONTROL_MESSAGE_SIZE
from ..errors import ConfigurationError
from ..obs.probe import RECONFIG_EPOCH
from ..ringpaxos.acceptor import RingAcceptor
from ..ringpaxos.builder import attach_node
from ..ringpaxos.messages import CONTROL_GROUP, ConfigChange, MoveReply, MoveRequest, SubmitAck
from ..ringpaxos.proposer import RingProposer
from ..sim.node import Node
from ..sim.process import PeriodicTimer
from .proposer import MOVE_PORT, MOVED_PORT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deployment import MultiRingPaxos
    from .learner import MultiRingLearner

__all__ = ["ReconfigManager", "Autoscaler", "AutoscalePolicy"]

# A hold or release whose reply is this overdue is sent again. Replies
# come back within a round trip, so only a lost message or a crashed
# proposer makes one overdue.
RETRY_INTERVAL = 0.05


class ReconfigManager:
    """Installs configuration epochs through the rings (elasticity).

    Operations are serialized FIFO: one remap is in flight at a time, so
    epoch numbers order the moves and a ring retirement enqueued after
    its emptying remaps cannot run early.
    """

    def __init__(self, mrp: "MultiRingPaxos") -> None:
        self.mrp = mrp
        self.sim = mrp.sim
        self.epoch = 0
        self._queue: deque[dict] = deque()
        self._active: dict | None = None
        self._spare_seq: dict[int, int] = {}
        # The manager's node and its ring proposers (ring id -> the one
        # that submits cuts there), made at the first remap.
        self.node: Node | None = None
        self.ring_proposers: dict[int, RingProposer] = {}
        # Proposer node -> when the current hold or release was last sent
        # to it, while its reply is outstanding.
        self._waiting: dict[str, float] = {}
        self._timer = PeriodicTimer(self.sim, RETRY_INTERVAL, self._tick)
        self.metrics = mrp.metrics.child(role="reconfig")
        self.remaps = self.metrics.counter("remaps")
        self.ring_splits = self.metrics.counter("ring_splits")
        self.ring_merges = self.metrics.counter("ring_merges")
        self.ops_completed = self.metrics.counter("ops_completed")
        self.requests_resent = self.metrics.counter("requests_resent")
        self.pending_ops = self.metrics.gauge("pending_ops")
        self.epoch_gauge = self.metrics.gauge("epoch")

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def remap_group(
        self, group_id: int, new_ring: int,
        on_done: Callable[[dict], None] | None = None,
    ) -> dict:
        """Enqueue a live move of ``group_id`` onto ``new_ring``.

        Returns the operation record; ``on_done(op)`` fires when the move
        completes. A remap onto the group's current ring completes
        immediately (idempotence).
        """
        if group_id not in self.mrp.registry:
            raise ConfigurationError(f"unknown group {group_id}")
        if new_ring not in self.mrp.rings:
            raise ConfigurationError(f"unknown ring {new_ring}")
        if self.mrp.rings[new_ring].retired:
            raise ConfigurationError(f"ring {new_ring} is retired")
        op = {
            "kind": "remap",
            "group": group_id,
            "old_ring": None,  # bound at start: earlier queued moves may shift it
            "new_ring": new_ring,
            "epoch": None,
            "phase": None,  # hold -> join -> switch -> release
            "cuts": {"join": None, "switch": None},
            "done": False,
            "on_done": on_done,
        }
        self._queue.append(op)
        self.pending_ops.value = len(self._queue) + (1 if self._active else 0)
        self._kick()
        return op

    def split_ring(self, ring_id: int) -> int | None:
        """Split an overloaded ring: move the upper half of its groups
        onto a freshly deployed ring. Returns the new ring id, or None
        when the ring orders fewer than two groups (nothing to split)."""
        groups = self.mrp.registry.groups_on_ring(ring_id)
        if len(groups) < 2:
            return None
        new_ring = self.mrp.add_ring()
        self.ring_splits.value += 1
        for gid in groups[len(groups) // 2:]:
            self.remap_group(gid, new_ring)
        return new_ring

    def merge_rings(self, source: int, target: int) -> None:
        """Merge two idle rings: move every group of ``source`` onto
        ``target``, then retire ``source`` (FIFO queueing guarantees the
        retirement runs after its emptying remaps complete)."""
        if source == target:
            raise ConfigurationError("cannot merge a ring with itself")
        if source not in self.mrp.rings or self.mrp.rings[source].retired:
            raise ConfigurationError(f"ring {source} is not available")
        if target not in self.mrp.rings or self.mrp.rings[target].retired:
            raise ConfigurationError(f"ring {target} is not available")
        self.ring_merges.value += 1
        for gid in self.mrp.registry.groups_on_ring(source):
            self.remap_group(gid, target)
        self._queue.append({"kind": "retire", "ring": source, "done": False})
        self.pending_ops.value = len(self._queue) + (1 if self._active else 0)
        self._kick()

    @property
    def busy(self) -> bool:
        """True while an operation is in flight or queued."""
        return self._active is not None or bool(self._queue)

    @property
    def held_groups(self) -> tuple[int, ...]:
        """The group a remap in flight holds until its release, if any: a
        proposer attached now must hold it too."""
        op = self._active
        return (op["group"],) if op is not None and op["phase"] != "release" else ()

    # -- acceptor / learner elasticity ---------------------------------
    def add_spare(self, ring_id: int) -> Node:
        """Provision a fresh spare acceptor node for ``ring_id``.

        The spare joins the failover pool: with failover on, a dormant
        acceptor that enters the ring when a takeover names it."""
        handle = self.mrp.rings[ring_id]
        n = self._spare_seq.get(ring_id, 0)
        self._spare_seq[ring_id] = n + 1
        node = Node(self.sim, f"mr{ring_id}-xspare{n}")
        attach_node(self.mrp.network, node, self.mrp.ring_placement.get(ring_id))
        handle.spares.append(node)
        if handle.failover is not None:
            RingAcceptor(self.sim, self.mrp.network, node, handle.config,
                         metrics=self.mrp.metrics, service=handle.failover)
        return node

    def remove_spare(self, ring_id: int) -> Node | None:
        """Decommission one spare of ``ring_id`` (None when the pool is
        empty). Taken from the tail — failover consumes from the head, so
        an imminent takeover keeps its first choice."""
        spares = self.mrp.rings[ring_id].spares
        return spares.pop() if spares else None

    def rotate_coordinator(self, ring_id: int) -> None:
        """Replace a ring's coordinator online: crash it and let the
        failover path re-chain the ring around a spare. This is the
        remove-acceptor primitive — paired with :meth:`add_spare` it
        implements online acceptor replacement."""
        handle = self.mrp.rings[ring_id]
        if handle.failover is None:
            raise ConfigurationError(
                f"ring {ring_id} has no failover orchestrator (auto_failover off)"
            )
        self.mrp.crash_coordinator(ring_id)

    def attach_learner(self, groups: list[int], **kwargs) -> "MultiRingLearner":
        """Add a learner online. Each of its ring learners starts at
        instance 0 and recovers the ring's decided prefix through the gap
        repair, once the first 2A or heartbeat shows it the frontier."""
        return self.mrp.add_learner(groups, **kwargs)

    def detach_learner(self, learner: "MultiRingLearner") -> None:
        """Remove a learner online: stop it and leave its multicast
        groups so the network stops billing deliveries to it."""
        learner.crash()
        for ring_learner in learner.ring_learners.values():
            self.mrp.network.leave(ring_learner.config.multicast_group, learner.node.name)
        if learner in self.mrp.learners:
            self.mrp.learners.remove(learner)

    # ------------------------------------------------------------------
    # Operation state machine
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        while self._active is None and self._queue:
            op = self._queue.popleft()
            if op["kind"] == "retire":
                # Queued after the remaps that empty the ring; by FIFO
                # they completed, so the registry shows it group-free —
                # unless a remap requested *after* the merge moved a group
                # back onto the ring, in which case the retirement is
                # abandoned (the ring is in use again, leaving it active
                # is the safe outcome).
                if not self.mrp.registry.groups_on_ring(op["ring"]):
                    self.mrp.retire_ring(op["ring"])
                    op["done"] = True
                    self.ops_completed.value += 1
                continue
            self._start_op(op)
        self.pending_ops.value = len(self._queue) + (1 if self._active else 0)
        if self._active is None:
            self._timer.stop()
        elif not self._timer.running:
            self._timer.start()

    def _start_op(self, op: dict) -> None:
        group, new_ring = op["group"], op["new_ring"]
        if self.mrp.rings[new_ring].retired:
            # A merge queued before this move retired its destination: the
            # move is abandoned, like a retirement whose ring is back in use
            # (the group stays where it is, on a ring that still serves).
            return
        old_ring = self.mrp.registry.ring_for(group)
        if old_ring == new_ring:
            op["done"] = True
            self.ops_completed.value += 1
            if op["on_done"] is not None:
                op["on_done"](op)
            return
        if self.node is None:
            self.node = Node(self.sim, "mr-reconfig")
            attach_node(self.mrp.network, self.node, None)
            self.node.register(MOVED_PORT, self._on_reply)
        op["old_ring"] = old_ring
        self.epoch += 1
        op["epoch"] = self.epoch
        self.epoch_gauge.value = self.epoch
        self._emit_epoch(op, phase="start")
        self._active = op
        self._request(op, "hold")

    def _request(self, op: dict, phase: str) -> None:
        """Send the hold or the release to every proposer attached now (one
        attached during the hold starts out holding the group)."""
        op["phase"] = phase
        now = self.sim.now
        self._waiting = {p.node.name: now for p in self.mrp.proposers}
        for name in self._waiting:
            self._send(op, name)
        if not self._waiting:
            self._advance(op)

    def _send(self, op: dict, dst: str) -> None:
        msg = MoveRequest(op["epoch"], op["group"], op["old_ring"], op["new_ring"],
                          op["phase"] == "release")
        self.mrp.network.send(self.node.name, dst, MOVE_PORT, msg, msg.size)

    def _on_reply(self, src: str, msg: MoveReply) -> None:
        op = self._active
        if op is None or (msg.epoch, msg.release) != (op["epoch"], op["phase"] == "release"):
            return  # a copy of an earlier request's reply
        if self._waiting.pop(src, None) is not None and not self._waiting:
            self._advance(op)

    def _advance(self, op: dict) -> None:
        """Every proposer answered: cut once they drained, finish once
        they released."""
        if op["phase"] == "hold":
            self._cut(op, "join")
            return
        op["done"] = True
        self.remaps.value += 1
        self.ops_completed.value += 1
        self._emit_epoch(op, phase="done")
        if op["on_done"] is not None:
            op["on_done"](op)
        self._active = None
        self._kick()

    def _tick(self) -> None:
        """Resend each hold or release whose reply is overdue (the timer
        runs while an operation is active)."""
        now = self.sim.now
        for name, sent in self._waiting.items():
            if sent + RETRY_INTERVAL <= now:
                self._waiting[name] = now
                self.requests_resent.value += 1
                self._send(self._active, name)

    # ------------------------------------------------------------------
    # Cuts: ordinary submissions through the manager's ring proposers
    # ------------------------------------------------------------------
    def _cut(self, op: dict, kind: str) -> None:
        op["phase"] = kind
        ring_id = op["new_ring"] if kind == "join" else op["old_ring"]
        join = op["cuts"]["join"] if kind == "switch" else -1
        cut = ConfigChange(op["epoch"], op["group"], op["old_ring"], op["new_ring"], kind, join)
        proposer = self.ring_proposers.get(ring_id)
        if proposer is None:
            proposer = RingProposer(self.sim, self.mrp.network, self.node,
                                    self.mrp.ring_configs[ring_id])
            proposer.on_ack = self._on_cut_acked
            self.ring_proposers[ring_id] = proposer
        proposer.multicast(cut, CONTROL_MESSAGE_SIZE, CONTROL_GROUP)

    def _on_cut_acked(self, ack: SubmitAck) -> None:
        """The cut in flight — the manager's only undecided submission —
        was decided, at ``ack.decided_instance``."""
        op = self._active
        kind = op["phase"]
        op["cuts"][kind] = ack.decided_instance
        if kind == "join":
            # The binding flips at the join: a proposer attached from now
            # on, once released, submits the group to the new ring.
            self.mrp.registry.remap(
                op["group"], op["new_ring"], known_rings=set(self.mrp.rings)
            )
            self._cut(op, "switch")
        else:
            self._request(op, "release")

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def _emit_epoch(self, op: dict, phase: str) -> None:
        probe = self.sim.probe
        if probe is not None and RECONFIG_EPOCH in probe.subscribers:
            probe.emit(
                RECONFIG_EPOCH, self.sim.now, "reconfig/mgr",
                role="manager", epoch=op["epoch"], group=op["group"],
                phase=phase, old_ring=op["old_ring"], new_ring=op["new_ring"],
            )


@dataclasses.dataclass
class AutoscalePolicy:
    """Thresholds and pacing for the :class:`Autoscaler` policy loop."""

    interval: float = 1.0
    #: Minimum quiet time after a completed action before the next one.
    cooldown: float = 10.0
    #: Split the hottest ring when its coordinator CPU exceeds this.
    cpu_split_threshold: float = 0.85
    #: ... or when deployment-wide admission sheds exceed this rate (1/s).
    shed_rate_threshold: float = 50.0
    #: ... or when a learner's merge buffers this many instances.
    merge_queue_threshold: int = 50_000
    #: Merge the two idlest rings when both coordinators sit below this.
    idle_cpu_threshold: float = 0.05
    min_rings: int = 1
    max_rings: int = 8
    #: Failed actions back off exponentially up to this many doublings.
    max_backoff: int = 4


class Autoscaler:
    """Closed-loop elasticity: observes deployment metrics, drives the
    :class:`ReconfigManager`.

    Reads coordinator CPU utilization, admission shed rates, and learner
    merge-queue depths each ``interval``; splits the hottest ring under
    overload and merges the two idlest rings when capacity sits unused.
    Actions respect a cooldown, wait out in-flight reconfigurations, and
    back off exponentially when an action cannot be taken (e.g. a hot
    ring with a single group cannot split).

    Not started by default — call :meth:`start`.
    """

    def __init__(self, mrp: "MultiRingPaxos", policy: AutoscalePolicy | None = None) -> None:
        self.mrp = mrp
        self.policy = policy if policy is not None else AutoscalePolicy()
        self.metrics = mrp.metrics.child(role="autoscaler")
        self.splits = self.metrics.counter("autoscale_splits")
        self.merges = self.metrics.counter("autoscale_merges")
        self.deferred = self.metrics.counter("autoscale_deferred")
        self._timer = PeriodicTimer(mrp.sim, self.policy.interval, self._tick)
        self._last_action = -float("inf")
        self._backoff = 0
        self._prev_shed = 0
        self._prev_shed_time = mrp.sim.now
        # Coordinator CPU -> its busy_time() at the previous reading.
        self._prev_busy: dict = {}
        self._prev_busy_time = mrp.sim.now

    def start(self) -> None:
        """Begin the policy loop."""
        self._ring_cpu()  # the first tick's window opens here
        self._timer.start()

    def stop(self) -> None:
        """Stop the policy loop (idempotent)."""
        self._timer.stop()

    # -- signals --------------------------------------------------------
    def _shed_rate(self) -> float:
        total = 0
        for proposer in self.mrp.proposers:
            if proposer.admission is not None:
                total += proposer.admission.shed.value
        now = self.mrp.sim.now
        elapsed = now - self._prev_shed_time
        rate = (total - self._prev_shed) / elapsed if elapsed > 0 else 0.0
        self._prev_shed = total
        self._prev_shed_time = now
        return rate

    def _merge_backlog(self) -> float:
        depths = [ln.merge.buffered_instances.value for ln in self.mrp.learners]
        return max(depths) if depths else 0.0

    def _ring_cpu(self) -> dict[int, float]:
        """Coordinator CPU utilization of each live ring since the previous
        reading: two readings of ``busy_time()``, like :meth:`_shed_rate`.
        A CPU first seen now (new ring, new coordinator) has no window yet;
        one that read flat is stopped (a live one's heartbeats cost CPU)."""
        now = self.mrp.sim.now
        elapsed = now - self._prev_busy_time
        prev, self._prev_busy = self._prev_busy, {}
        self._prev_busy_time = now
        out: dict[int, float] = {}
        for rid, handle in self.mrp.rings.items():
            cpu = handle.coordinator.node.cpu
            busy = self._prev_busy[cpu] = cpu.busy_time()
            if handle.retired or cpu not in prev or busy == prev[cpu]:
                continue
            out[rid] = (busy - prev[cpu]) / elapsed if elapsed > 0 else 0.0
        return out

    # -- the loop -------------------------------------------------------
    def _tick(self) -> None:
        policy = self.policy
        now = self.mrp.sim.now
        # Both sampled every tick so deltas stay windowed.
        shed_rate = self._shed_rate()
        cpu = self._ring_cpu()
        if self.mrp.reconfig.busy:
            return  # let the in-flight reconfiguration settle first
        wait = policy.cooldown * (2 ** self._backoff)
        if now - self._last_action < wait:
            return
        if not cpu:
            return
        active = len(cpu)
        hottest = max(cpu, key=cpu.get)
        overloaded = (
            cpu[hottest] > policy.cpu_split_threshold
            or shed_rate > policy.shed_rate_threshold
            or self._merge_backlog() > policy.merge_queue_threshold
        )
        if overloaded and active < policy.max_rings:
            if self.mrp.reconfig.split_ring(hottest) is not None:
                self.splits.value += 1
                self._note_action(now, ok=True)
            else:
                # One-group ring: splitting cannot shed its load.
                self.deferred.value += 1
                self._note_action(now, ok=False)
            return
        if active > policy.min_rings and len(cpu) >= 2:
            by_load = sorted(cpu, key=cpu.get)
            a, b = by_load[0], by_load[1]
            if cpu[a] < policy.idle_cpu_threshold and cpu[b] < policy.idle_cpu_threshold:
                # Fold the idlest ring into the second idlest.
                self.mrp.reconfig.merge_rings(a, b)
                self.merges.value += 1
                self._note_action(now, ok=True)

    def _note_action(self, now: float, ok: bool) -> None:
        self._last_action = now
        if ok:
            self._backoff = 0
        else:
            self._backoff = min(self._backoff + 1, self.policy.max_backoff)
