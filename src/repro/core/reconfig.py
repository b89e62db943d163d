"""Epoch-based elasticity: live group remaps, ring splits/merges, autoscaling.

A running Multi-Ring Paxos deployment changes shape through numbered
*configuration epochs* installed by the :class:`ReconfigManager`. Every
epoch boundary is marked by ``ConfigChange`` cuts decided **through the
rings themselves** — reconfiguration rides the same total order it
reconfigures, so every learner observes a move at a definite position of
its delivery stream and no out-of-band agreement service is needed.

A live group remap (group ``g`` from ring A to ring B) proceeds as::

    epoch e := next epoch
    1. hold   — every proposer queues new multicasts to g locally;
                A's coordinator *redirects* in-flight submissions of g to
                the manager (bounce queue) instead of ordering them.
    2. leave  — cut (e, g, A->B, "leave") decided on A at instance C.
                Because the redirect precedes the cut and ingestion is
                FIFO, every A-ordered value of g sits at an instance < C:
                the old-epoch suffix of g is exactly A's stream up to C.
    3. join   — cut decided on B at instance J; no value of g is ordered
                on B before J. The group table flips to B, both rings'
                skip managers re-anchor their rate windows, and the
                manager starts forwarding bounced values to B (original
                sender/seq, ``redirected=True``), in per-sender order.
    4. switch — cut decided on A carrying ``join_instance=J``. Learners
                activate the new configuration exactly when they consume
                this cut: the old-ring suffix is fully delivered, held
                new-ring values flush, and learners new to B start a ring
                learner positioned at J.
    5. release — once a proposer has no undecided g-submissions left on
                A (bounced values count as decided when their forwarded
                copy decides on B and A's watermark is advanced), its
                held queue drains onto B. The operation completes when
                all three cuts are decided, every bounced value's
                decision was observed, and every proposer released.

Correctness scope (documented limitations):

* The uniform-partial-order guarantee across a remap holds for learner
  sets with **identical subscription sets** (they run the same
  deterministic merge and switch at the same cut). Learners with
  heterogeneous subscriptions may transiently disagree on the relative
  order of messages from *different* groups while a move is in flight.
* Combining durable replica checkpoint log-truncation with a coordinator
  failover *during* a remap can garbage-collect the evidence the release
  gate needs; deployments using the reconfiguration manager should not
  truncate acceptor logs mid-move (the fuzz profile runs without
  replicas for this reason).

The manager is constructed by every deployment but schedules **nothing**
until an operation is requested — an idle deployment's event sequence is
bit-identical with or without it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Callable

from ..calibration import CONTROL_MESSAGE_SIZE
from ..errors import ConfigurationError
from ..obs.probe import RECONFIG_EPOCH
from ..ringpaxos.builder import attach_node
from ..ringpaxos.messages import CONTROL_GROUP, ClientValue, ConfigChange
from ..sim.node import Node
from ..sim.process import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deployment import MultiRingPaxos
    from .learner import MultiRingLearner

__all__ = ["ReconfigManager", "Autoscaler", "AutoscalePolicy"]

# How often the manager retries outstanding cut submissions, re-drives
# bounce forwarding, and re-checks completion. Small relative to protocol
# timeouts: retries are idempotent (keyed submissions) so the only cost
# of a tick is a few dict probes.
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
        # (ring_id, group) -> the op draining that group off that ring.
        # Entries persist after completion: the redirect stays installed
        # as a sink that advances the sender watermark for any straggling
        # retransmission (all pre-release values are already resolved, so
        # the sink can only ack, never lose).
        self._drains: dict[tuple[int, int], dict] = {}
        self._spare_seq: dict[int, int] = {}
        # Rings whose decide hook observes cuts and forwarded values. The
        # hook is ring state: a takeover hands it to the new coordinator.
        self._hooked: set[int] = set()
        self._timer = PeriodicTimer(self.sim, RETRY_INTERVAL, self._tick)
        self.metrics = mrp.metrics.child(role="reconfig")
        self.remaps = self.metrics.counter("remaps")
        self.ring_splits = self.metrics.counter("ring_splits")
        self.ring_merges = self.metrics.counter("ring_merges")
        self.ops_completed = self.metrics.counter("ops_completed")
        self.cut_retries = self.metrics.counter("cut_retries")
        self.values_bounced = self.metrics.counter("values_bounced")
        self.values_forwarded = self.metrics.counter("values_forwarded")
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
            "cuts": {"leave": None, "join": None, "switch": None},
            "bounced": {},        # sender -> {seq: ClientValue}
            "forward_next": {},   # sender -> next old-ring seq to resolve
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

    # -- acceptor / learner elasticity ---------------------------------
    def add_spare(self, ring_id: int) -> Node:
        """Provision a fresh spare acceptor node for ``ring_id``.

        The spare joins the failover pool; it enters the ring at the next
        coordinator takeover (Cheap Paxos style). The ballot universe is
        left unchanged — quorum arithmetic stays conservative."""
        handle = self.mrp.rings[ring_id]
        n = self._spare_seq.get(ring_id, 0)
        self._spare_seq[ring_id] = n + 1
        node = Node(self.sim, f"mr{ring_id}-xspare{n}")
        attach_node(self.mrp.network, node, self.mrp.ring_placement.get(ring_id))
        handle.spares.append(node)
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
        """Add a learner online; it catches up each subscribed ring's
        decided prefix through the ranged catch-up path before serving
        live traffic."""
        learner = self.mrp.add_learner(groups, **kwargs)
        for ring_learner in learner.ring_learners.values():
            ring_learner.begin_catchup()
        return learner

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
        group = op["group"]
        old_ring = self.mrp.registry.ring_for(group)
        if old_ring == op["new_ring"]:
            op["done"] = True
            self.ops_completed.value += 1
            if op["on_done"] is not None:
                op["on_done"](op)
            return
        op["old_ring"] = old_ring
        self.epoch += 1
        op["epoch"] = self.epoch
        self.epoch_gauge.value = self.epoch
        self._emit_epoch(op, phase="start")
        self._active = op
        # The group may be *returning* to a ring it drained off in an
        # earlier epoch. That epoch's sink redirect is still installed
        # there and would swallow the group's post-release submissions —
        # uninstall it now (the proposers hold the group for the whole
        # move, and the old stream's stragglers are covered by the
        # coordinator's ordinary per-sender dedup watermarks).
        if self._drains.pop((op["new_ring"], group), None) is not None:
            self.mrp.rings[op["new_ring"]].coordinator.redirects.pop(group, None)
        for proposer in self.mrp.proposers:
            proposer.hold_group(group)
        # Redirect before the leave cut: FIFO ingestion then guarantees
        # no value of the group is ordered on the old ring after the cut.
        self._drains[(old_ring, group)] = op
        self._install_drain(old_ring, group)
        self._hook_ring(old_ring)
        self._hook_ring(op["new_ring"])
        self._submit_cut(op, "leave")

    def _tick(self) -> None:
        op = self._active
        if op is None:
            self._timer.stop()
            return
        cuts = op["cuts"]
        if cuts["leave"] is None:
            retried = self._submit_cut(op, "leave")
        elif cuts["join"] is None:
            retried = self._submit_cut(op, "join")
        elif cuts["switch"] is None:
            retried = self._submit_cut(op, "switch")
        else:
            retried = False
        if retried:
            # The keyed submission actually re-entered a coordinator: the
            # previous copy died with a takeover before being recovered.
            self.cut_retries.value += 1
        if cuts["join"] is not None:
            self._forward_bounces(op)
        self._check_complete(op)

    def _check_complete(self, op: dict) -> None:
        if op["done"] or any(v is None for v in op["cuts"].values()):
            return
        if any(op["bounced"].values()):
            return
        group, old_ring, new_ring = op["group"], op["old_ring"], op["new_ring"]
        released = True
        for proposer in self.mrp.proposers:
            if not proposer.complete_group_move(group, old_ring, new_ring):
                released = False
        if not released:
            return
        op["done"] = True
        self.remaps.value += 1
        self.ops_completed.value += 1
        self._emit_epoch(op, phase="done")
        if op["on_done"] is not None:
            op["on_done"](op)
        self._active = None
        self._kick()

    # ------------------------------------------------------------------
    # Cuts
    # ------------------------------------------------------------------
    def _submit_cut(self, op: dict, kind: str) -> bool:
        ring_id = op["new_ring"] if kind == "join" else op["old_ring"]
        cut = ConfigChange(
            epoch=op["epoch"],
            group=op["group"],
            old_ring=op["old_ring"],
            new_ring=op["new_ring"],
            kind=kind,
            join_instance=op["cuts"]["join"] if kind == "switch" else -1,
        )
        # (payload, size, sender, seq, created_at, group)
        value = ClientValue(cut, CONTROL_MESSAGE_SIZE, "", 0, self.sim.now, CONTROL_GROUP)
        coordinator = self.mrp.rings[ring_id].coordinator
        return coordinator.submit_unique(("cut", op["epoch"], kind), value)

    def _on_ring_decide(self, ring_id: int, instance: int, item) -> None:
        values = getattr(item, "values", None)
        if values is None:
            return  # a skip range
        op = self._active
        for value in values:
            if isinstance(value.payload, ConfigChange):
                self._on_cut_decided(ring_id, instance, value.payload)
                op = self._active  # a cut can complete/advance the op
            elif (
                value.redirected
                and op is not None
                and not op["done"]
                and ring_id == op["new_ring"]
                and value.group == op["group"]
            ):
                queue = op["bounced"].get(value.sender)
                if queue is not None and queue.pop(value.seq, None) is not None:
                    self.values_forwarded.value += 1
                    # The bounced value is now ordered (on the new ring):
                    # advance the old ring's sender watermark so the
                    # proposer can forget it and the release gate opens.
                    old = self.mrp.rings[op["old_ring"]].coordinator
                    old.note_foreign_decide(value.sender, value.seq)

    def _on_cut_decided(self, ring_id: int, instance: int, cut: ConfigChange) -> None:
        op = self._active
        if op is None or op["epoch"] != cut.epoch or op["done"]:
            return  # a re-decide of an older epoch's cut after a takeover
        cuts = op["cuts"]
        if cut.kind == "leave" and ring_id == op["old_ring"]:
            if cuts["leave"] is None:
                cuts["leave"] = instance
                self._submit_cut(op, "join")
        elif cut.kind == "join" and ring_id == op["new_ring"]:
            if cuts["join"] is None:
                cuts["join"] = instance
                # The binding flips at the join: new submissions target
                # the new ring, and both rings' skip managers re-anchor
                # so the epoch boundary is not mistaken for a backlog.
                self.mrp.registry.remap(
                    op["group"], op["new_ring"], known_rings=set(self.mrp.rings)
                )
                self.mrp.rings[op["old_ring"]].skip_manager.reseed()
                self.mrp.rings[op["new_ring"]].skip_manager.reseed()
                self._submit_cut(op, "switch")
                self._forward_bounces(op)
        elif cut.kind == "switch" and ring_id == op["old_ring"]:
            if cuts["switch"] is None:
                cuts["switch"] = instance
                self._check_complete(op)

    # ------------------------------------------------------------------
    # Bounce / forward (the drain path)
    # ------------------------------------------------------------------
    def _install_drain(self, ring_id: int, group: int) -> None:
        self.mrp.rings[ring_id].coordinator.redirects[group] = (
            lambda value, _r=ring_id, _g=group: self._drain_value(_r, _g, value)
        )

    def _drain_value(self, ring_id: int, group: int, value: ClientValue) -> None:
        op = self._drains.get((ring_id, group))
        if op is None:  # pragma: no cover - redirect without a drain record
            return
        sender, seq = value.sender, value.seq
        if op["done"]:
            # Straggling retransmission of a value that already moved:
            # everything up to the release is resolved, so acknowledging
            # is safe and unsticks the sender.
            self.mrp.rings[ring_id].coordinator.note_foreign_decide(sender, seq)
            return
        forward_next = op["forward_next"].get(sender)
        queue = op["bounced"].setdefault(sender, {})
        if forward_next is not None and seq < forward_next and seq not in queue:
            return  # duplicate of an already-resolved submission
        if seq not in queue:
            self.values_bounced.value += 1
        queue[seq] = value
        if op["cuts"]["join"] is not None:
            self._forward_bounces(op)

    def _forward_bounces(self, op: dict) -> None:
        """Forward bounced values to the new ring, in per-sender order.

        ``forward_next`` walks each sender's old-ring seq space upward
        from the old coordinator's decided watermark at first forwarding:
        a seq in the bounce queue is (re)submitted to the new ring; a seq
        at or below the old ring's watermark resolved there; anything
        else is still in flight toward the old ring — stop and wait, the
        redirect will bounce it here. Queue entries are removed only when
        their decision is *observed* on the new ring (the manager is the
        durability holder for bounced values)."""
        old_coord = self.mrp.rings[op["old_ring"]].coordinator
        new_coord = self.mrp.rings[op["new_ring"]].coordinator
        for sender, queue in op["bounced"].items():
            nxt = op["forward_next"].get(sender)
            if nxt is None:
                nxt = old_coord._submit_acked.get(sender, -1) + 1
            acked = old_coord._submit_acked.get(sender, -1)
            while True:
                if nxt in queue:
                    value = queue[nxt]
                    if not value.redirected:
                        value = dataclasses.replace(value, redirected=True)
                        queue[nxt] = value
                    new_coord.submit_unique(("fwd", sender, nxt), value)
                    nxt += 1
                elif nxt <= acked:
                    nxt += 1  # resolved on the old ring before the drain
                else:
                    break
            op["forward_next"][sender] = nxt

    # ------------------------------------------------------------------
    # Decide hook (ring state: a takeover hands it over as it is)
    # ------------------------------------------------------------------
    def _hook_ring(self, ring_id: int) -> None:
        """Observe ``ring_id``'s decisions from now on. A successor
        coordinator re-decides the recovered prefix; every observation
        here is idempotent."""
        if ring_id in self._hooked:
            return
        self._hooked.add(ring_id)
        coordinator = self.mrp.rings[ring_id].coordinator
        prev = coordinator.on_decide

        def hooked(instance, item, _prev=prev, _ring=ring_id):
            if _prev is not None:
                _prev(instance, item)
            self._on_ring_decide(_ring, instance, item)

        coordinator.on_decide = hooked

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
        A CPU first seen now (new ring, new coordinator) has no window yet."""
        now = self.mrp.sim.now
        elapsed = now - self._prev_busy_time
        prev, self._prev_busy = self._prev_busy, {}
        self._prev_busy_time = now
        out: dict[int, float] = {}
        for rid, handle in self.mrp.rings.items():
            cpu = handle.coordinator.node.cpu
            busy = self._prev_busy[cpu] = cpu.busy_time()
            if handle.retired or handle.coordinator.crashed or cpu not in prev:
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
