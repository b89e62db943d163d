"""The Multi-Ring Paxos proposer: ``multicast(g, m)`` (Algorithm 1, Task 1).

To multicast a message to group g, a proposer sends it to the coordinator
of g's ring. One :class:`MultiRingProposer` can address any number of
groups from a single node; under the hood it keeps one reliable
:class:`~repro.ringpaxos.proposer.RingProposer` per ring, sharing the
node's NIC. Its group -> ring map is read from the registry when it is
attached; then only a remap's release moves it (see
:class:`~repro.ringpaxos.messages.MoveRequest`).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..metrics import MetricsRegistry
from ..ringpaxos.config import RingConfig
from ..ringpaxos.messages import ClientValue, MoveReply, MoveRequest, SubmitAck
from ..ringpaxos.proposer import RingProposer
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from .admission import AdmissionController, AdmissionPolicy
from .groups import GroupRegistry

__all__ = ["MultiRingProposer", "MOVE_PORT", "MOVED_PORT"]

# The ports a group remap's requests (manager -> proposer) and replies
# (proposer -> manager) arrive on.
MOVE_PORT = "mrp.move"
MOVED_PORT = "mrp.moved"


class MultiRingProposer(Process):
    """Multicasts application messages to groups.

    ``held`` names groups whose remap is in flight when the proposer is
    attached: their multicasts queue until the move's release.
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        registry: GroupRegistry,
        ring_configs: dict[int, RingConfig],
        metrics: MetricsRegistry | None = None,
        held: tuple[int, ...] = (),
    ) -> None:
        super().__init__(sim, f"mrproposer@{node.name}")
        self.network = network
        self.node = node
        self.ring_configs = ring_configs
        self._group_rings = {gid: registry.ring_for(gid) for gid in registry.group_ids()}
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(role="proposer", node=node.name)
        self.multicasts = self.metrics.counter("multicasts")
        self.multicast_bytes = self.metrics.counter("multicast_bytes")
        self._ring_proposers: dict[int, RingProposer] = {}
        self.admission: AdmissionController | None = None
        # Groups mid-remap: new multicasts queue here until the release.
        self._held: dict[int, list[tuple[object, int]]] = {gid: [] for gid in held}
        # The last move request taken, as (epoch, release), and the hold
        # whose drained reply is still due, as (manager, request).
        self._move = (0, False)
        self._draining: tuple[str, MoveRequest] | None = None
        node.register(MOVE_PORT, self._on_move)

    def enable_admission(self, policy: AdmissionPolicy) -> AdmissionController:
        """Gate :meth:`submit` behind bounded shed-or-delay intake."""
        self.admission = AdmissionController(self, policy)
        return self.admission

    def multicast(self, group_id: int, payload: object, size: int) -> ClientValue | None:
        """Atomically multicast ``payload`` (``size`` bytes) to ``group_id``.

        Returns None while the group is held by a live remap — the
        payload is queued and multicast (in order) when the move
        completes, so callers see at most added latency, never loss. A bad
        ``size`` (negative, NaN) raises before anything is counted or queued.
        """
        if not size >= 0:  # written so that NaN is rejected too
            raise ValueError(f"message size must be non-negative, got {size!r}")
        held = self._held.get(group_id)
        if held is not None:
            held.append((payload, size))
            return None
        try:
            ring_id = self._group_rings[group_id]
        except KeyError:
            raise ConfigurationError(f"unknown group {group_id}") from None
        proposer = self._ring_proposer(ring_id)
        self.multicasts.value += 1
        self.multicast_bytes.value += size
        return proposer.multicast(payload, size, group_id)

    def _ring_proposer(self, ring_id: int) -> RingProposer:
        proposer = self._ring_proposers.get(ring_id)
        if proposer is None:
            proposer = RingProposer(self.sim, self.network, self.node, self.ring_configs[ring_id])
            proposer.on_ack = self._on_ack
            self._ring_proposers[ring_id] = proposer
        return proposer

    def _on_ack(self, ack: SubmitAck) -> None:
        """A ring's ack drained submissions: admit queued intake, and
        answer a hold in progress if that was its group's last one."""
        if self.admission is not None:
            self.admission.drain()
        if self._draining is not None:
            self._answer_hold()

    # ------------------------------------------------------------------
    # Reconfiguration (live group remap)
    # ------------------------------------------------------------------
    def _on_move(self, src: str, msg: MoveRequest) -> None:
        """Take a remap's hold or release (a copy of the last is answered
        again, an older one — a resent hold after its release — ignored).

        A release bumps the new ring's seq past the old ring's before it
        sends what was held, so a (sender, seq, group) identity never
        repeats across the move: the coordinators' per-sender decided
        watermarks are monotonic in seq.
        """
        step = (msg.epoch, msg.release)
        if self.crashed or step < self._move:
            return
        self._move = step
        group = msg.group
        if not msg.release:
            self._held.setdefault(group, [])
            self._draining = (src, msg)
            self._answer_hold()
            return
        self._group_rings[group] = msg.new_ring
        old = self._ring_proposers.get(msg.old_ring)
        held = self._held.pop(group, ())
        if old is not None or held:
            target = self._ring_proposer(msg.new_ring)
            target.seq = max(target.seq, old.seq if old is not None else 0)
            for payload, size in held:
                self.multicasts.value += 1
                self.multicast_bytes.value += size
                target.multicast(payload, size, group)
        self._reply(src, msg)

    def _answer_hold(self) -> None:
        src, msg = self._draining
        old = self._ring_proposers.get(msg.old_ring)
        if old is None or all(v.group != msg.group for v in old._unacked.values()):
            self._draining = None
            self._reply(src, msg)

    def _reply(self, src: str, msg: MoveRequest) -> None:
        reply = MoveReply(msg.epoch, msg.release)
        self.network.send(self.node.name, src, MOVED_PORT, reply, reply.size)

    def submit(self, group_id: int, payload: object, size: int) -> str:
        """Multicast through admission control (when enabled).

        Returns ``"admitted"``, ``"delayed"``, or ``"shed"`` — see
        :class:`~repro.core.admission.AdmissionController.offer`. Without
        an admission policy every submission is admitted immediately,
        making this a drop-in request path for clients that want to
        respect backpressure. A bad ``size`` raises before admission.
        """
        if not size >= 0:  # written so that NaN is rejected too
            raise ValueError(f"message size must be non-negative, got {size!r}")
        if self.admission is None:
            self.multicast(group_id, payload, size)
            return "admitted"
        return self.admission.offer(group_id, payload, size)

    @property
    def unacked(self) -> int:
        """Submissions not yet acknowledged across all rings."""
        return sum(p.unacked for p in self._ring_proposers.values())

    def retarget(self, ring_id: int) -> None:
        """Follow ring ``ring_id`` to the coordinator ``ring_configs`` names."""
        proposer = self._ring_proposers.get(ring_id)
        if proposer is not None:
            proposer.retarget(self.ring_configs[ring_id])

    def on_crash(self) -> None:
        for proposer in self._ring_proposers.values():
            proposer.crash()

    def on_restart(self) -> None:
        for proposer in self._ring_proposers.values():
            proposer.restart()
