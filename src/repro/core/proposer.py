"""The Multi-Ring Paxos proposer: ``multicast(g, m)`` (Algorithm 1, Task 1).

To multicast a message to group g, a proposer sends it to the coordinator
of g's ring. One :class:`MultiRingProposer` can address any number of
groups from a single node; under the hood it keeps one reliable
:class:`~repro.ringpaxos.proposer.RingProposer` per ring, sharing the
node's NIC.
"""

from __future__ import annotations

from ..metrics import MetricsRegistry
from ..ringpaxos.config import RingConfig
from ..ringpaxos.messages import ClientValue
from ..ringpaxos.proposer import RingProposer
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from .admission import AdmissionController, AdmissionPolicy
from .groups import GroupRegistry

__all__ = ["MultiRingProposer"]


class MultiRingProposer(Process):
    """Multicasts application messages to groups."""

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        registry: GroupRegistry,
        ring_configs: dict[int, RingConfig],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"mrproposer@{node.name}")
        self.network = network
        self.node = node
        self.registry = registry
        self.ring_configs = ring_configs
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(role="proposer", node=node.name)
        self.multicasts = self.metrics.counter("multicasts")
        self.multicast_bytes = self.metrics.counter("multicast_bytes")
        self._ring_proposers: dict[int, RingProposer] = {}
        self.admission: AdmissionController | None = None
        # Groups mid-remap: new multicasts queue here until the group's
        # old-ring submissions drained and the move is released.
        self._held: dict[int, list[tuple[object, int]]] = {}

    def enable_admission(self, policy: AdmissionPolicy) -> AdmissionController:
        """Gate :meth:`submit` behind bounded shed-or-delay intake."""
        self.admission = AdmissionController(self, policy)
        for proposer in self._ring_proposers.values():
            proposer.on_ack = self.admission.drain
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
        proposer = self._ring_proposer(self.registry.ring_for(group_id))
        self.multicasts.value += 1
        self.multicast_bytes.value += size
        return proposer.multicast(payload, size, group_id)

    def _ring_proposer(self, ring_id: int) -> RingProposer:
        proposer = self._ring_proposers.get(ring_id)
        if proposer is None:
            proposer = RingProposer(self.sim, self.network, self.node, self.ring_configs[ring_id])
            if self.admission is not None:
                proposer.on_ack = self.admission.drain
            self._ring_proposers[ring_id] = proposer
        return proposer

    # ------------------------------------------------------------------
    # Reconfiguration (live group remap)
    # ------------------------------------------------------------------
    def hold_group(self, group_id: int) -> None:
        """Queue new multicasts to ``group_id`` until its remap releases it."""
        self._held.setdefault(group_id, [])

    def undecided_on(self, ring_id: int, group_id: int) -> bool:
        """Whether a submission of ``group_id`` is undecided on ``ring_id``."""
        proposer = self._ring_proposers.get(ring_id)
        return proposer is not None and any(
            v.group == group_id for v in proposer._unacked.values()
        )

    def complete_group_move(self, group_id: int, old_ring: int, new_ring: int) -> bool:
        """Release a held group onto ``new_ring`` (its old-ring
        submissions are all decided: the move drained them first).

        The registry already points the group at ``new_ring``. The new
        ring's sequence counter is bumped past the old ring's so a
        (sender, seq, group) identity can never repeat across the move —
        the decided watermarks both coordinators keep per sender are
        monotonic in seq, and the at-most-once oracle keys on the triple.
        Returns False (retry later) while this proposer is down.
        """
        if self.crashed:
            return False
        old = self._ring_proposers.get(old_ring)
        held = self._held.pop(group_id, None)
        if old is not None or held:
            target = self._ring_proposer(new_ring)
            if old is not None:
                target.seq = max(target.seq, old.seq)
        if held:
            for payload, size in held:
                self.multicasts.value += 1
                self.multicast_bytes.value += size
                target.multicast(payload, size, group_id)
        return True

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
