"""Proposer-side admission control: bounded intake, shed-or-delay.

Without admission control an overloaded proposer queues submissions
unboundedly inside the ring (``RingProposer._unacked`` grows without
limit and retransmission traffic compounds the overload). The
:class:`AdmissionController` sits in front of ``multicast``:

* while total in-flight submissions are below ``max_inflight`` (and
  nothing is already queued), a submission is **admitted** immediately;
* otherwise it is **delayed** in a bounded FIFO intake queue of at most
  ``max_queue`` entries, drained as coordinator acks free capacity;
* when the intake queue is full it is **shed** — rejected synchronously,
  before a sequence number is consumed, so an already-submitted (let
  alone already-acknowledged) request can never be dropped here. The
  client sees the rejection immediately and applies its own retry
  policy.

Decisions are surfaced through labeled metrics (``admitted``,
``delayed``, ``shed`` counters and an ``intake_depth`` gauge) and the
probe bus (``admission.delay`` / ``admission.shed`` events carrying the
queue depth and its bound), which is what the fuzzer's admission oracle
checks: the intake queue stays within its bound, and no shed ever names
a request the client already saw acknowledged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["AdmissionPolicy", "AdmissionController"]


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """Bounds for one proposer's intake.

    ``max_inflight`` caps submissions in the ring awaiting decision;
    ``max_queue`` caps the delayed-intake FIFO behind it. Total memory
    committed to client work is therefore bounded by their sum.
    """

    max_inflight: int = 256
    max_queue: int = 512

    def __post_init__(self) -> None:
        if not self.max_inflight >= 1:  # written so that NaN is rejected too
            raise ValueError("max_inflight must be at least 1")
        if not self.max_queue >= 0:
            raise ValueError("max_queue must be non-negative")


class AdmissionController:
    """Shed-or-delay intake gate in front of one :class:`MultiRingProposer`."""

    def __init__(self, proposer, policy: AdmissionPolicy) -> None:
        self.proposer = proposer
        self.policy = policy
        metrics = proposer.metrics
        self.admitted = metrics.counter("admitted")
        self.delayed = metrics.counter("delayed")
        self.shed = metrics.counter("shed")
        self.intake_depth = metrics.gauge("intake_depth")
        self._queue: deque[tuple[int, object, int]] = deque()

    @property
    def queue_depth(self) -> int:
        """Submissions currently delayed in the intake queue."""
        return len(self._queue)

    def offer(self, group_id: int, payload: object, size: int) -> str:
        """Submit ``payload`` for ``group_id``; returns the decision.

        ``"admitted"``: multicast immediately. ``"delayed"``: queued for
        admission when capacity frees up (FIFO, behind earlier delays).
        ``"shed"``: rejected — nothing was sent, no sequence number was
        consumed, and the caller must retry (or give up) on its own.
        """
        if not self._queue and self.proposer.unacked < self.policy.max_inflight:
            self.admitted.value += 1
            self.proposer.multicast(group_id, payload, size)
            return "admitted"
        if len(self._queue) < self.policy.max_queue:
            self._queue.append((group_id, payload, size))
            self.delayed.value += 1
            self.intake_depth.value = len(self._queue)
            self._emit("admission.delay", payload)
            return "delayed"
        self.shed.value += 1
        self._emit("admission.shed", payload)
        return "shed"

    def drain(self) -> None:
        """Admit queued submissions while in-flight capacity allows.

        Hooked to the ring proposers' ``on_ack`` callback, so delayed
        intake flows out at exactly the rate coordinator acks free
        capacity — the "delay" half of shed-or-delay.
        """
        moved = False
        while self._queue and self.proposer.unacked < self.policy.max_inflight:
            group_id, payload, size = self._queue.popleft()
            self.admitted.value += 1
            self.proposer.multicast(group_id, payload, size)
            moved = True
        if moved:
            self.intake_depth.value = len(self._queue)

    def _emit(self, kind: str, payload: object) -> None:
        probe = self.proposer.sim.probe
        if probe is not None and kind in probe.subscribers:
            probe.emit(
                kind, self.proposer.sim.now, self.proposer.name,
                node=self.proposer.node.name,
                req_id=getattr(payload, "req_id", None),
                client=getattr(payload, "client", None),
                depth=len(self._queue),
                bound=self.policy.max_queue,
            )
