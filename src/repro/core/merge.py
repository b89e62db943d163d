"""The deterministic merge (Algorithm 1, Task 4).

A learner subscribed to several rings receives one gapless, ordered stream
of decided items per ring. The merge delivers them round-robin: rings are
visited in a fixed, subscription-derived order, and exactly M consecutive
consensus instances are consumed from a ring before moving to the next.
Since every learner with overlapping subscriptions visits rings in the
same order with the same M, any two learners deliver their common messages
in the same relative order — uniform partial order.

Consuming an instance means: deliver every client value in a data batch
(one batch occupies one instance), or silently absorb one instance of a
skip range (a skip range decided at instance k stands for ``count``
consecutive ⊥ instances and can straddle quota boundaries).

The merge blocks whenever the ring whose turn it is has nothing available
— that is the behaviour that makes rate imbalance dangerous, and what the
skip mechanism exists to prevent. Items from other rings queue up
meanwhile; if the total buffered backlog exceeds ``buffer_limit``
instances the learner halts, reproducing the overflow halt of Figure 10.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..metrics import Gauge, MetricsRegistry
from ..ringpaxos.messages import ClientValue, DataBatch, SkipRange

__all__ = ["DeterministicMerge"]


class DeterministicMerge:
    """Round-robin merge of per-ring decided-item streams.

    Parameters
    ----------
    ring_order:
        Ring ids in the fixed visit order (derived from group ids).
    m:
        Consensus instances consumed per ring per visit (the paper's M).
    on_deliver:
        ``(ring_id, instance, value)`` for every application message, in
        the merged delivery order.
    buffer_limit:
        Halt threshold, in buffered logical instances across all rings.
    on_halt:
        Optional callback invoked once when the buffer overflows.
    metrics:
        Registry for the merge counters plus per-ring queue-depth gauges
        (``merge_queue_depth{ring=i}``). A private registry when None.
    """

    def __init__(
        self,
        ring_order: list[int],
        m: int,
        on_deliver: Callable[[int, int, ClientValue], None],
        buffer_limit: int = 200_000,
        on_halt: Callable[[], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not ring_order:
            raise ValueError("merge needs at least one ring")
        if len(set(ring_order)) != len(ring_order):
            raise ValueError("ring_order must not repeat rings")
        if m <= 0:
            raise ValueError("M must be positive")
        self.ring_order = list(ring_order)
        self.m = m
        self.on_deliver = on_deliver
        self.buffer_limit = buffer_limit
        self.on_halt = on_halt
        self.halted = False
        self.halted_at: float | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.delivered_messages = self.metrics.counter("merge_delivered")
        self.consumed_instances = self.metrics.counter("merge_consumed_instances")
        self.skipped_instances = self.metrics.counter("merge_skipped_instances")
        self.buffered_instances = self.metrics.gauge("merge_buffered_instances")
        self.queue_gauges: dict[int, Gauge] = {
            rid: self.metrics.gauge("merge_queue_depth", ring=rid) for rid in ring_order
        }
        # Per-ring FIFO of in-order decided items. Skip ranges are stored
        # as [remaining_count] so they can be consumed incrementally.
        self._queues: dict[int, deque] = {rid: deque() for rid in ring_order}
        self._cursor = 0
        self._quota = m
        self._restart = False

    # ------------------------------------------------------------------
    # Input (called by each ring's learner, in that ring's order)
    # ------------------------------------------------------------------
    def push(self, ring_id: int, instance: int, item: DataBatch | SkipRange, now: float = 0.0) -> None:
        """Feed the next in-order decided item of ``ring_id``."""
        queue = self._queues.get(ring_id)
        if queue is None:
            return  # stale feed of a ring dropped by a reconfiguration
        if isinstance(item, SkipRange):
            queue.append([item.count])
            self.buffered_instances.value += item.count
            self.queue_gauges[ring_id].value += item.count
        else:
            queue.append((instance, item))
            self.buffered_instances.value += 1
            self.queue_gauges[ring_id].value += 1
        if self.halted:
            return
        if self.buffered_instances.value > self.buffer_limit:
            self._halt(now)
            return
        self._advance(now)

    # ------------------------------------------------------------------
    # The merge loop
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        self._restart = False
        n_rings = len(self.ring_order)
        idle_visits = 0
        while idle_visits < n_rings:
            ring_id = self.ring_order[self._cursor]
            queue = self._queues[ring_id]
            if (
                self._quota == self.m
                and queue
                and isinstance(queue[0], list)
                and self._skip_rounds()
            ):
                idle_visits = 0
                continue
            consumed_any = False
            while self._quota > 0 and queue:
                head = queue[0]
                if isinstance(head, list):
                    # A (partially consumed) skip range.
                    take = min(head[0], self._quota)
                    head[0] -= take
                    if head[0] == 0:
                        queue.popleft()
                    self._quota -= take
                    self.skipped_instances.value += take
                    self.consumed_instances.value += take
                    self.buffered_instances.value -= take
                    self.queue_gauges[ring_id].value -= take
                    consumed_any = True
                else:
                    instance, batch = queue.popleft()
                    self._quota -= 1
                    self.consumed_instances.value += 1
                    self.buffered_instances.value -= 1
                    self.queue_gauges[ring_id].value -= 1
                    for value in batch.values:
                        self.delivered_messages.value += 1
                        self.on_deliver(ring_id, instance, value)
                    if self._restart:
                        # A delivery changed the ring set under us (a
                        # reconfiguration cut was consumed): every local
                        # cursor here is stale, start over from the new
                        # order's first ring.
                        self._advance(now)
                        return
                    consumed_any = True
            if self._quota == 0:
                self._next_ring()
                idle_visits = 0 if consumed_any else idle_visits + 1
            elif not queue:
                if n_rings == 1:
                    return  # single ring: nothing buffered, just wait
                # Blocked: this ring's turn but nothing available yet.
                return
            else:  # pragma: no cover - loop invariant: quota>0 and queue
                return

    def _skip_rounds(self) -> bool:
        """Absorb whole rounds of skips at once; False if there is none.

        Called at the start of a visit. When every ring's head is a skip
        range with at least M instances left, the next ``min(head // M)``
        rounds consume M skips from each ring and end where they began —
        same cursor, full quota — delivering nothing, so taking them in
        one step is what the per-instance walk would have done.
        """
        m = self.m
        take = None
        for queue in self._queues.values():
            if not queue:
                return False
            head = queue[0]
            if not isinstance(head, list) or head[0] < m:
                return False
            if take is None or head[0] < take:
                take = head[0]
        take -= take % m
        for ring_id, queue in self._queues.items():
            head = queue[0]
            head[0] -= take
            if head[0] == 0:
                queue.popleft()
            self.queue_gauges[ring_id].value -= take
        total = take * len(self._queues)
        self.skipped_instances.value += total
        self.consumed_instances.value += total
        self.buffered_instances.value -= total
        return True

    def _next_ring(self) -> None:
        self._cursor = (self._cursor + 1) % len(self.ring_order)
        self._quota = self.m

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[int, int]:
        """The merge position — (cursor, remaining quota) — for a checkpoint.

        Positions between deliveries are fully described by these two
        values: the per-ring input positions live in the ring learners,
        and buffered items are recovered by replaying the rings.
        """
        return (self._cursor, self._quota)

    def restore(self, state: tuple[int, int]) -> None:
        """Rewind to a checkpointed position, discarding buffered items.

        The owning learner rolls its ring learners back to the matching
        per-ring positions; everything buffered here will be replayed
        through ``push`` in the same order, so the queues start empty.
        """
        self._cursor, self._quota = state
        for ring_id, queue in self._queues.items():
            queue.clear()
            self.queue_gauges[ring_id].value = 0
        self.buffered_instances.value = 0

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def set_ring_order(self, ring_order: list[int]) -> None:
        """Adopt a new visit order at a reconfiguration cut.

        Safe to call from within ``on_deliver`` — the merge loop restarts
        itself with the new order after finishing the batch in hand. The
        cursor resets to the first ring: every learner switches at the
        same point of its delivery stream (the decided cut), so resetting
        deterministically keeps the common-order guarantee. Queues of
        rings leaving the subscription are discarded (their remaining
        items belong to groups this learner no longer receives); rings
        joining start with an empty queue.
        """
        if not ring_order:
            raise ValueError("merge needs at least one ring")
        if len(set(ring_order)) != len(ring_order):
            raise ValueError("ring_order must not repeat rings")
        for rid in ring_order:
            if rid not in self._queues:
                self._queues[rid] = deque()
                self.queue_gauges.setdefault(rid, self.metrics.gauge("merge_queue_depth", ring=rid))
        for rid in list(self._queues):
            if rid not in ring_order:
                dropped = self.queue_depth(rid)
                if dropped:
                    self.buffered_instances.value -= dropped
                self.queue_gauges[rid].value = 0
                del self._queues[rid]
        self.ring_order = list(ring_order)
        self._cursor = 0
        self._quota = self.m
        self._restart = True

    def _halt(self, now: float) -> None:
        self.halted = True
        self.halted_at = now
        if self.on_halt is not None:
            self.on_halt()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self, ring_id: int) -> int:
        """Buffered logical instances for one ring."""
        total = 0
        for entry in self._queues[ring_id]:
            total += entry[0] if isinstance(entry, list) else 1
        return total
